"""The service-mix workload: two closed-loop clients against a
``repro-serve`` subprocess (fast backend, 2 runner threads, a sharded
CAS and a journal in the run's scratch directory).

* set-up: start the server, wait for health, and store the read set by
  submitting it once; repeated three times, the last server is kept;
* read phase: both clients fetch store hits, each a full round trip:
  submit -> event stream to ``sweep.end`` -> ``GET /v1/results``;
* write phase: one client submits distinct fresh jobs back to back
  while the other keeps reading.

The timed operation is a write: a fresh job's round trip.  A read
round trip is a few milliseconds of handoffs between client and server
threads, and on a virtual machine each handoff may wait for the host to
wake an idle vCPU; the same read took 4 ms in one run and 6 ms in the
next, so the read statistics are per-layer metrics.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import threading
import time
from collections import Counter

import common
from harness import Measurement
from spans import Recorder

SET_UPS = 3
READ_SHARE = 0.6
#: fresh writes per program, each with a seed-chosen named config
WRITES_PER_PROGRAM = 3
#: the read percentiles are medians over windows this long
WINDOW_S = 0.5


class Server:
    """One ``repro-serve`` subprocess with its own store and journal."""

    def __init__(self, log) -> None:
        from repro.service.client import ServiceClient

        work = common.work_dir("service")
        argv = [sys.executable, "-m", "repro.service.server",
                "--port", "0", "--workers", str(common.NPROC),
                "--backend", "fast", "--cache-dir", str(work / "cas"),
                "--journal-dir", str(work / "journal")]
        self.proc = common.PROCESSES.spawn(
            argv, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
            stderr=log if log is not None else subprocess.DEVNULL,
            text=True)
        self.url = self.proc.stdout.readline().strip()
        if not self.url:
            self.stop()
            raise RuntimeError("repro-serve exited before binding")
        self.client = ServiceClient(self.url, timeout=60.0)

    def wait_healthy(self) -> None:
        from repro.service.api import ServiceError

        deadline = time.monotonic() + 30
        while True:
            try:
                self.client.health()
                return
            except (OSError, ServiceError):
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.02)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def round_trip(client, job: tuple, recorder: Recorder | None) -> dict:
    """submit -> stream to sweep.end -> fetch one ``(JobSpec,
    fingerprint)``; never raises."""
    from repro.service.api import Backpressure, ServiceError, SubmitRequest

    spec, fingerprint = job
    op = {"fingerprint": fingerprint, "source": None}
    marks = [time.monotonic()]

    def stage(name: str, call):
        span = recorder.begin(name) if recorder is not None else None
        try:
            return call()
        finally:
            if span is not None:
                recorder.end(span)
            marks.append(time.monotonic())

    def wait(sweep_id: str) -> None:
        for record in client.stream(sweep_id):
            if record.get("record") == "job":
                op["source"] = record.get("source") or op["source"]

    root = None
    if recorder is not None:
        recorder.rid = fingerprint
        root = recorder.begin("service.round_trip")
    try:
        status = stage("service.submit", lambda: client.submit(
            SubmitRequest(jobs=(spec,), backend="fast")))
        stage("service.wait", lambda: wait(status.sweep_id))
        op["payload"] = stage("service.fetch", lambda: client.result(
            status.statuses[0].fingerprint))
    except Backpressure as err:
        op["error"], op["rejected"] = f"rejected: {err}", True
    except (OSError, ServiceError, ValueError) as err:
        op["error"] = f"{type(err).__name__}: {err}"
    finally:
        if root is not None:
            recorder.end(root)
    op["t0"], op["t1"] = marks[0], time.monotonic()
    op["stages"] = [b - a for a, b in zip(marks, marks[1:])]
    return op


def plan(seed: int, smoke: bool) -> tuple[list, list]:
    """(read set, write list): the read set is each fixed-warmup
    program at baseline; the writes are seed-chosen other named configs
    of those programs, in seed order, so every write is fresh."""
    from repro.core.config import named_configs
    from repro.service.api import JobSpec

    def job(program: str, config: str) -> tuple:
        spec = JobSpec(program, config, common.SCALE)
        return spec, spec.fingerprint()

    programs = common.FIXED_WARMUP[:1] if smoke else common.FIXED_WARMUP
    rng = common.rng_for(seed, "service-mix")
    others = sorted(c for c in named_configs() if c != "baseline")
    reads = [job(p, "baseline") for p in programs]
    writes = [job(p, c) for p in programs
              for c in rng.sample(others, WRITES_PER_PROGRAM)]
    rng.shuffle(writes)
    return reads, writes


def set_up(reads, log) -> tuple[float, Server]:
    t0 = time.monotonic()
    server = Server(log)
    server.wait_healthy()
    for job in reads:
        op = round_trip(server.client, job, None)
        if op.get("error"):
            server.stop()
            raise RuntimeError(f"store set-up failed: {op['error']}")
    return time.monotonic() - t0, server


def job_seconds(client) -> tuple[float, int]:
    histogram = client.metrics().get("histograms", {}).get(
        "service.job_seconds", {})
    return float(histogram.get("sum", 0.0)), int(histogram.get("count", 0))


def service_mix(plan_, seconds: float, trace: bool,
                book: common.DigestBook, log, seed: int = 0) -> Measurement:
    reads, writes = plan_
    m = Measurement()
    server = None
    for _ in range(SET_UPS):
        if server is not None:
            server.stop()
        took, server = set_up(reads, log)
        m.setup.append(took)
    read_s = seconds * READ_SHARE
    results: dict[str, list[dict]] = {"read": [], "write": [],
                                      "under_write": []}
    lock = threading.Lock()
    writing = threading.Event()
    stops = [threading.Event(), threading.Event()]
    recorders = [Recorder() if trace else None for _ in range(2)]

    def reader(index: int) -> None:
        from repro.service.client import ServiceClient

        client = ServiceClient(server.url, timeout=60.0)
        rng = common.rng_for(seed, f"service-mix-reader{index}")
        while not stops[index].is_set():
            phase = "under_write" if writing.is_set() else "read"
            op = round_trip(client, rng.choice(reads), recorders[index])
            with lock:
                results[phase].append(op)

    def writer() -> None:
        from repro.service.client import ServiceClient

        client = ServiceClient(server.url, timeout=60.0)
        for job in writes:
            op = round_trip(client, job, recorders[0])
            with lock:
                results["write"].append(op)

    try:
        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(2)]
        t_begin = time.monotonic()
        for thread in threads:
            thread.start()
        time.sleep(read_s)
        # The first reader becomes the writer for the write phase.
        stops[0].set()
        threads[0].join()
        read_window = time.monotonic() - t_begin
        js_before = job_seconds(server.client)
        writing.set()
        threads[0] = threading.Thread(target=writer)
        threads[0].start()
        threads[0].join()
        stops[1].set()
        threads[1].join()
        js_after = job_seconds(server.client)
    finally:
        for event in stops:
            event.set()
        server.stop()

    for phase, ops in results.items():
        for op in ops:
            m.attempted += 1
            payload = op.pop("payload", None)
            if op.get("error") or payload is None:
                m.failed += 1
                print(f"service op failed: {op['fingerprint']}: "
                      f"{op.get('error')}", file=sys.stderr)
            elif not book.check(op["fingerprint"],
                                common.bytes_digest(payload)):
                m.failed += 1
    m.latencies = [op["t1"] - op["t0"] for op in results["write"]
                   if not op.get("error")]
    if trace:
        m.layer, m.trace = service_layers(results, js_before, js_after,
                                          recorders, t_begin, read_window)
    return m


def read_windows(ops, t_begin: float, read_window: float) -> list[list]:
    """Read latencies split into :data:`WINDOW_S` windows by end time."""
    count = max(1, int(read_window / WINDOW_S))
    width = read_window / count
    windows = [[] for _ in range(count)]
    for op in ops:
        slot = min(count - 1, int((op["t1"] - t_begin) / width))
        windows[slot].append(op["t1"] - op["t0"])
    return [w for w in windows if w]


def service_layers(results, js_before, js_after, recorders,
                   t_begin: float, read_window: float):
    ok_reads = [op for op in results["read"] if not op.get("error")]
    windows = read_windows(ok_reads, t_begin, read_window)
    stages = list(zip(*[op["stages"] for op in ok_reads])) or [(), (), ()]
    every = [op for ops in results.values() for op in ops]
    sources = Counter(op.get("source") for op in every)
    under = [op["t1"] - op["t0"] for op in results["under_write"]
             if not op.get("error")]
    fresh_jobs = js_after[1] - js_before[1]
    metrics = {
        "service.submit_ms": 1000 * common.mean(stages[0]),
        "service.wait_ms": 1000 * common.mean(stages[1]),
        "service.fetch_ms": 1000 * common.mean(stages[2]),
        "service.job_s": ((js_after[0] - js_before[0]) / fresh_jobs
                          if fresh_jobs else 0.0),
        "service.source.fresh": sources.get("fresh", 0),
        "service.source.store": sources.get("store", 0),
        "service.source.coalesced": sources.get("coalesced", 0),
        "service.rejected": sum(1 for op in every if op.get("rejected")),
        "service.read_under_write_p50_ms": 1000 * common.median(under),
        # medians over the windows: a stall of the host moves a few
        # windows, not the result
        "service.read_p50_ms": 1000 * common.median(
            [common.median(w) for w in windows]),
        "service.read_p90_ms": 1000 * common.median(
            [common.percentile(w, 90) for w in windows]),
    }
    spans = [span for rec in recorders if rec is not None
             for span in rec.spans]
    return metrics, {"client_spans": spans}
