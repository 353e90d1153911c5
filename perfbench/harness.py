"""The engine workloads: fresh-job, figure-sweep, sim-core.

Each workload takes the seed's jobs, runs them through benchmark children
(:mod:`child`), checks every result against the committed digests, and
returns a :class:`Measurement`.  The parent never imports the
simulator's hot paths itself; its only clocks are ``time.monotonic()``.
"""

from __future__ import annotations

import base64
import json
import pickle
import subprocess
import sys
import time
from dataclasses import dataclass, field

import common
import layers

CHILD = common.BENCH_DIR / "child.py"


@dataclass
class Measurement:
    """What one pass of a workload produced."""

    #: seconds each set-up took (several per run; the median is reported)
    setup: list[float] = field(default_factory=list)
    #: latency samples of the workload's timed operation
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: per-layer metric values (traced runs only)
    layer: dict = field(default_factory=dict)
    #: spans and self times kept for the trace document
    trace: dict = field(default_factory=dict)


class Child:
    """One spawned benchmark child and its line protocol."""

    def __init__(self, mode: str, trace: bool = False,
                 spool=None, log=None) -> None:
        argv = [sys.executable, str(CHILD), mode]
        if trace:
            argv.append("--trace")
        if spool is not None:
            argv += ["--spool", str(spool)]
        self.t_spawn = time.monotonic()
        self.proc = common.PROCESSES.spawn(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=log if log is not None else subprocess.DEVNULL,
            text=True)
        self.ready: dict = {}

    def wait_ready(self) -> float:
        """Block until the child is ready; returns spawn-to-ready
        seconds by the child's own ready stamp."""
        self.ready = self._read()
        return self.ready["t"] - self.t_spawn

    def call(self, command: dict) -> tuple[float, dict]:
        """Hand over a command; returns (handoff time, reply)."""
        line = json.dumps(command) + "\n"
        t_handoff = time.monotonic()
        self.proc.stdin.write(line)
        self.proc.stdin.flush()
        return t_handoff, self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError(f"benchmark child exited "
                               f"(code {self.proc.returncode})")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(json.dumps({"op": "exit"}) + "\n")
                self.proc.stdin.flush()
            except (BrokenPipeError, OSError):
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()


def pickled(jobs) -> str:
    return base64.b64encode(pickle.dumps(jobs)).decode("ascii")


def check_ops(ops: list[dict], book: common.DigestBook,
              m: Measurement) -> None:
    """Count every op as attempted; wrong or missing digests fail."""
    for op in ops:
        m.attempted += 1
        if op.get("error") or not op.get("digest"):
            m.failed += 1
            print(f"op failed: {op.get('fingerprint')}: {op.get('error')}",
                  file=sys.stderr)
        elif not book.check(op["fingerprint"], op["digest"]):
            m.failed += 1


def set_up_children(mode: str, count: int, trace: bool, spool, log):
    """Spawn ``count`` children one after another, timing each to
    ready; returns the set-up samples and the last (kept) child."""
    samples = []
    child = None
    for _ in range(count):
        if child is not None:
            child.close()
        child = Child(mode, trace=trace, spool=spool, log=log)
        samples.append(child.wait_ready())
    return samples, child


# ------------------------------------------------------------ fresh-job

def fresh_job_plan(seed: int, smoke: bool) -> list:
    """One job per program, each with a seed-chosen figure config."""
    rng = common.rng_for(seed, "fresh-job")
    by_program: dict[str, list] = {}
    for job in common.figure_jobs():
        by_program.setdefault(job.workload, []).append(job)
    programs = sorted(by_program)
    if smoke:
        programs = [common.FIXED_WARMUP[0], common.SWEEP_PROGRAMS[1]]
    plan = [rng.choice(by_program[name]) for name in programs]
    rng.shuffle(plan)
    return plan


def fresh_job(plan, seconds: float, trace: bool,
              book: common.DigestBook, log) -> Measurement:
    """Closed loop, one client: every job in its own new interpreter.

    Whole passes over the plan repeat while another pass fits in the
    time budget (at least one), so every run weighs every program; a
    program counts with its fastest pass.  Each child is spawned only
    after the previous job has returned, so nothing else runs while a
    job is timed."""
    m = Measurement()
    jobs_done = []
    best: dict[str, float] = {}
    t_begin = time.monotonic()
    while True:
        t_pass = time.monotonic()
        for job in plan:
            child = Child("fresh-job", trace=trace, log=log)
            try:
                m.setup.append(child.wait_ready())
                cache = common.work_dir("fresh-cache")
                t0, reply = child.call({
                    "op": "run", "jobs": pickled([job]),
                    "cache_dir": str(cache), "rid": job.fingerprint()})
            finally:
                child.close()
            ops = reply.get("ops", [])
            if reply.get("error"):
                ops = [{"fingerprint": job.fingerprint(),
                        "error": reply["error"]}]
            check_ops(ops, book, m)
            wall = reply.get("t_end", time.monotonic()) - t0
            key = job.fingerprint()
            best[key] = min(best.get(key, float("inf")), wall)
            jobs_done.append({
                "t0": t0, "wall": wall, "job": job, "op": ops[0],
                "spans": reply.get("spans"),
                "import_s": child.ready.get("import_s", 0.0)})
        elapsed = time.monotonic() - t_begin
        if elapsed + (time.monotonic() - t_pass) > seconds:
            break
    m.latencies = list(best.values())
    if trace:
        m.layer, m.trace = layers.fresh_job_layers(jobs_done)
    return m


# --------------------------------------------------------- figure-sweep

def figure_sweep_plan(seed: int, smoke: bool) -> list[list]:
    """The figures' jobs for the sweep subset, one batch per program
    (its 12 configs, in the registry's order, as ``repro-experiments``
    submits them); the seed orders the batches."""
    rng = common.rng_for(seed, "figure-sweep")
    programs = common.SWEEP_PROGRAMS[:1] if smoke else common.SWEEP_PROGRAMS
    batches: dict[str, list] = {name: [] for name in programs}
    for job in common.figure_jobs():
        if job.workload in batches:
            batches[job.workload].append(job)
    plan = [jobs[:2] if smoke else jobs for jobs in batches.values()]
    rng.shuffle(plan)
    return plan


#: figure-sweep's set-up samples: child spawns timed to ready
SWEEP_SET_UPS = 7
#: figure-sweep runs every batch at least this often and keeps each
#: program's fastest, so a slow spell of the host does not set its number
SWEEP_ROUNDS = 2


def figure_sweep(plan, seconds: float, trace: bool,
                 book: common.DigestBook, log) -> Measurement:
    """One waiting caller hands each program's cold batch to the engine.

    Rounds over the programs repeat while another round fits in the
    time budget (at least :data:`SWEEP_ROUNDS`); each program keeps its
    fastest batch."""
    m = Measurement()
    spool = common.work_dir("spool") if trace else None
    m.setup, child = set_up_children("figure-sweep", SWEEP_SET_UPS, trace,
                                     spool, log)
    best: dict[str, float] = {}
    replies = []
    t_begin = time.monotonic()
    rounds = 0
    try:
        while True:
            t_round = time.monotonic()
            for jobs in plan:
                cache = common.work_dir("sweep-cache")
                if spool is not None:
                    for path in spool.glob("*"):
                        path.unlink()
                t0, reply = child.call({"op": "run", "jobs": pickled(jobs),
                                        "cache_dir": str(cache)})
                if reply.get("error"):
                    raise RuntimeError(reply["error"])
                check_ops(reply["ops"], book, m)
                program = jobs[0].workload
                best[program] = min(best.get(program, float("inf")),
                                    reply["t_end"] - t0)
                replies.append((t0, program, reply))
            rounds += 1
            elapsed = time.monotonic() - t_begin
            if rounds >= SWEEP_ROUNDS and \
                    elapsed + (time.monotonic() - t_round) > seconds:
                break
    finally:
        child.close()
    m.latencies = list(best.values())
    if trace:
        m.layer, m.trace = layers.figure_sweep_layers(replies)
    return m


# ------------------------------------------------------------- sim-core

#: sim-core runs each fast job this often per pass and keeps the
#: fastest, so a transient stall of the host does not set the number
FAST_REPEATS = 3


def sim_core_plan(seed: int, smoke: bool) -> list:
    """(job, backend) pairs: fixed-warmup programs x sim configs x both
    backends (fast ones repeated).  The runs go in rounds, each job
    once a round, so a job's repeats are spread over the pass rather
    than caught by one stall; the seed orders the jobs and each job's
    backends."""
    rng = common.rng_for(seed, "sim-core")
    programs = common.FIXED_WARMUP[:1] if smoke else common.FIXED_WARMUP
    configs = common.SIM_CONFIGS[:1] if smoke else common.SIM_CONFIGS
    jobs = [common.named_job(p, c) for p in programs for c in configs]
    rng.shuffle(jobs)
    runs = []
    for _job in jobs:
        backends = ["fast"] * FAST_REPEATS + ["reference"]
        rng.shuffle(backends)
        runs.append(backends)
    return [(job, backends[round_])
            for round_ in range(FAST_REPEATS + 1)
            for job, backends in zip(jobs, runs)]


def sim_core(plan, seconds: float, trace: bool,
             book: common.DigestBook, log) -> Measurement:
    """Closed loop in one warm process; fast must equal reference."""
    m = Measurement()
    m.setup, child = set_up_children("sim-core", 2, trace, None, log)
    try:
        _t0, reply = child.call({"op": "run", "jobs": pickled(plan),
                                 "budget": seconds})
    finally:
        child.close()
    if reply.get("error"):
        raise RuntimeError(reply["error"])
    ops = reply["ops"]
    check_ops(ops, book, m)
    pairs: dict[tuple, set] = {}
    for op in ops:
        pairs.setdefault((op["fingerprint"], op["pass"]), set()).add(
            op.get("digest"))
    for key, digests in pairs.items():
        if len(digests) != 1:
            m.failed += 1
            print(f"fast != reference: {key[0]}", file=sys.stderr)
    best: dict[tuple, float] = {}
    for op in ops:
        if op["backend"] == "fast":
            key = (op["fingerprint"], op["pass"])
            best[key] = min(best.get(key, float("inf")), op["t1"] - op["t0"])
    m.latencies = list(best.values())
    if trace:
        m.layer, m.trace = layers.sim_core_layers(ops, reply["spans"])
    return m
