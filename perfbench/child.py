"""A benchmark child: a fresh interpreter that imports the program,
reports ready, then runs the operations its parent hands it.

    python3 perfbench/child.py MODE [--trace] [--spool DIR]

MODE is ``fresh-job``, ``figure-sweep`` or ``sim-core``.  The protocol
is one JSON object per line: the child writes ``{"ready": ...}`` once
it has imported (and, for ``sim-core``, run its untimed warm pass),
then answers each command line on stdin with one reply line.  Commands
carry their jobs as a pickle the parent wrote.  Program output that
goes to stdout is diverted to stderr so it cannot corrupt the protocol.

Each reply carries the child's own ``time.monotonic()`` stamps, which
on Linux share one clock with the parent's.  Digests are computed
after the clock stops: they are the benchmark's check, not the
program's work.
"""

from __future__ import annotations

import base64
import json
import pickle
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import spans as spanlib  # noqa: E402

PROTOCOL = sys.stdout
sys.stdout = sys.stderr


def send(document: dict) -> None:
    PROTOCOL.write(json.dumps(document) + "\n")
    PROTOCOL.flush()


def load_jobs(text: str) -> list:
    return pickle.loads(base64.b64decode(text))


# ------------------------------------------------------------ handlers

def run_batch(jobs, backend: str, workers: int, cache_dir, tracer=None):
    """One call into the engine's public batch API."""
    from repro.exec.context import RunContext
    from repro.exec.engine import RunEngine

    ctx = RunContext(backend=backend, jobs=workers,
                     cache_dir=cache_dir,
                     use_cache=cache_dir is not None)
    engine = RunEngine(ctx, tracer=tracer)
    results, report = engine.run_jobs_report(jobs)
    return engine, results, report


def fresh_job(command: dict, recorder) -> dict:
    """One fresh fast job through the CLI's engine path: empty disk
    cache, in-process, then the result is in the caller's hands."""
    job = load_jobs(command["jobs"])[0]
    engine, results, report = run_batch([job], "fast", 1,
                                        command["cache_dir"])
    t_end = time.monotonic()
    result = results.get(job.key)
    return {"t_end": t_end, "ops": [{
        "fingerprint": job.fingerprint(),
        "digest": common.result_digest(result) if result else None,
        "insts": result.stats.committed if result else 0,
        "retries": engine.stats.job_retries,
        "fresh": engine.stats.fresh_runs,
        "error": None if report.ok else report.banner(),
    }]}


def figure_sweep(command: dict, recorder) -> dict:
    """The repro-experiments path: one cold deduplicated batch over a
    process pool, results stored to an empty disk cache."""
    from repro.exec.engine import clear_memo

    jobs = load_jobs(command["jobs"])
    tracer = None
    if recorder is not None:
        from repro.perf.trace import SpanTracer
        tracer = SpanTracer()
    clear_memo()
    engine, results, report = run_batch(jobs, "fast", common.NPROC,
                                        command["cache_dir"], tracer)
    t_end = time.monotonic()
    ops = []
    for job in jobs:
        result = results.get(job.key)
        outcome = report.outcome_of(job)
        ops.append({
            "fingerprint": job.fingerprint(),
            "digest": common.result_digest(result) if result else None,
            "insts": result.stats.committed if result else 0,
            "error": (None if outcome is not None and outcome.ok
                      else getattr(outcome, "error", "no outcome")),
        })
    reply = {"t_end": t_end, "ops": ops,
             "retries": engine.stats.job_retries,
             "fresh": engine.stats.fresh_runs}
    if tracer is not None:
        reply["engine_spans"] = [
            {"name": s.name, "dur": s.duration, "pid": s.pid}
            for s in tracer.spans]
    return reply


def sim_core(command: dict, recorder) -> dict:
    """Closed loop over (job, backend) pairs, in-process, until the
    time budget would be overrun by another pass (at least one pass)."""
    items = load_jobs(command["jobs"])
    budget = command["budget"]
    ops = []
    t_begin = time.monotonic()
    pass_no = 0
    while True:
        t_pass = time.monotonic()
        for job, backend in items:
            rid = f"{job.fingerprint()}/{backend}/{len(ops)}"
            if recorder is not None:
                recorder.rid = rid
                root = recorder.begin("job")
            t0 = time.monotonic()
            engine, results, report = run_batch([job], backend, 1, None)
            t1 = time.monotonic()
            if recorder is not None:
                recorder.end(root)
            result = results.get(job.key)
            ops.append({
                "fingerprint": job.fingerprint(), "backend": backend,
                "pass": pass_no, "rid": rid,
                "t0": t0, "t1": t1, "result": result,
                "insts": result.stats.committed if result else 0,
                "error": None if report.ok else report.banner(),
            })
        pass_no += 1
        elapsed = time.monotonic() - t_begin
        if elapsed + (time.monotonic() - t_pass) > budget:
            break
    if recorder is not None:
        recorder.rid = None
    for op in ops:
        result = op.pop("result")
        if result is not None:
            op["digest"] = common.result_digest(result)
    return {"ops": ops}


HANDLERS = {"fresh-job": fresh_job, "figure-sweep": figure_sweep,
            "sim-core": sim_core}


def warm(mode: str) -> None:
    """sim-core's untimed warm pass: one job per backend, so lazy
    imports and first-call costs are paid before the clock runs."""
    if mode != "sim-core":
        return
    job = common.named_job(common.FIXED_WARMUP[0], "baseline")
    for backend in ("fast", "reference"):
        run_batch([job], backend, 1, None)


def main(argv: list[str]) -> int:
    mode = argv[0]
    trace = "--trace" in argv
    spool = Path(argv[argv.index("--spool") + 1]) if "--spool" in argv \
        else None
    common.ensure_src()
    t_import = time.monotonic()
    import repro.exec.engine  # noqa: F401
    import repro.fastsim.machine  # noqa: F401
    from repro.workloads.registry import all_workloads

    all_workloads()
    import_s = time.monotonic() - t_import
    warm(mode)
    recorder = None
    if trace:
        recorder = spanlib.Recorder(spool=spool)
        spanlib.install_probes(recorder)
    send({"ready": True, "import_s": import_s, "t": time.monotonic()})
    for line in sys.stdin:
        command = json.loads(line)
        if command.get("op") == "exit":
            break
        if recorder is not None:
            recorder.spans.clear()
            recorder.rid = command.get("rid")
        try:
            reply = HANDLERS[mode](command, recorder)
        except Exception as err:  # noqa: BLE001 — report, parent decides
            reply = {"error": f"{type(err).__name__}: {err}", "ops": []}
        if recorder is not None:
            reply["spans"] = list(recorder.spans)
            if spool is not None:
                reply["worker_spans"] = spanlib.read_spool(spool)
        send(reply)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
