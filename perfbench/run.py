"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload fresh-job --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload sim-core --seed 1 --seconds 10 --trace 1

Run from the root of a checkout.  The seed picks the jobs and their
order; the program only ever sees the generated jobs.  Every result is
checked against ``perfbench/digests.json``; a mismatch counts as a
failed operation and the run exits 1.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` measures the workload once untraced and once with spans
recorded around the public calls of each layer, and prints the
per-layer metrics (plus the tracing overhead).  Either way the last
stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the
full result document, with provenance, sample counts and (traced) the
spans and self times, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("fresh-job", "figure-sweep", "sim-core", "service-mix")
OUT = common.ROOT / ".perfbench_out"
#: A run must end well inside the 180 s a caller waits for it.
WATCHDOG_S = 170


class Watchdog(Exception):
    pass


def runners():
    """workload -> (plan builder, runner); imported after src/ is found."""
    import harness as h
    import service_mix as s

    return {"fresh-job": (h.fresh_job_plan, h.fresh_job),
            "figure-sweep": (h.figure_sweep_plan, h.figure_sweep),
            "sim-core": (h.sim_core_plan, h.sim_core),
            "service-mix": (s.plan, s.service_mix)}


def end_to_end(m, rss_mb: float) -> tuple[dict, dict]:
    """(metric values, sample counts) of one untraced measurement."""
    lat = m.latencies
    values = {
        "setup_s": common.median(m.setup),
        "op_mean_s": common.mean(lat),
        "op_p50_s": common.median(lat),
        "op_p90_s": common.percentile(lat, 90),
        "peak_rss_mb": rss_mb,
    }
    samples = {"setup_s": len(m.setup), "peak_rss_mb": 1}
    for name in ("op_mean_s", "op_p50_s", "op_p90_s"):
        samples[name] = len(lat)
    return values, samples


def provenance(args) -> dict:
    from repro.core.config import BASELINE

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "smoke": args.smoke,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "numpy": numpy_version, "machine": platform.machine(),
                 "system": platform.system()},
        "baseline_fingerprint": BASELINE.fingerprint(),
    }


def git_commit() -> str | None:
    """HEAD's commit id read from ``.git`` (None outside a repository)."""
    git = common.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload with one seed.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal size, for the benchmark's self-test")
    parser.add_argument("--digests", type=Path, default=common.DIGESTS,
                        help="expected-digest file (default: the "
                             "committed one)")
    return parser.parse_args(argv)


def measure(args, spec: dict, log) -> tuple[dict, dict]:
    """Run the workload; returns the result document and trace."""
    plan_fn, runner = runners()[args.workload]
    book = common.DigestBook(args.digests)
    plan = plan_fn(args.seed, args.smoke)
    kwargs = {"seed": args.seed} if args.workload == "service-mix" else {}
    untraced = runner(plan, args.seconds, False, book, log, **kwargs)
    runs = [untraced]
    trace = {}
    if args.trace:
        traced = runner(plan, args.seconds, True, book, log, **kwargs)
        runs.append(traced)
        trace = traced.trace
    attempted = sum(m.attempted for m in runs)
    failed = sum(m.failed for m in runs)
    values, samples = end_to_end(untraced, common.peak_rss_mb())
    if args.trace:
        # The percentiles of the untraced pass: over a dozen unlike
        # jobs they are too unsteady to be end-to-end metrics.
        layer = dict(traced.layer, op_p50_s=values["op_p50_s"],
                     op_p90_s=values["op_p90_s"])
        failed += int(layer.get("accounting.violations", 0))
        base = common.mean(untraced.latencies)
        layer["failed_frac"] = failed / attempted if attempted else 1.0
        layer["trace.overhead_frac"] = (
            common.mean(traced.latencies) / base - 1 if base else 0.0)
        wanted = spec["per_layer"]
        values = {m["name"]: float(layer.get(m["name"], 0.0))
                  for m in wanted}
    else:
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    document = {
        "provenance": provenance(args),
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "digests_checked": book.checked,
        "digest_mismatches": book.mismatches,
        "samples": samples,
        "metrics": metrics,
    }
    return document, trace


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        common.ensure_src()
    except common.SourceMissing as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    # Byte-compile once so no run pays compilation inside a timing.
    compileall.compile_dir(str(common.SRC), quiet=1)

    def expire(_signum, _frame):
        raise Watchdog(f"run exceeded {WATCHDOG_S}s")

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(WATCHDOG_S)
    log_dir = common.work_dir("log")
    log_path = log_dir / "children.log"
    try:
        with open(log_path, "w", encoding="utf-8") as log:
            document, trace = measure(args, spec, log)
    except (Watchdog, RuntimeError, OSError) as err:
        print(f"perfbench: {type(err).__name__}: {err}", file=sys.stderr)
        tail = log_path.read_text(errors="replace")[-4000:] \
            if log_path.exists() else ""
        if tail:
            print(tail, file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        common.PROCESSES.reap()
        common.clean_work()

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = OUT / f"{stem}.json"
    out.write_text(json.dumps({**document, "trace": trace}) + "\n")
    for name, metric in document["metrics"].items():
        count = document["samples"].get(name)
        note = f"  (n={count})" if count is not None else ""
        print(f"{name:40s} {metric['value']:14.6g} {metric['unit']}{note}")
    print(f"document: {out.relative_to(common.ROOT)}")
    print(json.dumps({"provenance": document["provenance"],
                      "samples": document["samples"]}))
    print(json.dumps({key: document[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
