"""The benchmark's own tests.

    python3 perfbench/selftest.py

1. Smoke: every workload at minimal size (``--smoke``), untraced and
   traced.  Each run must exit 0 and its last line must carry exactly
   ``correct``, ``attempted``, ``failed`` and ``metrics``, with every
   metric ``BENCHMARK.json`` names for that mode and its unit.
2. Wrong digest: the sim-core smoke run against a digest file in which
   one expected digest is altered must count that job as failed, report
   ``correct: false`` and exit nonzero -- proof that the check catches
   a wrong result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

RUN = [sys.executable, str(common.BENCH_DIR / "run.py")]
SMOKE_SECONDS = "2"


def run(workload: str, trace: int, *extra: str):
    argv = RUN + ["--workload", workload, "--seed", "1",
                  "--seconds", SMOKE_SECONDS, "--trace", str(trace),
                  "--smoke", *extra]
    proc = subprocess.run(argv, cwd=common.ROOT, capture_output=True,
                          text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


def check_smoke(spec: dict) -> list[str]:
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc, result = run(workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0 or result is None:
                problems.append(f"{label}: exit {proc.returncode}\n"
                                f"{proc.stderr[-2000:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: not correct")
            for metric in spec[section]:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"] \
                        or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{label}: {metric['name']} missing "
                                    f"or wrong unit ({got})")
            extra = set(result["metrics"]) - {m["name"]
                                              for m in spec[section]}
            if extra:
                problems.append(f"{label}: unlisted metrics {sorted(extra)}")
            print(f"ok   {label}", flush=True)
    return problems


def check_wrong_digest() -> list[str]:
    common.ensure_src()
    book = json.loads(common.DIGESTS.read_text())
    victim = common.named_job(common.FIXED_WARMUP[0], "baseline")
    fingerprint = victim.fingerprint()
    book["digests"][fingerprint] = "0" * 64
    scratch = common.work_dir("selftest")
    try:
        wrong = scratch / "digests.json"
        wrong.write_text(json.dumps(book))
        proc, result = run("sim-core", 0, "--digests", str(wrong))
    finally:
        common.clean_work()
    if proc.returncode == 0 or result is None or result["correct"] \
            or result["failed"] < 1 or fingerprint not in proc.stderr:
        return [f"wrong digest not caught: exit {proc.returncode}, "
                f"result {result}"]
    print(f"ok   wrong digest for {fingerprint} counted as "
          f"{result['failed']} failed of {result['attempted']}")
    return []


def main() -> int:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    problems = check_smoke(spec) + check_wrong_digest()
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
