"""Regenerate ``digests.json``: the expected result of every job the
benchmark's workloads can draw, computed with the reference backend.

    python3 perfbench/gen_digests.py [--out PATH]

Run from the root of a checkout.  Simulated statistics are
deterministic, so a digest changes only when the model's behaviour
does; regenerate only for an intended change of the model.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, default=common.DIGESTS)
    args = parser.parse_args(argv)
    common.ensure_src()
    from repro.exec.context import RunContext
    from repro.exec.engine import RunEngine

    jobs = common.figure_jobs()
    engine = RunEngine(RunContext(backend="reference", jobs=common.NPROC,
                                  use_cache=False))
    results = engine.run_jobs(jobs)
    digests = {job.fingerprint(): common.result_digest(results[job.key])
               for job in jobs}
    document = {
        "schema": "perfbench-digests/1",
        "backend": "reference",
        "scale": common.SCALE,
        "hash": "sha256(canonical_result_bytes(result_to_dict(result)))",
        "digests": dict(sorted(digests.items())),
    }
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"{len(digests)} digests -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
