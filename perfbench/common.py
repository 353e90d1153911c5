"""Shared plumbing for the benchmark: paths, job sets, digests, stats.

Everything here runs from the root of a checkout: the program under
test is the package in ``src/``, imported from source (it is pure
Python, so "building" it means byte-compiling it once).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = ROOT / "perfbench"
DIGESTS = BENCH_DIR / "digests.json"
#: Scratch space for caches, stores and journals; always inside the
#: checkout and removed when a run ends.
WORK = ROOT / ".perfbench_work"

#: Client threads / connections / pool workers the workloads use.
NPROC = 2

#: Programs whose warmup is a fixed instruction count (no length pass).
FIXED_WARMUP = ("go", "gcc", "perl", "xlisp", "m88ksim")
#: The figure-sweep subset: one fixed-warmup and two WARMUP_HALF programs.
SWEEP_PROGRAMS = ("go", "compress", "g721-encode")
#: The sim-core configurations (both are figure configurations).
SIM_CONFIGS = ("baseline", "packing-replay")
SCALE = 1


class SourceMissing(RuntimeError):
    """The checkout holds no program to benchmark."""


def ensure_src() -> None:
    """Put ``src/`` on the import path; fail when there is none."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceMissing(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class Processes:
    """Every subprocess a run starts, so none outlives it."""

    def __init__(self) -> None:
        self.procs: list[subprocess.Popen] = []

    def spawn(self, argv: list[str], **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), **kwargs)
        self.procs.append(proc)
        return proc

    def reap(self) -> None:
        """Kill whatever is still running and wait for all of it."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        self.procs.clear()


#: The run's process table (one benchmark run per interpreter).
PROCESSES = Processes()


def child_env() -> dict:
    """Environment for spawned interpreters: import the same source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def work_dir(tag: str) -> Path:
    """A fresh, empty scratch directory under :data:`WORK`."""
    path = WORK / f"{os.getpid()}-{tag}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def clean_work() -> None:
    for path in WORK.glob(f"{os.getpid()}-*"):
        shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass


# ----------------------------------------------------------------- jobs

def figure_jobs() -> list:
    """Every deduplicated job the paper's figures need, in registry
    order (14 programs x 12 configurations at scale 1)."""
    from repro.exec.jobs import dedupe
    from repro.experiments.registry import all_experiments

    jobs = []
    for experiment in all_experiments().values():
        jobs.extend(experiment.jobs(SCALE))
    return dedupe(jobs)


def named_job(workload: str, config: str):
    from repro.core.config import named_configs
    from repro.exec.jobs import Job

    return Job(workload, named_configs()[config], SCALE)


def rng_for(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# -------------------------------------------------------------- digests

def result_digest(result) -> str:
    """sha256 of the service's canonical bytes for a RunResult."""
    from repro.exec.serialize import result_to_dict
    from repro.service.service import canonical_result_bytes

    return hashlib.sha256(
        canonical_result_bytes(result_to_dict(result))).hexdigest()


def bytes_digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


class DigestBook:
    """Expected digests by job fingerprint; counts every check."""

    def __init__(self, path: Path = DIGESTS) -> None:
        document = json.loads(Path(path).read_text())
        self.expected: dict[str, str] = document["digests"]
        self.checked = 0
        self.mismatches: list[str] = []

    def check(self, fingerprint: str, digest: str) -> bool:
        self.checked += 1
        if self.expected.get(fingerprint) == digest:
            return True
        self.mismatches.append(fingerprint)
        print(f"digest mismatch: {fingerprint} -> {digest}",
              file=sys.stderr)
        return False


# ---------------------------------------------------------------- stats

def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, pct: int) -> float:
    """Nearest-rank percentile (an observed sample, never interpolated)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[rank - 1]


def mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0
