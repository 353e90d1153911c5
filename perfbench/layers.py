"""Per-layer metrics from the spans of a traced run.

A layer's time is the inclusive duration of its public call, averaged
over the calls made (``fastsim.loop_s`` is ``FastMachine.run``'s self
time: the run minus the phase-2 replay).  Self times feed the
accounting check: on fresh-job and sim-core the spans of each job must
cover its measured wall time to within :data:`TOLERANCE_FRAC` of it
plus :data:`TOLERANCE_S`; what they do not cover is reported as
``unattributed_s`` and a job outside the tolerance counts as failed.
"""

from __future__ import annotations

import sys
from collections import defaultdict

import common
from spans import self_times

TOLERANCE_FRAC = 0.05
TOLERANCE_S = 0.010

#: span name -> per-layer metric reporting its mean inclusive seconds
MEAN_SECONDS = {
    "workloads.resolve_warmup": "workloads.resolve_warmup_s",
    "workloads.build": "workloads.build_s",
    "fastsim.construct": "fastsim.construct_s",
    "fastsim.fast_forward": "fastsim.fast_forward_s",
    "fastsim.replay": "fastsim.replay_s",
    "core.construct": "core.construct_s",
    "core.fast_forward": "core.fast_forward_s",
    "core.run": "core.run_s",
    "exec.serialize": "exec.serialize_s",
    "exec.deserialize": "exec.deserialize_s",
    "exec.cache_store": "exec.cache_store_s",
    "exec.cache_load": "exec.cache_load_s",
}


class Tally:
    """Inclusive and self durations and instruction counts by name."""

    def __init__(self) -> None:
        self.incl: dict[str, list[float]] = defaultdict(list)
        self.self: dict[str, list[float]] = defaultdict(list)
        self.insts: dict[str, int] = defaultdict(int)
        self.pass_programs: list[str] = []

    def add(self, spans: list[dict]) -> None:
        own = self_times(spans)
        for span in spans:
            name = span["name"]
            self.incl[name].append(span["end"] - span["start"])
            self.self[name].append(own[span["id"]])
            args = span.get("args") or {}
            self.insts[name] += int(args.get("insts", 0))
            if name == "workloads.length_pass":
                self.pass_programs.append(args.get("program", "?"))

    def metrics(self) -> dict[str, float]:
        out = {metric: common.mean(self.incl.get(name, []))
               for name, metric in MEAN_SECONDS.items()}
        loop = sum(self.self.get("fastsim.run", []))
        ff = self.incl.get("fastsim.fast_forward", [])
        passes = len(self.pass_programs)
        core_run = sum(self.incl.get("core.run", []))
        out.update({
            "workloads.length_passes": passes,
            "workloads.length_passes_per_program": (
                passes / len(set(self.pass_programs)) if passes else 0.0),
            "fastsim.fast_forward_insts": (
                self.insts["fastsim.fast_forward"] / len(ff) if ff else 0.0),
            "fastsim.loop_s": common.mean(self.self.get("fastsim.run", [])),
            "fastsim.loop_kips": (self.insts["fastsim.run"] / loop / 1000
                                  if loop else 0.0),
            "core.run_kips": (self.insts["core.run"] / core_run / 1000
                              if core_run else 0.0),
        })
        return out


def within(spans: list[dict], start: float, end: float) -> list[dict]:
    """The spans recorded inside one operation's window, re-parented so
    a span whose parent fell outside becomes a root."""
    kept = [s for s in spans if s["start"] >= start and s["end"] <= end]
    ids = {s["id"] for s in kept}
    return [dict(s, parent=s["parent"] if s["parent"] in ids else None)
            for s in kept]


def account(wall: float, spans: list[dict], label: str) -> tuple[float, bool]:
    """(unattributed seconds, within tolerance) for one job."""
    covered = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    rest = wall - covered
    ok = abs(rest) <= TOLERANCE_FRAC * wall + TOLERANCE_S
    if not ok:
        print(f"accounting: {label}: spans cover {covered:.4f}s of "
              f"{wall:.4f}s", file=sys.stderr)
    return rest, ok


def self_table(spans: list[dict]) -> dict[str, float]:
    own = self_times(spans)
    table: dict[str, float] = defaultdict(float)
    for span in spans:
        table[span["name"]] += own[span["id"]]
    return dict(table)


# ------------------------------------------------------------ workloads

def fresh_job_layers(jobs_done: list[dict]) -> tuple[dict, dict]:
    from repro.workloads.registry import WARMUP_HALF, get_workload

    tally = Tally()
    trace = []
    rests, violations = [], 0
    half_warm = half_wall = 0.0
    insts = wall_sum = 0.0
    # warmup class -> top-level layer -> seconds, plus the class's wall
    shares: dict[str, dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    for item in jobs_done:
        spans = within(item["spans"] or [], item["t0"],
                       item["t0"] + item["wall"])
        tally.add(spans)
        rest, ok = account(item["wall"], spans, item["job"].fingerprint())
        rests.append(rest)
        violations += not ok
        table = self_table(spans)
        half = get_workload(item["job"].workload).warmup == WARMUP_HALF
        share = shares["warmup_half" if half else "fixed_warmup"]
        share["wall"] += item["wall"]
        share["unattributed"] += rest
        for span in spans:
            if span["parent"] is None:
                share[span["name"]] += span["end"] - span["start"]
        if half:
            half_warm += sum(s["end"] - s["start"] for s in spans
                             if s["name"] in ("workloads.resolve_warmup",
                                              "fastsim.fast_forward"))
            half_wall += item["wall"]
        insts += item["op"].get("insts", 0)
        wall_sum += item["wall"]
        trace.append({"rid": item["job"].fingerprint(),
                      "wall_s": item["wall"], "unattributed_s": rest,
                      "self_s": table, "spans": spans})
    metrics = tally.metrics()
    metrics.update({
        "setup.import_s": common.mean([j["import_s"] for j in jobs_done]),
        "unattributed_s": common.mean(rests),
        "accounting.violations": violations,
        "layers.warmup_share_half": (half_warm / half_wall
                                     if half_wall else 0.0),
        "exec.fresh_runs": sum(j["op"].get("fresh", 0) for j in jobs_done),
        "exec.retries": sum(j["op"].get("retries", 0) for j in jobs_done),
        "sim.kips_fast": insts / wall_sum / 1000 if wall_sum else 0.0,
    })
    # Share of each class's wall time per top-level layer: the
    # resolve_warmup + fast_forward wall of WARMUP_HALF programs shows.
    table = {cls: {name: value / seconds["wall"]
                   for name, value in sorted(seconds.items())
                   if name != "wall"}
             for cls, seconds in shares.items()}
    return metrics, {"shares": table, "jobs": trace}


def figure_sweep_layers(replies: list[tuple[float, str, dict]]
                        ) -> tuple[dict, dict]:
    """Layers of (handoff time, program, reply) per batch; counts are
    per round, one batch of each program."""
    tally = Tally()
    trace = []
    waits, busy, walls = [], 0.0, 0.0
    insts = fresh = retries = 0
    # length passes of each batch that made any (one program a batch)
    pass_counts = []
    for t0, _program, reply in replies:
        batch = (within(reply.get("spans") or [], t0, reply["t_end"])
                 + reply.get("worker_spans", []))
        # ids are per process: give worker spans distinct ids
        relabel = _relabel_by_pid(batch)
        tally.add(relabel)
        passes = sum(1 for s in relabel
                     if s["name"] == "workloads.length_pass")
        if passes:
            pass_counts.append(passes)
        wall = reply["t_end"] - t0
        walls += wall
        for span in reply.get("engine_spans", []):
            if span["name"] == "queue.wait":
                waits.append(span["dur"])
            elif span["name"] == "execute":
                busy += span["dur"]
        insts += sum(op.get("insts", 0) for op in reply["ops"])
        fresh += reply.get("fresh", 0)
        retries += reply.get("retries", 0)
        trace.append({"wall_s": wall, "self_s": self_table(relabel),
                      "engine_spans": reply.get("engine_spans", []),
                      "spans": relabel})
    metrics = tally.metrics()
    rounds = len(replies) / len({program for _t0, program, _r in replies})
    metrics.update({
        "workloads.length_passes":
            metrics["workloads.length_passes"] / rounds,
        "workloads.length_passes_per_program": common.mean(pass_counts),
        "exec.queue_wait_s": common.mean(waits),
        "exec.pool_busy_frac": busy / (common.NPROC * walls),
        "exec.fresh_runs": fresh / rounds,
        "exec.retries": retries,
        "sim.kips_fast": insts / walls / 1000,
    })
    return metrics, {"batches": trace}


def _relabel_by_pid(spans: list[dict]) -> list[dict]:
    """Make span ids unique across the processes that recorded them."""
    out = []
    index: dict[tuple[int, int], int] = {}
    for span in spans:
        index[(span["pid"], span["id"])] = len(index)
    for span in spans:
        parent = span["parent"]
        out.append(dict(span, id=index[(span["pid"], span["id"])],
                        parent=(index.get((span["pid"], parent))
                                if parent is not None else None)))
    return out


def sim_core_layers(ops: list[dict], spans: list[dict]) -> tuple[dict, dict]:
    tally = Tally()
    trace = []
    by_rid: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        by_rid[span["rid"]].append(span)
    rests, violations = [], 0
    for op in ops:
        job_spans = by_rid.get(op["rid"], [])
        roots = {s["id"] for s in job_spans if s["name"] == "job"}
        inner = [dict(s, parent=None if s["parent"] in roots
                      else s["parent"])
                 for s in job_spans if s["name"] != "job"]
        tally.add(inner)
        wall = op["t1"] - op["t0"]
        rest, ok = account(wall, inner,
                           f"{op['fingerprint']}/{op['backend']}")
        rests.append(rest)
        violations += not ok
        trace.append({"rid": f"{op['fingerprint']}/{op['backend']}",
                      "wall_s": wall, "unattributed_s": rest,
                      "self_s": self_table(inner), "spans": inner})
    fast = [op for op in ops if op["backend"] == "fast"]
    ref = [op for op in ops if op["backend"] == "reference"]
    fast_wall = sum(op["t1"] - op["t0"] for op in fast)
    ref_wall = sum(op["t1"] - op["t0"] for op in ref)
    # ratios of means: fast jobs run more often than reference ones
    fast_run = common.mean(tally.incl.get("fastsim.run", []))
    ref_run = common.mean(tally.incl.get("core.run", []))
    metrics = tally.metrics()
    metrics.update({
        "unattributed_s": common.mean(rests),
        "accounting.violations": violations,
        "fastsim.speedup_run": ref_run / fast_run if fast_run else 0.0,
        "fastsim.speedup_job": (ref_wall / len(ref)) / (fast_wall / len(fast))
        if fast and ref else 0.0,
        "sim.kips_fast": (sum(op["insts"] for op in fast) / fast_wall / 1000
                          if fast_wall else 0.0),
        "sim.kips_ref": (sum(op["insts"] for op in ref) / ref_wall / 1000
                         if ref_wall else 0.0),
    })
    return metrics, {"jobs": trace}
