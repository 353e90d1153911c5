"""Spans recorded from outside the program, around its public calls.

:func:`install_probes` wraps the public functions and methods of the
layers (``workloads``, ``fastsim``, ``core``, ``exec``) so that every
call records one span: name, start, end, parent span and request id.
Nothing inside ``src/`` changes; the wrappers replace module and class
attributes, including every alias a ``from ... import`` made.  Untraced
runs install nothing.

Spans stay in memory.  A process forked from the one that installed
the probes (a pool worker) appends its spans to a spool file instead,
one JSON line per span, which the parent reads back with
:func:`read_spool`.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

class Recorder:
    """An in-memory span list with a stack for parents."""

    def __init__(self, spool: Path | None = None) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._forked = False
        self._next_id = 0
        self._spool = spool
        self.rid: str | None = None

    def begin(self, name: str, **args) -> dict:
        if os.getpid() != self._pid:
            # First span in a forked worker: drop the parent's copy.
            self.spans, self._stack = [], []
            self._pid, self._forked = os.getpid(), True
        span = {"id": self._next_id, "name": name,
                "start": time.monotonic(), "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "rid": self.rid, "pid": os.getpid()}
        if args:
            span["args"] = args
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def end(self, span: dict, **args) -> None:
        span["end"] = time.monotonic()
        if args:
            span.setdefault("args", {}).update(args)
        if self._stack and self._stack[-1] == span["id"]:
            self._stack.pop()
        if self._forked and self._spool is not None and not self._stack:
            # A forked worker: hand its finished top-level span tree to
            # the parent through the spool, then forget it.
            path = self._spool / f"spans-{os.getpid()}.jsonl"
            with open(path, "a", encoding="utf-8") as out:
                for item in self.spans:
                    out.write(json.dumps(item) + "\n")
            self.spans.clear()


def read_spool(spool: Path) -> list[dict]:
    spans = []
    for path in sorted(spool.glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


class Probes:
    """Installs span-recording wrappers that feed one recorder."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder

    def wrap_function(self, original, name: str, after=None,
                      wrapper=None) -> None:
        """Replace ``original`` everywhere ``repro.*`` modules bind it
        (with a probe, or with ``wrapper`` when one is given)."""
        wrapper = wrapper or self._wrapper(original, name, after)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def wrap_method(self, cls, method: str, name: str, after=None) -> None:
        setattr(cls, method, self._wrapper(getattr(cls, method), name, after))

    def _wrapper(self, original, name: str, after):
        recorder = self.recorder

        def probe(*args, **kwargs):
            span = recorder.begin(name)
            extra = {}
            try:
                value = original(*args, **kwargs)
                if after is not None:
                    extra = after(args, value)
                return value
            finally:
                recorder.end(span, **extra)

        probe.__wrapped__ = original
        probe.__name__ = getattr(original, "__name__", name)
        probe.__qualname__ = getattr(original, "__qualname__", name)
        return probe


def install_probes(recorder: Recorder) -> None:
    """Wrap every layer boundary the benchmark measures."""
    import repro.exec.engine  # noqa: F401  (binds the aliases first)
    import repro.fastsim.machine as fast_machine
    import repro.workloads.registry as registry
    from repro.core.machine import Machine
    from repro.exec.cache import ResultCache
    from repro.exec.serialize import result_from_dict, result_to_dict
    from repro.exec.shards import ShardedResultCache
    from repro.fastsim.replay import build_result

    probes = Probes(recorder)
    # dynamic_length memoizes per process; only a miss is a full
    # functional pass.  Without the memo every call counts as one.
    lengths = getattr(registry, "_LENGTH_CACHE", None)

    def dynamic_length(workload, scale=1, _original=registry.dynamic_length):
        missed = lengths is None or (workload.name, scale) not in lengths
        span = recorder.begin("workloads.length_pass" if missed
                              else "workloads.length_cached",
                              program=workload.name)
        try:
            return _original(workload, scale)
        finally:
            recorder.end(span)

    probes.wrap_function(registry.resolve_warmup, "workloads.resolve_warmup")
    probes.wrap_function(registry.dynamic_length, "workloads.length_pass",
                         wrapper=dynamic_length)
    probes.wrap_method(registry.Workload, "build", "workloads.build")
    probes.wrap_function(build_result, "fastsim.replay")
    probes.wrap_method(fast_machine.FastMachine, "__init__",
                       "fastsim.construct")
    probes.wrap_method(fast_machine.FastMachine, "fast_forward",
                       "fastsim.fast_forward",
                       after=lambda _a, n: {"insts": n})
    probes.wrap_method(fast_machine.FastMachine, "run", "fastsim.run",
                       after=lambda _a, r: {"insts": r.stats.committed})
    probes.wrap_method(Machine, "__init__", "core.construct")
    probes.wrap_method(Machine, "fast_forward", "core.fast_forward",
                       after=lambda _a, n: {"insts": n})
    probes.wrap_method(Machine, "run", "core.run",
                       after=lambda _a, r: {"insts": r.stats.committed})
    probes.wrap_function(result_to_dict, "exec.serialize")
    probes.wrap_function(result_from_dict, "exec.deserialize")
    for cls in (ResultCache, ShardedResultCache):
        probes.wrap_method(cls, "load", "exec.cache_load")
        probes.wrap_method(cls, "store", "exec.cache_store")


# ----------------------------------------------------------- self times

def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    covered: dict[int, float] = {}
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            covered[parent] = (covered.get(parent, 0.0)
                               + span["end"] - span["start"])
    return {span["id"]: span["end"] - span["start"]
            - covered.get(span["id"], 0.0) for span in spans}
