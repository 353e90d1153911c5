"""Metrics registry tests: metric semantics, snapshot/merge
determinism, and the real cross-process contract — pool workers ship
snapshot deltas in their job payloads and the parent engine's merged
registry is independent of worker scheduling.
"""

from __future__ import annotations

import pytest

from repro.core.config import BASELINE
from repro.exec.context import RunContext
from repro.exec.engine import RunEngine, clear_memo
from repro.exec.jobs import Job
from repro.exec.shards import ShardedResultCache
from repro.perf.metrics import (
    SCHEMA,
    TIME_BUCKETS,
    MetricsRegistry,
    get_registry,
    reset_registry,
)


@pytest.fixture(autouse=True)
def _fresh_registry():
    reset_registry()
    clear_memo()
    yield
    reset_registry()
    clear_memo()


class TestMetricSemantics:
    def test_counter_only_goes_up(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_same_name_returns_same_metric(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_histogram_buckets_value_on_boundary_grid(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", boundaries=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            hist.observe(value)
        # 4 buckets: <=1, <=2, <=4, +inf overflow.
        assert hist.counts == [1, 1, 1, 1]
        assert hist.count == 4
        assert hist.sum == pytest.approx(105.0)

    def test_histogram_redeclared_with_other_boundaries_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", boundaries=(1.0, 2.0))
        with pytest.raises(ValueError, match="different boundaries"):
            registry.histogram("h", boundaries=(1.0, 3.0))

    def test_unsorted_boundaries_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", boundaries=(2.0, 1.0))

    def test_default_time_buckets_are_sorted_and_fixed(self):
        assert list(TIME_BUCKETS) == sorted(TIME_BUCKETS)
        assert TIME_BUCKETS[0] == 0.001


class TestSnapshotMerge:
    def make(self, counter: int, gauge: float,
             observations: tuple[float, ...]) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("jobs").inc(counter)
        registry.gauge("peak").set(gauge)
        for value in observations:
            registry.histogram("wall", boundaries=(1.0, 10.0)).observe(value)
        return registry

    def test_snapshot_is_json_safe_and_schema_tagged(self):
        snapshot = self.make(2, 1.5, (0.5,)).snapshot()
        import json
        json.dumps(snapshot)
        assert snapshot["schema"] == SCHEMA
        assert snapshot["counters"] == {"jobs": 2}

    def test_merge_is_order_independent(self):
        """The process-safety contract: merged totals do not depend on
        which worker's snapshot lands first."""
        a = self.make(2, 1.5, (0.5, 20.0)).snapshot()
        b = self.make(3, 7.0, (5.0,)).snapshot()
        ab, ba = MetricsRegistry(), MetricsRegistry()
        ab.merge(a), ab.merge(b)
        ba.merge(b), ba.merge(a)
        assert ab.snapshot() == ba.snapshot()
        merged = ab.snapshot()
        assert merged["counters"]["jobs"] == 5
        assert merged["gauges"]["peak"] == 7.0          # max, not last
        assert merged["histograms"]["wall"]["counts"] == [1, 1, 1]
        assert merged["histograms"]["wall"]["count"] == 3

    def test_merge_rejects_mismatched_boundaries(self):
        registry = MetricsRegistry()
        registry.histogram("wall", boundaries=(1.0, 2.0))
        foreign = MetricsRegistry()
        foreign.histogram("wall", boundaries=(5.0,)).observe(1.0)
        with pytest.raises(ValueError):
            registry.merge(foreign.snapshot())

    def test_merge_none_is_a_noop(self):
        registry = MetricsRegistry()
        registry.merge(None)
        registry.merge({})
        assert registry.snapshot()["counters"] == {}

    def test_write_includes_extra_keys(self, tmp_path):
        registry = self.make(1, 0.0, ())
        path = registry.write(tmp_path / "m.json", extra={"run": "x"})
        import json
        doc = json.loads(path.read_text())
        assert doc["run"] == "x"
        assert doc["counters"]["jobs"] == 1


class TestEngineIntegration:
    def jobs(self) -> list[Job]:
        return [Job(workload="g721-encode", config=BASELINE, scale=1),
                Job(workload="compress", config=BASELINE, scale=1)]

    def test_pool_worker_snapshots_merge_into_parent(self, tmp_path):
        """The satellite contract: with jobs=2 every simulation runs in
        a separate pool process, and the parent registry still ends up
        with the whole suite's counts."""
        engine = RunEngine(RunContext(cache_dir=tmp_path / "c", jobs=2,
                                      timeout=300))
        _, report = engine.run_jobs_report(self.jobs())
        assert report.ok
        counters = get_registry().snapshot()["counters"]
        assert counters["sim.runs"] == 2
        assert counters["engine.fresh_runs"] == 2
        assert counters["engine.cache_stores"] == 2
        histograms = get_registry().snapshot()["histograms"]
        assert histograms["sim.run_seconds"]["count"] == 2
        for name in ("sim.warmup_seconds", "sim.resolve_warmup_seconds",
                     "sim.construct_seconds", "sim.fast_forward_seconds"):
            assert histograms[name]["count"] == 2, name

    def test_engine_stats_mirror_into_counters(self, tmp_path):
        ctx = RunContext(cache_dir=tmp_path / "c", jobs=1)
        engine = RunEngine(ctx)
        engine.run_jobs(self.jobs())
        clear_memo()
        warm = RunEngine(ctx)
        warm.run_jobs(self.jobs())
        counters = get_registry().snapshot()["counters"]
        assert counters["engine.cache_hits"] == warm.stats.cache_hits == 2
        assert counters["engine.fresh_runs"] == 2   # cold run only

    def test_cached_entries_carry_no_timing_or_metrics(self, tmp_path):
        """Cache byte-determinism: worker timing/metrics are execution
        metadata and must never be stored."""
        import json
        ctx = RunContext(cache_dir=tmp_path / "c", jobs=1)
        RunEngine(ctx).run_jobs(self.jobs()[:1])
        (entry,) = ShardedResultCache(tmp_path / "c").entries()
        stored = json.loads(entry.read_text())
        assert "timing" not in stored
        assert "metrics" not in stored
        payload_keys = set(stored)
        assert "result" in payload_keys
