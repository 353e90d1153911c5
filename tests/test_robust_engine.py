"""Tests for the fault-tolerant run engine.

Each scenario from the issue gets a test: a worker that raises, a
worker that hangs past the timeout, a pool that dies mid-suite, and a
cache directory with garbage/truncated JSON — asserting in every case
that the surviving jobs' counters are bit-exact against a clean run.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import BASELINE
from repro.exec import (
    GLOBAL_STATS,
    Job,
    RunContext,
    RunEngine,
    ShardedResultCache,
    clear_memo,
)
from repro.robust.report import FAILED, OK, TIMED_OUT, RunReport, SuiteFailure
from repro.robust.retry import RetryPolicy, jitter_fraction

JOB_A = Job("g721-encode", BASELINE, 1)
JOB_B = Job("gsm-decode", BASELINE, 1)


def counters(result) -> tuple:
    return (result.stats.as_dict(), result.widths.as_dict())


@pytest.fixture()
def clean_slate():
    clear_memo()
    yield
    clear_memo()


@pytest.fixture(scope="module")
def clean_results():
    """Reference counters from an undisturbed serial run."""
    clear_memo()
    results = RunEngine(RunContext(use_cache=False)).run_jobs(
        [JOB_A, JOB_B])
    clear_memo()
    return {key: counters(result) for key, result in results.items()}


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(retries=3, backoff=0.1, backoff_cap=1.0)
        delays = [policy.delay("job-x", n) for n in (1, 2, 3)]
        assert delays == [policy.delay("job-x", n) for n in (1, 2, 3)]
        assert all(0 < d <= 1.0 for d in delays)
        # different jobs de-synchronize
        assert policy.delay("job-x", 1) != policy.delay("job-y", 1)

    def test_jitter_is_a_pure_function(self):
        assert jitter_fraction("k", 1) == jitter_fraction("k", 1)
        assert 0.0 <= jitter_fraction("k", 1) < 1.0
        assert jitter_fraction("k", 1) != jitter_fraction("k", 2)

    def test_invalid_policies_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=-0.1)


class TestRaisingWorker:
    def test_transient_crash_retries_to_success(self, tmp_path,
                                                clean_slate,
                                                clean_results):
        sentinel = tmp_path / "crash.once"
        ctx = RunContext(use_cache=False, jobs=2, retries=2, backoff=0.01,
                         faults={JOB_A.workload: f"crash:{sentinel}"})
        engine = RunEngine(ctx)
        results, report = engine.run_jobs_report([JOB_A, JOB_B])
        assert report.ok
        outcome = report.outcome_of(JOB_A)
        assert outcome.retried and outcome.attempts == 2
        assert engine.stats.job_retries == 1
        for key, result in results.items():
            assert counters(result) == clean_results[key]

    def test_persistent_crash_fails_job_but_survivors_complete(
            self, clean_slate, clean_results):
        ctx = RunContext(use_cache=False, jobs=2, retries=1, backoff=0.01,
                         faults={JOB_A.workload: "crash"})
        engine = RunEngine(ctx)
        results, report = engine.run_jobs_report([JOB_A, JOB_B])
        assert not report.ok
        outcome = report.outcome_of(JOB_A)
        assert outcome.status == FAILED
        assert outcome.attempts == 2      # first try + one retry
        assert "InjectedWorkerError" in outcome.error
        assert engine.stats.jobs_failed == 1
        # the survivor is present and bit-exact
        assert counters(results[JOB_B.key]) == clean_results[JOB_B.key]
        assert JOB_A.key not in results

    def test_run_jobs_raises_typed_suite_failure(self, clean_slate):
        ctx = RunContext(use_cache=False, jobs=2, retries=0,
                         faults={JOB_A.workload: "crash"})
        with pytest.raises(SuiteFailure) as excinfo:
            RunEngine(ctx).run_jobs([JOB_A, JOB_B])
        report = excinfo.value.report
        assert [o.job.key for o in report.failed] == [JOB_A.key]
        assert JOB_A.workload in str(excinfo.value)

    def test_failed_job_is_remembered_not_resimulated(self, clean_slate):
        ctx = RunContext(use_cache=False, jobs=2, retries=0,
                         faults={JOB_A.workload: "crash"})
        RunEngine(ctx).run_jobs_report([JOB_A])
        fresh_before = GLOBAL_STATS.fresh_runs
        # a render-phase re-request must not re-simulate (or crash)
        _, report = RunEngine(RunContext(use_cache=False)).run_jobs_report(
            [JOB_A])
        assert GLOBAL_STATS.fresh_runs == fresh_before
        outcome = report.outcome_of(JOB_A)
        assert not outcome.ok and outcome.attempts == 0
        assert "failed earlier this process" in outcome.error


class TestHungWorker:
    def test_hang_times_out_and_survivor_completes(self, tmp_path,
                                                   clean_slate,
                                                   clean_results):
        ctx = RunContext(use_cache=False, jobs=2, retries=0, timeout=15.0,
                         faults={JOB_A.workload: "hang"})
        engine = RunEngine(ctx)
        results, report = engine.run_jobs_report([JOB_A, JOB_B])
        assert not report.ok
        outcome = report.outcome_of(JOB_A)
        assert outcome.status == TIMED_OUT
        assert "15.0s" in outcome.error
        assert engine.stats.jobs_timed_out == 1
        assert counters(results[JOB_B.key]) == clean_results[JOB_B.key]

    def test_transient_hang_recovers_on_retry(self, tmp_path,
                                              clean_slate,
                                              clean_results):
        sentinel = tmp_path / "hang.once"
        ctx = RunContext(use_cache=False, jobs=2, retries=1, timeout=15.0,
                         backoff=0.01,
                         faults={JOB_A.workload: f"hang:{sentinel}"})
        results, report = RunEngine(ctx).run_jobs_report([JOB_A, JOB_B])
        assert report.ok
        assert report.outcome_of(JOB_A).retried
        for key, result in results.items():
            assert counters(result) == clean_results[key]


class TestDeadPool:
    def test_pool_death_requeues_and_recovers(self, tmp_path, clean_slate,
                                              clean_results):
        # One worker calls os._exit mid-suite: BrokenProcessPool breaks
        # every pending future.  The engine must rebuild, requeue, and
        # still produce every result bit-exact.
        sentinel = tmp_path / "die.once"
        ctx = RunContext(use_cache=False, jobs=2, retries=2, backoff=0.01,
                         faults={JOB_A.workload: f"die:{sentinel}"})
        engine = RunEngine(ctx)
        results, report = engine.run_jobs_report([JOB_A, JOB_B])
        assert report.ok
        assert set(results) == {JOB_A.key, JOB_B.key}
        for key, result in results.items():
            assert counters(result) == clean_results[key]

    def test_reliably_dying_job_exhausts_only_itself(self, clean_slate,
                                                     clean_results):
        ctx = RunContext(use_cache=False, jobs=2, retries=1, backoff=0.01,
                         faults={JOB_A.workload: "die"})
        engine = RunEngine(ctx)
        results, report = engine.run_jobs_report([JOB_A, JOB_B])
        assert not report.ok
        assert not report.outcome_of(JOB_A).ok
        # the innocent pool-mate was never charged and completed
        outcome_b = report.outcome_of(JOB_B)
        assert outcome_b.ok
        assert counters(results[JOB_B.key]) == clean_results[JOB_B.key]


class TestCorruptCache:
    def _seed_cache(self, tmp_path):
        ctx = RunContext(cache_dir=tmp_path, jobs=1)
        RunEngine(ctx).run_jobs([JOB_A])
        clear_memo()
        cache = ShardedResultCache(tmp_path)
        [path] = cache.entries()
        return ctx, cache, path

    def test_garbage_json_is_quarantined_with_reason(self, tmp_path,
                                                     clean_slate,
                                                     clean_results):
        ctx, cache, path = self._seed_cache(tmp_path)
        path.write_text("garbage{", encoding="utf-8")
        engine = RunEngine(ctx)
        results, report = engine.run_jobs_report([JOB_A])
        assert report.ok
        assert counters(results[JOB_A.key]) == clean_results[JOB_A.key]
        assert engine.stats.cache_quarantined == 1
        [bad] = cache.quarantined()
        assert bad.name == path.name
        reason = json.loads(
            (bad.parent / f"{bad.name}.reason.json").read_text())
        assert reason["reason"] == "entry is not valid JSON"
        # the entry was re-stored and now round-trips
        assert cache.load(JOB_A) is not None

    def test_truncated_entry_is_quarantined(self, tmp_path, clean_slate,
                                            clean_results):
        ctx, cache, path = self._seed_cache(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        engine = RunEngine(ctx)
        results, _ = engine.run_jobs_report([JOB_A])
        assert counters(results[JOB_A.key]) == clean_results[JOB_A.key]
        assert engine.stats.cache_quarantined == 1

    def test_bitflip_inside_counters_is_caught_by_integrity(
            self, tmp_path, clean_slate, clean_results):
        # A flipped bit inside a JSON digit still parses: only the
        # integrity digest can catch it.
        ctx, cache, path = self._seed_cache(tmp_path)
        entry = json.loads(path.read_text())
        entry["result"]["stats"]["committed"] += 1
        path.write_text(json.dumps(entry, sort_keys=True))
        engine = RunEngine(ctx)
        results, _ = engine.run_jobs_report([JOB_A])
        assert engine.stats.cache_quarantined == 1
        assert counters(results[JOB_A.key]) == clean_results[JOB_A.key]

    def test_stale_schema_is_a_plain_miss_not_quarantine(self, tmp_path,
                                                         clean_slate):
        ctx, cache, path = self._seed_cache(tmp_path)
        entry = json.loads(path.read_text())
        entry["schema"] = "repro-exec/1"
        path.write_text(json.dumps(entry, sort_keys=True))
        engine = RunEngine(ctx)
        engine.run_jobs_report([JOB_A])
        assert engine.stats.cache_quarantined == 0
        assert cache.quarantined() == []


class TestRunReport:
    def test_banner_and_summary_table(self):
        from repro.robust.report import JobOutcome
        report = RunReport()
        report.add(JobOutcome(JOB_A, status=OK, attempts=1))
        assert report.banner() is None
        report.add(JobOutcome(JOB_B, status=FAILED, attempts=3,
                              error="RuntimeError: boom"))
        banner = report.banner()
        assert "1 job(s) failed" in banner
        table = report.summary_table()
        assert JOB_B.workload in table and "boom" in table
        assert report.counts() == {"jobs": 2, "succeeded": 1,
                                   "retried": 0, "timed_out": 0,
                                   "failed": 1}


class TestRunnerDegradation:
    def test_runner_exits_nonzero_with_summary(self, capsys, monkeypatch,
                                               clean_slate):
        from repro.experiments import fig1_cumulative_widths as fig1
        from repro.experiments.runner import main
        monkeypatch.setattr(fig1, "spec_names",
                            lambda: (JOB_A.workload,))
        code = main(["fig1", "--no-cache", "--jobs", "2",
                     "--retries", "0",
                     "--inject-fault", f"{JOB_A.workload}=crash"])
        captured = capsys.readouterr()
        assert code == 1
        # Degradation is progress/diagnostics: all of it on stderr,
        # stdout reserved for rendered tables and figures.
        assert "job(s) failed after retries" in captured.err
        assert "NOT rendered" in captured.err
        assert JOB_A.workload in captured.err    # failure summary table

    def test_runner_rejects_bad_fault_spec(self, capsys):
        from repro.experiments.runner import main
        with pytest.raises(SystemExit):
            main(["fig1", "--inject-fault", "nonsense"])
        assert "WORKLOAD=TOKEN" in capsys.readouterr().err
