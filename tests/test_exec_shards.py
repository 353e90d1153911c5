"""Tests for the sharded content-addressed store and the shared
engine CLI flags.

The CAS contract: every engine with a cache directory stores into
fingerprint-hashed shards, the root is self-describing via its layout
marker (written atomically), corruption quarantines per shard,
fingerprint-only lookups scan exactly one shard, and entries an older
single-directory cache left at the root are plain misses.  The flag
contract: every repro CLI carries the same engine knob group and
derives the same typed RunContext from it.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

from repro.core.config import BASELINE, named_configs
from repro.exec import (
    CAS_SCHEMA,
    CasLayoutError,
    Job,
    RunContext,
    RunEngine,
    ShardedResultCache,
    add_engine_arguments,
    clear_memo,
    context_from_args,
    validate_engine_args,
)
from repro.exec.shards import MARKER, WIDTH, shard_key
from repro.service.client import index_local_cache

GO = Job("go", BASELINE, 1)


def run_into(directory):
    clear_memo()
    return RunEngine(RunContext(cache_dir=directory)).run(GO)


class TestShardKey:
    def test_deterministic(self):
        assert shard_key("go-x1-abc") == shard_key("go-x1-abc")

    def test_width(self):
        assert len(shard_key("x")) == WIDTH == 2

    def test_hashed_not_prefix(self):
        # Raw fingerprints share the workload-name prefix; hashing
        # spreads them (same workload, different configs -> usually
        # different shards, never guaranteed-same).
        keys = {shard_key(f"go-x1-{c.fingerprint()}")
                for c in named_configs().values()}
        assert len(keys) > 1


class TestShardedLayout:
    def test_store_lands_in_shard_with_marker(self, tmp_path):
        run_into(tmp_path / "cas")
        marker = json.loads((tmp_path / "cas" / MARKER).read_text())
        assert marker["schema"] == CAS_SCHEMA
        assert marker["shard_width"] == 2
        cache = ShardedResultCache(tmp_path / "cas")
        entries = cache.entries()
        assert len(entries) == 1
        # The entry sits in the shard its fingerprint hashes to.
        assert entries[0].parent.name == shard_key(GO.fingerprint())

    def test_warm_hit_through_engine(self, tmp_path):
        first = run_into(tmp_path / "cas")
        clear_memo()
        engine = RunEngine(RunContext(cache_dir=tmp_path / "cas"))
        second = engine.run(GO)
        assert engine.stats.cache_hits == 1
        assert engine.stats.fresh_runs == 0
        assert second.stats.as_dict() == first.stats.as_dict()

    def test_load_by_fingerprint(self, tmp_path):
        run_into(tmp_path / "cas")
        cache = ShardedResultCache(tmp_path / "cas")
        entry = cache.load_by_fingerprint(GO.fingerprint())
        assert entry is not None
        assert entry["fingerprint"] == GO.fingerprint()
        assert cache.load_by_fingerprint("no-such-fingerprint") is None

    def test_corrupt_entry_quarantines_in_its_shard(self, tmp_path):
        run_into(tmp_path / "cas")
        cache = ShardedResultCache(tmp_path / "cas")
        path = cache.entries()[0]
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x40
        path.write_bytes(bytes(raw))

        clear_memo()
        engine = RunEngine(RunContext(cache_dir=tmp_path / "cas"))
        recovered = engine.run(GO)
        assert engine.stats.cache_quarantined == 1
        assert engine.stats.fresh_runs == 1
        assert recovered.stats.as_dict() is not None
        quarantined = ShardedResultCache(tmp_path / "cas").quarantined()
        assert len(quarantined) == 1
        # Quarantine stays inside the shard that owned the entry.
        assert quarantined[0].parent.parent.name \
            == shard_key(GO.fingerprint())

    def test_root_entry_of_an_old_flat_cache_is_a_plain_miss(
            self, tmp_path):
        run_into(tmp_path / "cas")
        [stored] = ShardedResultCache(tmp_path / "cas").entries()
        # Where a single-directory cache kept the same entry: the root.
        old = tmp_path / "old" / stored.name
        old.parent.mkdir()
        old.write_bytes(stored.read_bytes())

        clear_memo()
        engine = RunEngine(RunContext(cache_dir=tmp_path / "old"))
        engine.run(GO)
        assert engine.stats.fresh_runs == 1
        assert engine.stats.cache_quarantined == 0
        assert old.read_bytes() == stored.read_bytes()

    def test_index_local_cache_covers_every_shard(self, tmp_path):
        cache = ShardedResultCache(tmp_path)
        jobs = [Job("go", config, 1)
                for config in list(named_configs().values())[:4]]
        for n, job in enumerate(jobs):
            cache.store(job, {"stats": {"committed": n}})
        assert len(cache.shards()) > 1
        assert index_local_cache(tmp_path) == {
            job.fingerprint(): cache.load_by_fingerprint(job.fingerprint())
            for job in jobs}


class TestLayoutMarker:
    def test_width_mismatch_refused(self, tmp_path):
        root = tmp_path / "cas"
        root.mkdir()
        (root / MARKER).write_text(json.dumps(
            {"schema": CAS_SCHEMA, "shard_width": 3}))
        with pytest.raises(CasLayoutError):
            ShardedResultCache(root)
        (root / MARKER).write_text(json.dumps(
            {"schema": CAS_SCHEMA, "shard_width": WIDTH}))
        ShardedResultCache(root)             # matching width is fine

    def test_foreign_schema_refused(self, tmp_path):
        root = tmp_path / "cas"
        root.mkdir()
        (root / MARKER).write_text(json.dumps(
            {"schema": "something-else/9", "shard_width": 2}))
        with pytest.raises(CasLayoutError):
            ShardedResultCache(root)

    def test_unreadable_marker_refused(self, tmp_path):
        root = tmp_path / "cas"
        root.mkdir()
        (root / MARKER).write_text("{not json")
        with pytest.raises(CasLayoutError):
            ShardedResultCache(root)
        (root / MARKER).write_text("[2]")   # JSON, but not an object
        with pytest.raises(CasLayoutError):
            ShardedResultCache(root)

    def test_marker_write_is_atomic(self, tmp_path, monkeypatch):
        """A constructor racing the first store's marker write sees no
        marker or a whole one, never an empty file."""
        root = tmp_path / "cas"
        racers = []
        real_open = Path.open

        def open_then_race(self, mode="r", *args, **kwargs):
            handle = real_open(self, mode, *args, **kwargs)
            if self.name.startswith(MARKER) and "w" in mode:
                try:
                    racers.append(ShardedResultCache(root))
                except BaseException:
                    handle.close()
                    raise
            return handle

        monkeypatch.setattr(Path, "open", open_then_race)
        ShardedResultCache(root).store(GO, {"stats": {}})
        monkeypatch.undo()
        assert racers, "the marker write never went through Path.open"
        marker = json.loads((root / MARKER).read_text())
        assert marker["shard_width"] == WIDTH
        assert [p.name for p in root.iterdir()
                if p.name.startswith(MARKER)] == [MARKER]


def _all_parsers():
    from repro.experiments.runner import build_parser as experiments
    from repro.fastsim.cli import build_parser as equivalence
    from repro.obs.cli import build_parser as obs
    from repro.robust.cli import build_parser as chaos
    from repro.service.server import build_parser as serve
    return {"repro-experiments": experiments(), "repro-obs": obs(),
            "repro-chaos": chaos(), "repro-equivalence": equivalence(),
            "repro-serve": serve()}


class TestSharedEngineFlags:
    ENGINE_DESTS = ("jobs", "backend", "cache_dir", "no_cache",
                    "refresh", "timeout", "retries")

    def test_every_cli_carries_the_full_group(self):
        for name, parser in _all_parsers().items():
            dests = {action.dest for action in parser._actions}
            missing = set(self.ENGINE_DESTS) - dests
            assert not missing, f"{name} is missing {sorted(missing)}"

    def test_context_from_args_and_overrides(self, tmp_path):
        parser = argparse.ArgumentParser()
        add_engine_arguments(parser)
        args = parser.parse_args(
            ["--jobs", "3", "--cache-dir", str(tmp_path),
             "--refresh", "--retries", "0",
             "--backend", "fast", "--timeout", "5.5"])
        validate_engine_args(parser, args)
        ctx = context_from_args(args, obs_dir=tmp_path / "obs")
        assert ctx.jobs == 3
        assert ctx.backend == "fast"
        assert ctx.refresh and ctx.use_cache
        assert ctx.retries == 0
        assert ctx.timeout == 5.5
        assert ctx.obs_dir == tmp_path / "obs"

    @pytest.mark.parametrize("argv", [
        ["--jobs", "0"],
        ["--retries", "-1"],
        ["--timeout", "0"],
    ])
    def test_uniform_validation_rejects(self, argv):
        parser = argparse.ArgumentParser()
        add_engine_arguments(parser)
        args = parser.parse_args(argv)
        with pytest.raises(SystemExit):
            validate_engine_args(parser, args)
