"""The cache management CLI and the engine-aware ``cached_explore``.

Covers the ``stp-repro cache`` subcommand (stats / clear / prune), the
``explore`` subcommand's engine switches, and the cache-layer contracts
the frontier engine added: unreduced batched runs share the scalar
report key (cross-engine hits), reduced runs get their own key, and
truncated frontier snapshots are resumed instead of recomputed.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.analysis.cache import (
    ResultCache,
    cached_explore,
    fingerprint,
    system_fingerprint,
)
from repro.channels import DuplicatingChannel
from repro.cli import main
from repro.kernel.system import System
from repro.protocols.norepeat import norepeat_protocol
from repro.verify import FrontierSnapshot


def build_system(input_sequence=("a", "b")):
    domain = tuple(sorted(set(input_sequence))) or ("a",)
    sender, receiver = norepeat_protocol(domain)
    return System(
        sender,
        receiver,
        DuplicatingChannel(),
        DuplicatingChannel(),
        tuple(input_sequence),
    )


def strip_timing(report):
    return replace(report, elapsed_seconds=0.0, states_per_second=0.0)


class TestCacheSubcommand:
    def test_stats_on_empty_cache(self, tmp_path, capsys):
        root = tmp_path / "cache"
        assert main(
            ["cache", "stats", "--cache-dir", str(root), "--json"]
        ) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 0
        assert stats["bytes"] == 0

    def test_stats_human_table(self, tmp_path, capsys):
        root = tmp_path / "cache"
        cached_explore(build_system(), cache=ResultCache(root))
        assert main(["cache", "stats", "--cache-dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert str(root) in out
        assert "entries:" in out
        assert "explore" in out
        # Default output is the table, not JSON.
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_stats_after_explore(self, tmp_path, capsys):
        root = tmp_path / "cache"
        assert (
            main(
                [
                    "explore",
                    "--engine",
                    "batched",
                    "--cache-dir",
                    str(root),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(
            ["cache", "stats", "--cache-dir", str(root), "--json"]
        ) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] >= 2  # report + frontier snapshot
        assert set(stats["kinds"]) >= {"explore", "frontier"}

    def test_clear_empties_the_store(self, tmp_path, capsys):
        root = tmp_path / "cache"
        cache = ResultCache(root)
        cached_explore(build_system(), cache=cache)
        assert cache.disk_stats()["entries"] > 0
        assert main(["cache", "clear", "--cache-dir", str(root)]) == 0
        assert "cleared" in capsys.readouterr().out
        assert ResultCache(root).disk_stats()["entries"] == 0

    def test_prune_evicts_down_to_budget(self, tmp_path, capsys):
        root = tmp_path / "cache"
        cache = ResultCache(root)
        for items in (("a",), ("a", "b"), ("b", "a")):
            cached_explore(build_system(items), cache=cache)
        before = cache.disk_stats()
        assert main(
            ["cache", "prune", "--cache-dir", str(root), "--max-size", "1K"]
        ) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["removed"] >= 1
        assert summary["remaining_bytes"] <= 1024
        assert summary["freed_bytes"] <= before["bytes"]

    def test_prune_size_suffixes(self, tmp_path, capsys):
        root = tmp_path / "cache"
        assert main(
            ["cache", "prune", "--cache-dir", str(root), "--max-size", "2M"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["removed"] == 0
        assert main(
            ["cache", "prune", "--cache-dir", str(root), "--max-size", "oops"]
        ) == 2


class TestEngineAwareCachedExplore:
    def test_cross_engine_report_key_is_shared(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        scalar = cached_explore(build_system(), cache=cache)
        hits_before = cache.stats()["hits"]
        batched = cached_explore(
            build_system(), cache=cache, engine="batched"
        )
        assert cache.stats()["hits"] == hits_before + 1
        assert strip_timing(batched) == strip_timing(scalar)

    def test_batched_warm_serves_scalar(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        batched = cached_explore(
            build_system(), cache=cache, engine="batched"
        )
        hits_before = cache.stats()["hits"]
        scalar = cached_explore(build_system(), cache=cache)
        assert cache.stats()["hits"] == hits_before + 1
        assert strip_timing(scalar) == strip_timing(batched)

    def test_reduced_key_is_separate(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        unreduced = cached_explore(
            build_system(("a", "b", "c")), cache=cache, engine="batched"
        )
        reduced = cached_explore(
            build_system(("a", "b", "c")),
            cache=cache,
            engine="batched",
            reduce=True,
        )
        assert reduced.all_safe == unreduced.all_safe
        assert (
            reduced.completion_reachable == unreduced.completion_reachable
        )
        # Same key would have returned the unreduced report verbatim.
        again = cached_explore(
            build_system(("a", "b", "c")),
            cache=cache,
            engine="batched",
            reduce=True,
        )
        assert strip_timing(again) == strip_timing(reduced)

    def test_truncated_snapshot_resumes_under_bigger_budget(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        base = system_fingerprint(build_system(("a", "b", "c")))
        truncated = cached_explore(
            build_system(("a", "b", "c")),
            max_states=5,
            cache=cache,
            engine="batched",
        )
        assert truncated.truncated
        snapshot_key = fingerprint("frontier", base, True)
        stored = cache.get("frontier", snapshot_key)
        assert isinstance(stored, FrontierSnapshot)
        assert stored.truncated and stored.expanded == 5
        full = cached_explore(
            build_system(("a", "b", "c")),
            cache=cache,
            engine="batched",
        )
        assert not full.truncated
        fresh = cached_explore(build_system(("a", "b", "c")))
        assert strip_timing(full) == strip_timing(fresh)
        resumed = cache.get("frontier", snapshot_key)
        assert isinstance(resumed, FrontierSnapshot)
        assert not resumed.truncated
        assert len(resumed.lineage) == 2  # chained onto the budget-5 cut
        assert stored.fingerprint == base

    def test_engine_validation(self, tmp_path):
        for engine in ("warp", "vectorized"):
            with pytest.raises(ValueError, match="engine"):
                cached_explore(build_system(), engine=engine)
        with pytest.raises(ValueError, match="reduce"):
            cached_explore(build_system(), reduce=True)

    def test_no_cache_direct_paths(self):
        scalar = cached_explore(build_system())
        batched = cached_explore(build_system(), engine="batched")
        reduced = cached_explore(
            build_system(), engine="batched", reduce=True
        )
        assert strip_timing(batched) == strip_timing(scalar)
        assert reduced.all_safe == scalar.all_safe
