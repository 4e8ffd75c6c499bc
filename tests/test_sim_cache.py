"""Tests for the content-addressed Monte-Carlo sample cache.

The correctness contract: a hit must be byte-identical to recomputation,
and the key must cover *every* input that shapes the draw sequence — so
two different experiments can never share an entry, and any parameter
change invalidates automatically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.errors import SimulationError
from repro.sim import (
    SampleCache,
    SimulationParams,
    default_cache_dir,
    estimate_cells,
    evaluate_grid,
    resolve_cache,
    sample_technique,
    sweep_mttf,
)

FAULTY = SimulationParams(mttf=15.0, downtime=30.0)
CELL = [("retrying", FAULTY)]


@pytest.fixture
def cache(tmp_path):
    return SampleCache(tmp_path / "mc")


def _key(cache, **overrides):
    kwargs = dict(
        kind="sampler",
        technique="retrying",
        params=FAULTY,
        runs=100,
        base_seed=FAULTY.seed,
    )
    kwargs.update(overrides)
    return cache.key(**kwargs)


class TestKeying:
    def test_key_is_deterministic(self, cache):
        assert _key(cache) == _key(cache)

    def test_key_covers_every_input(self, cache):
        base = _key(cache)
        assert _key(cache, technique="checkpointing") != base
        assert _key(cache, runs=101) != base
        assert _key(cache, base_seed=1) != base
        assert _key(cache, kind="engine") != base
        assert _key(cache, params=FAULTY.with_mttf(16.0)) != base
        assert _key(cache, extra={"timeout": 5.0}) != base

    def test_equal_params_objects_share_a_key(self, cache):
        # Canonicalisation: a reconstructed-but-equal params object must
        # hash identically, or regeneration never hits.
        clone = SimulationParams(mttf=15.0, downtime=30.0)
        assert _key(cache) == _key(cache, params=clone)

    def test_infinite_mttf_is_keyable(self, cache):
        k = _key(cache, params=SimulationParams())
        assert len(k) == 64

    def test_rejects_unknown_kind(self, cache):
        with pytest.raises(SimulationError):
            _key(cache, kind="mystery")

    def test_version_tag_participates(self, cache, monkeypatch):
        import repro.sim.cache as cache_mod

        before = _key(cache)
        monkeypatch.setattr(cache_mod, "SAMPLERS_VERSION", 999)
        assert _key(cache) != before


class TestStorage:
    def test_roundtrip_is_bit_identical(self, cache):
        key = _key(cache)
        vector = np.random.default_rng(0).random(1000)
        cache.store(key, vector)
        assert np.array_equal(cache.load(key), vector)

    def test_miss_returns_none(self, cache):
        assert cache.load(_key(cache)) is None

    def test_corrupt_entry_degrades_to_a_miss_and_is_evicted(self, cache):
        key = _key(cache)
        cache.store(key, np.arange(5.0))
        cache.path_for(key).write_bytes(b"not a npy file")
        assert cache.load(key) is None
        assert not cache.path_for(key).exists()

    def test_zero_byte_entry_is_a_corrupt_entry(self, cache):
        key = _key(cache)
        cache.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(key).write_bytes(b"")  # a writer died before its first byte
        assert cache.load(key) is None
        assert not cache.path_for(key).exists()
        assert cache.stats() == {"hits": 0, "misses": 1, "stores": 0, "evictions": 1}

    def test_counters_are_replaced_whole_never_rewritten_in_place(self, cache):
        # A reader racing a bump must find the old file or the new one: a
        # file truncated for rewriting reads as zeros, and the reader's own
        # bump would write those back over the lifetime totals.
        cache.store(_key(cache), np.arange(3.0))
        stats_file = cache.root / "stats.json"
        before = stats_file.stat().st_ino
        assert cache.load(_key(cache)) is not None
        assert stats_file.stat().st_ino != before  # a new file, renamed in
        assert cache.stats()["stores"] == 1 and cache.stats()["hits"] == 1
        assert sorted(p.suffix for p in cache.root.iterdir()) == [".json", ".npy"]

    def test_info_and_clear(self, cache):
        assert cache.info()["entries"] == 0
        cache.store(_key(cache), np.arange(3.0))
        cache.store(_key(cache, runs=7), np.arange(7.0))
        info = cache.info()
        assert info["entries"] == 2 and info["bytes"] > 0
        assert cache.clear() == 2
        assert cache.info()["entries"] == 0

    def test_resolve_cache_forms(self, cache):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        assert resolve_cache(cache) is cache
        assert isinstance(resolve_cache(True), SampleCache)
        with pytest.raises(SimulationError):
            resolve_cache("yes")

    def test_default_cache_dir_honors_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"


class TestEngineSamplesCache:
    def test_hit_is_bit_identical_to_uncached(self, cache):
        [uncached] = estimate_cells(CELL, runs=5, engine=True)
        [cold] = estimate_cells(CELL, runs=5, engine=True, cache=cache)
        [warm] = estimate_cells(CELL, runs=5, engine=True, cache=cache)
        assert np.array_equal(uncached.samples, cold.samples)
        assert np.array_equal(uncached.samples, warm.samples)
        assert warm.cached and not cold.cached
        assert cache.info()["entries"] == 1

    def test_warm_call_reads_the_store_not_the_engine(self, cache):
        estimate_cells(CELL, runs=4, engine=True, cache=cache)
        # Overwrite the lone entry: if the second call recomputed instead
        # of loading, the sentinel would not come back.
        [path] = list(cache._entries())
        sentinel = np.full(4, -1.0)
        key = path.stem
        cache.store(key, sentinel)
        [warm] = estimate_cells(CELL, runs=4, engine=True, cache=cache)
        assert np.array_equal(warm.samples, sentinel)

    def test_run_count_keys_separately(self, cache):
        [a] = estimate_cells(CELL, runs=4, engine=True, cache=cache)
        [b] = estimate_cells(CELL, runs=6, engine=True, cache=cache)
        assert a.samples.size == 4 and b.samples.size == 6
        assert cache.info()["entries"] == 2


class TestSweepCache:
    TECHNIQUES = ("retrying", "replication")

    def test_cached_sweep_matches_uncached(self, cache):
        params = SimulationParams(runs=400)
        ref = sweep_mttf(params, [10, 50], techniques=self.TECHNIQUES)
        cold = sweep_mttf(
            params, [10, 50], techniques=self.TECHNIQUES, cache=cache
        )
        warm = sweep_mttf(
            params, [10, 50], techniques=self.TECHNIQUES, cache=cache
        )
        for t in self.TECHNIQUES:
            assert ref[t].y == cold[t].y == warm[t].y
        # One entry per (technique, MTTF) point.
        assert cache.info()["entries"] == 4

    def test_partial_invalidation_resamples_only_new_points(self, cache):
        params = SimulationParams(runs=300)
        sweep_mttf(params, [10, 50], techniques=("retrying",), cache=cache)
        assert cache.info()["entries"] == 2
        # A wider sweep reuses the two cached points and adds one.
        sweep_mttf(params, [10, 50, 90], techniques=("retrying",), cache=cache)
        assert cache.info()["entries"] == 3


    @pytest.mark.parametrize("adapter", ["evaluate_grid", "estimate_cells"])
    def test_fixed_budget_adapters_share_the_sampler_entry(self, cache, adapter):
        # A fixed budget with no variance reduction is one cache entry
        # (kind "sampler") whichever adapter asks: these two used to skip
        # the cache altogether (0 hits, 0 misses, 0 stores).
        params = SimulationParams(runs=300)
        cell_params = params.with_mttf(10.0)
        sweep_mttf(params, [10.0], techniques=("retrying",), cache=cache)
        assert cache.stats()["stores"] == 1
        if adapter == "evaluate_grid":
            grid = evaluate_grid(params, [10.0], ("retrying",), cache=cache)
            cell = grid.cells[("retrying", 10.0)]
        else:
            [cell] = estimate_cells([("retrying", cell_params)], cache=cache)
        assert cell.cached
        assert cache.stats() == {
            "hits": 1, "misses": 1, "stores": 1, "evictions": 0
        }
        assert np.array_equal(
            cell.samples, sample_technique("retrying", cell_params)
        )


class TestCacheCli:
    def test_mc_cache_flag_populates_and_reuses(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["mc", "--technique", "retry", "--runs", "200", "--cache"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second  # warm run serves identical estimates
        assert len(list(tmp_path.glob("*.npy"))) == 1

    def test_cache_info_and_clear_commands(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert (
            main(["mc", "--technique", "retry", "--runs", "100", "--cache"]) == 0
        )
        capsys.readouterr()
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "entries:          1" in out
        assert str(tmp_path) in out
        assert main(["cache", "clear"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert main(["cache", "info"]) == 0
        assert "entries:          0" in capsys.readouterr().out

    def test_engine_mc_cache_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = [
            "mc",
            "--technique",
            "retry",
            "--engine",
            "--runs",
            "5",
            "--mttf",
            "15",
            "--cache",
            "--json",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert len(list(tmp_path.glob("*.npy"))) == 1
