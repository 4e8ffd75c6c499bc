"""Tests for the persistent worker pool and per-worker sampler cache.

The amortization contract: one process-wide executor shared by every
caller, one ``EngineSampler`` per configuration per process — and neither
form of reuse may change a single bit of any sample vector.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim import SimulationParams, engine_samples
from repro.sim.parallel import _engine_shard, seed_for
from repro.sim.pool import (
    clear_sampler_cache,
    get_pool,
    persistent_pool,
    pool_size,
    sampler_cache_info,
    shutdown_pool,
    worker_sampler,
)

FAULTY = SimulationParams(mttf=15.0, downtime=30.0)
TIMEOUT = 10_000_000.0


@pytest.fixture
def fresh_pool():
    """Exact-size assertions need a clean slate: earlier tests in the
    session may have grown the shared pool already."""
    shutdown_pool()
    yield


class TestPoolSingleton:
    @pytest.fixture(autouse=True)
    def _isolate(self, fresh_pool):
        pass

    def test_get_pool_returns_the_same_executor(self):
        a = get_pool(2)
        b = get_pool(2)
        assert a is b
        assert pool_size() == 2

    def test_smaller_requests_reuse_the_existing_pool(self):
        a = get_pool(2)
        assert get_pool(1) is a
        assert pool_size() == 2

    def test_larger_requests_grow_the_pool(self):
        a = get_pool(1)
        b = get_pool(2)
        assert b is not a
        assert pool_size() == 2

    def test_shutdown_is_idempotent_and_restarts_lazily(self):
        get_pool(2)
        shutdown_pool()
        shutdown_pool()
        assert pool_size() == 0
        assert get_pool(1) is not None
        assert pool_size() == 1

    def test_rejects_nonpositive_worker_counts(self):
        with pytest.raises(ValueError):
            get_pool(0)

    def test_pool_survives_work(self):
        pool = get_pool(2)
        assert pool.submit(sum, (1, 2, 3)).result() == 6
        assert get_pool(2) is pool


class TestPersistentPoolContext:
    @pytest.fixture(autouse=True)
    def _isolate(self, fresh_pool):
        pass

    def test_yields_the_shared_pool_and_leaves_it_running(self):
        with persistent_pool(2) as pool:
            assert pool is get_pool(2)
        # Persistence is the point: the pool outlives the with block.
        assert pool_size() == 2
        assert get_pool(2) is pool

    def test_shutdown_on_exit_tears_down(self):
        with persistent_pool(1, shutdown_on_exit=True) as pool:
            assert pool.submit(len, "abc").result() == 3
        assert pool_size() == 0


class TestWorkerSamplerCache:
    def test_same_configuration_hits_the_cache(self):
        clear_sampler_cache()
        a = worker_sampler("retrying", FAULTY, TIMEOUT)
        b = worker_sampler("retrying", FAULTY, TIMEOUT)
        assert a is b
        info = sampler_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1 and info["size"] == 1

    def test_different_configurations_get_distinct_samplers(self):
        clear_sampler_cache()
        a = worker_sampler("retrying", FAULTY, TIMEOUT)
        b = worker_sampler("checkpointing", FAULTY, TIMEOUT)
        c = worker_sampler("retrying", FAULTY.with_mttf(50.0), TIMEOUT)
        d = worker_sampler("retrying", FAULTY, 5_000.0)
        assert len({id(s) for s in (a, b, c, d)}) == 4
        assert sampler_cache_info()["misses"] == 4

    def test_cached_sampler_is_bit_identical_to_fresh(self):
        from repro.sim.engine_mc import EngineSampler

        clear_sampler_cache()
        base = FAULTY.seed
        # First shard populates the cache, second reuses the sampler.
        first, stats = _engine_shard(
            "checkpointing", FAULTY, base, 0, 4, TIMEOUT
        )
        again, _ = _engine_shard(
            "checkpointing", FAULTY, base, 0, 4, TIMEOUT
        )
        assert np.array_equal(first, again)
        assert stats is None  # stats are opt-in (collect_stats=True)
        fresh = EngineSampler("checkpointing", FAULTY, timeout=TIMEOUT)
        want = [fresh.run(seed_for(base, i)) for i in range(4)]
        assert first.tolist() == want

    def test_in_process_sequential_path_uses_the_cache(self):
        clear_sampler_cache()
        engine_samples("retrying", FAULTY, runs=3, jobs=1)
        misses_after_first = sampler_cache_info()["misses"]
        engine_samples("retrying", FAULTY, runs=3, jobs=1)
        info = sampler_cache_info()
        assert info["misses"] == misses_after_first  # no new world built
        assert info["hits"] >= 1


class TestPooledBitIdentity:
    def test_warm_pool_matches_sequential(self):
        seq = engine_samples("checkpointing", FAULTY, runs=8, jobs=1)
        first = engine_samples("checkpointing", FAULTY, runs=8, jobs=2)
        # Second pooled call hits warm workers with cached samplers.
        second = engine_samples("checkpointing", FAULTY, runs=8, jobs=2)
        assert np.array_equal(seq, first)
        assert np.array_equal(seq, second)

    def test_pool_shared_across_configurations(self):
        pool_before = get_pool(2)
        a = engine_samples("retrying", FAULTY, runs=4, jobs=2)
        b = engine_samples("replication", FAULTY, runs=4, jobs=2)
        assert get_pool(2) is pool_before
        assert not np.array_equal(a, b)
