"""Tests for the parallel Monte-Carlo execution layer.

The load-bearing property is *bit-identity*: seed-sharded fan-out must
produce exactly the sample vector of the sequential loop, for every
technique and any worker count — otherwise "parallel" silently changes
the science.
"""

from __future__ import annotations

import gc
import multiprocessing
import weakref

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim import (
    TECHNIQUES,
    CITarget,
    estimate_cells,
    sample_technique,
    summarize,
)
from repro.sim import engine_mc
from repro.sim.engine_mc import EngineSampler
from repro.sim.params import SimulationParams
from repro.sim.parallel import (
    DEFAULT_RUN_TIMEOUT,
    SEED_STRIDE,
    resolve_jobs,
    seed_for,
    shard_bounds,
)
from repro.sim.runner import sweep_mttf
from tests.helpers import run_engine_once

FAULTY = SimulationParams(mttf=15.0, downtime=30.0)


class TestSeedSharding:
    def test_seed_for_is_strided(self):
        assert seed_for(100, 0) == 100
        assert seed_for(100, 3) == 100 + 3 * SEED_STRIDE

    def test_shard_bounds_cover_range_contiguously(self):
        bounds = shard_bounds(10, 3)
        assert bounds == [(0, 4), (4, 7), (7, 10)]
        sizes = [stop - start for start, stop in bounds]
        assert max(sizes) - min(sizes) <= 1

    def test_shard_bounds_more_shards_than_runs(self):
        assert shard_bounds(2, 5) == [(0, 1), (1, 2)]

    def test_shard_bounds_zero_runs(self):
        assert shard_bounds(0, 4) == []

    def test_shard_bounds_rejects_bad_inputs(self):
        with pytest.raises(SimulationError):
            shard_bounds(-1, 2)
        with pytest.raises(SimulationError):
            shard_bounds(5, 0)

    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1  # "all cores"
        assert resolve_jobs(-2) == resolve_jobs(0)


class TestResolveJobsEnv:
    def test_env_default_applies_when_jobs_is_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2
        assert resolve_jobs(1) == 1

    def test_env_zero_means_all_cores(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert resolve_jobs(None) == resolve_jobs(0) >= 1

    def test_invalid_env_value_is_an_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(SimulationError):
            resolve_jobs(None)

    def test_affinity_mask_bounds_all_cores(self):
        import os

        want = len(os.sched_getaffinity(0))
        assert resolve_jobs(0) == want


class TestShardingProperties:
    """Hypothesis sweeps over the sharding algebra.

    ``shard_bounds`` must partition ``[0, runs)`` exactly — no gap, no
    overlap, no empty shard, balanced to within one run — and ``seed_for``
    streams must never collide across run indices, or two "independent"
    runs would replay the same randomness.
    """

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        runs=st.integers(min_value=0, max_value=5000),
        shards=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=200)
    def test_shard_bounds_partition_exactly(self, runs, shards):
        bounds = shard_bounds(runs, shards)
        covered = [i for start, stop in bounds for i in range(start, stop)]
        assert covered == list(range(runs))  # coverage, order, no overlap
        assert all(stop > start for start, stop in bounds)  # no empty shard
        if bounds:
            sizes = [stop - start for start, stop in bounds]
            assert max(sizes) - min(sizes) <= 1  # balanced
            assert len(bounds) == min(shards, runs)

    @given(
        base=st.integers(min_value=0, max_value=2**31),
        indices=st.lists(
            st.integers(min_value=0, max_value=100_000),
            min_size=2,
            max_size=50,
            unique=True,
        ),
    )
    @settings(max_examples=200)
    def test_seed_for_never_collides_across_indices(self, base, indices):
        seeds = [seed_for(base, i) for i in indices]
        assert len(set(seeds)) == len(seeds)

    @given(
        base_a=st.integers(min_value=0, max_value=10_000),
        base_b=st.integers(min_value=0, max_value=10_000),
        i=st.integers(min_value=0, max_value=1000),
        j=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=200)
    def test_seed_for_is_injective_in_the_index(self, base_a, base_b, i, j):
        # Collisions across *different* bases are possible (the stride is
        # finite) — but for one base, distinct indices are distinct seeds,
        # and equal seeds from one base imply equal indices.
        if base_a == base_b and i != j:
            assert seed_for(base_a, i) != seed_for(base_b, j)


class TestEngineSampler:
    def test_reused_sampler_matches_fresh_grid_per_run(self):
        # The in-place grid reset must reproduce a freshly constructed
        # grid bit for bit, or object reuse changes results.
        sampler = EngineSampler("checkpointing", FAULTY)
        for seed in (1, 77, 20030623):
            assert sampler.run(seed) == run_engine_once(
                "checkpointing", FAULTY, seed=seed
            )

    def test_reused_sampler_matches_across_techniques(self):
        for technique in TECHNIQUES:
            sampler = EngineSampler(technique, FAULTY)
            got = [sampler.run(seed) for seed in (5, 6)]
            want = [
                run_engine_once(technique, FAULTY, seed=seed) for seed in (5, 6)
            ]
            assert got == want, technique

    def test_counts_kernel_events(self):
        sampler = EngineSampler("retrying", FAULTY)
        sampler.run(1)
        after_one = sampler.events_processed
        assert after_one > 0
        sampler.run(2)
        assert sampler.events_processed > after_one  # cumulative


class TestParallelBitIdentity:
    def test_jobs4_matches_jobs1_for_every_technique(self):
        cells = [(technique, FAULTY) for technique in TECHNIQUES]
        seq = estimate_cells(cells, runs=8, jobs=1, engine=True)
        par = estimate_cells(cells, runs=8, jobs=4, engine=True)
        for technique, a, b in zip(TECHNIQUES, seq, par):
            assert np.array_equal(a.samples, b.samples), technique

    def test_matches_naive_per_run_loop(self):
        cells = [("replication", FAULTY)]
        [seq] = estimate_cells(cells, runs=6, jobs=1, engine=True)
        naive = [
            run_engine_once(
                "replication", FAULTY, seed=seed_for(FAULTY.seed, i)
            )
            for i in range(6)
        ]
        assert seq.samples.tolist() == naive

    def test_base_seed_override(self):
        cells = [("retrying", FAULTY)]
        [a] = estimate_cells(cells, runs=3, base_seed=42, engine=True)
        [b] = estimate_cells(cells, runs=3, base_seed=42, jobs=2, engine=True)
        assert np.array_equal(a.samples, b.samples)
        naive = [
            run_engine_once("retrying", FAULTY, seed=seed_for(42, i))
            for i in range(3)
        ]
        assert a.samples.tolist() == naive

    def test_rejects_zero_runs(self):
        with pytest.raises(SimulationError):
            estimate_cells([("retrying", FAULTY)], runs=0, engine=True)


@pytest.mark.contract
class TestOneExecutorPerEstimate:
    """Every round of one estimate shares one executor and one sampler
    table, and neither outlives the call."""

    def test_jobs2_matches_jobs1_across_cells_and_rounds(self):
        cells = [("checkpointing", FAULTY), ("retrying", FAULTY.with_mttf(50.0))]
        # An unreachable precision keeps both cells sampling to max_runs:
        # batches of 4, 4 and 8 runs, each sharded over the workers.
        target = CITarget(rel=1e-9, min_runs=4, max_runs=16)
        seq = estimate_cells(cells, target=target, jobs=1, engine=True)
        par = estimate_cells(cells, target=target, jobs=2, engine=True)
        again = estimate_cells(cells, target=target, jobs=2, engine=True)
        for a, b, c in zip(seq, par, again):
            assert a.samples.size == 16
            assert np.array_equal(a.samples, b.samples)
            assert np.array_equal(a.samples, c.samples)
        assert not np.array_equal(seq[0].samples, seq[1].samples)

    @pytest.fixture
    def built(self, monkeypatch):
        """Weak references to every sampler this process builds."""
        refs = []

        class Recorded(EngineSampler):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                refs.append(weakref.ref(self))

        monkeypatch.setattr(engine_mc, "EngineSampler", Recorded)
        return refs

    @pytest.mark.parametrize(
        "timeout", [DEFAULT_RUN_TIMEOUT, 1.0], ids=["returns", "raises"]
    )
    def test_nothing_outlives_an_estimate(self, built, timeout):
        # A 1-virtual-second budget cuts every run off (the task alone
        # takes 30), so that estimate raises from its first round.
        two = [("checkpointing", FAULTY), ("retrying", FAULTY)]
        for cells, runs, jobs in (
            (two, 3, 2),  # every round on the workers
            (two[:1], 1, 2),  # one task: drawn in process under jobs=2
            (two, 3, 1),  # in process
        ):
            options = {"runs": runs, "jobs": jobs, "timeout": timeout}
            if timeout == 1.0:
                with pytest.raises(SimulationError, match="run_index=0"):
                    estimate_cells(cells, engine=True, **options)
            else:
                estimate_cells(cells, engine=True, **options)
            gc.collect()
            assert multiprocessing.active_children() == []
            assert all(ref() is None for ref in built), (cells, jobs)
        assert built  # the in-process draws built samplers to watch


class TestWorkerFailureContext:
    # A 1-virtual-second budget is unsatisfiable (the task alone takes 30),
    # so every run fails; the error must carry replay context.
    def test_sequential_error_carries_replay_context(self):
        with pytest.raises(SimulationError) as info:
            estimate_cells(
                [("checkpointing", FAULTY)],
                runs=2,
                engine=True,
                timeout=1.0,
                jobs=1,
            )
        msg = str(info.value)
        assert "technique='checkpointing'" in msg
        assert "run_index=0" in msg
        assert f"seed={FAULTY.seed}" in msg

    def test_parallel_error_survives_process_boundary(self):
        with pytest.raises(SimulationError) as info:
            estimate_cells(
                [("checkpointing", FAULTY)],
                runs=4,
                engine=True,
                timeout=1.0,
                jobs=2,
            )
        msg = str(info.value)
        assert "technique='checkpointing'" in msg
        assert "run_index=" in msg and "seed=" in msg


class TestSweepParallel:
    def test_points_match_sequential_evaluation(self):
        params = SimulationParams(runs=500)
        techniques, mttfs = ("retrying", "replication"), [10.0, 50.0]
        seq = sweep_mttf(params, mttfs, techniques, runs=500, jobs=1)
        par = sweep_mttf(params, mttfs, techniques, runs=500, jobs=2)
        for technique in techniques:
            assert seq[technique].summaries == par[technique].summaries
            # ... and both are the naive per-point evaluation.
            naive = tuple(
                summarize(
                    sample_technique(technique, params.with_mttf(m), runs=500)
                )
                for m in mttfs
            )
            assert seq[technique].summaries == naive

    def test_sweep_mttf_jobs_is_invisible_in_results(self):
        params = SimulationParams(runs=400)
        target = CITarget(rel=0.02, min_runs=200, max_runs=3200)
        for options in (
            {},  # fixed budget
            {"target_ci": target},  # adaptive, plain batches
            {"target_ci": target, "variance_reduction": "antithetic"},
        ):
            seq = sweep_mttf(
                params, [10, 50], ("retrying", "replication"), **options
            )
            par = sweep_mttf(
                params, [10, 50], ("retrying", "replication"), jobs=2, **options
            )
            for technique in ("retrying", "replication"):
                assert seq[technique].x == par[technique].x
                assert seq[technique].y == par[technique].y
                assert seq[technique].label == par[technique].label
                assert seq[technique].summaries == par[technique].summaries
            if options:  # the target is loose enough to be met mid-schedule
                sizes = {s.n for t in seq.values() for s in t.summaries}
                assert len(sizes) > 1 and max(sizes) > 200
