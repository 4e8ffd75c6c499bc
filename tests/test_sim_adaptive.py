"""Adaptive sampling and variance reduction (:mod:`repro.sim.adaptive`).

Covers the contract the optimisation rests on: the disabled path is
bit-identical to the pre-adaptive samplers (golden checksums captured
before the module existed), variance-reduced estimators stay unbiased
(hypothesis, against the exact analytical means), CI-targeted stopping
respects its bounds and delivers its target, and the cache treats
adaptive cells budget-independently.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import (
    AntitheticGenerator,
    CITarget,
    SampleCache,
    SimulationParams,
    adaptive_samples,
    engine_samples,
    estimate_cells,
    evaluate_grid,
    run_engine_once,
    sample_technique,
    seed_for,
    summarize,
    sweep,
    sweep_mttf,
)
from repro.sim.adaptive import UniformPool, pair_means
from repro.sim.analytical import expected_time
from repro.sim.samplers import EXTENDED_TECHNIQUES


def _digest(samples: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(samples).tobytes()
    ).hexdigest()[:16]


BASE = SimulationParams(mttf=20.0, runs=4000, seed=7)

#: sha256 prefixes of every sampler's output, captured on the pre-adaptive
#: tree.  Any drift here means the default path is no longer bit-identical
#: to the samplers this repo's figures were generated with.
GOLDEN = {
    ("base", "retrying"): "050f5b8cd995389a",
    ("base", "checkpointing"): "4a8bbd9eeb3a68bd",
    ("base", "replication"): "e6723e3bdb980069",
    ("base", "replication_checkpointing"): "6c8d6424dc51e18c",
    ("base", "backoff_retry"): "ab08d2cf47d3ba28",
    ("downtime_exp", "retrying"): "1faf87a5b680946e",
    ("downtime_exp", "checkpointing"): "2622d8aabc70b017",
    ("downtime_exp", "replication"): "70dde97b1330fcce",
    ("downtime_exp", "replication_checkpointing"): "eaeea5da7a230c08",
    ("downtime_exp", "backoff_retry"): "f90531e8a26a8de7",
    ("downtime_fixed", "retrying"): "8128d5ea58529e80",
    ("downtime_fixed", "checkpointing"): "89e51f3adc3f9f1f",
    ("downtime_fixed", "replication"): "94837e313fb66265",
    ("downtime_fixed", "replication_checkpointing"): "ba50258f25d919db",
    ("downtime_fixed", "backoff_retry"): "8247947ff288703e",
    ("no_downtime_fixed_dist", "retrying"): "64293648e3c54c93",
    ("no_downtime_fixed_dist", "checkpointing"): "02809f88d676d58e",
    ("no_downtime_fixed_dist", "replication"): "5e9a37d0344128ff",
    ("no_downtime_fixed_dist", "replication_checkpointing"): "079bb9715af9d8b2",
    ("no_downtime_fixed_dist", "backoff_retry"): "7cd000fcefc1e20e",
}

CONFIGS = {
    "base": BASE,
    "downtime_exp": dataclasses.replace(BASE, downtime=30.0),
    "downtime_fixed": dataclasses.replace(
        BASE, downtime=30.0, downtime_distribution="fixed"
    ),
    "no_downtime_fixed_dist": SimulationParams(
        mttf=15.0,
        downtime=0.0,
        downtime_distribution="fixed",
        runs=4000,
        seed=7,
    ),
}


class TestBitIdentity:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("technique", EXTENDED_TECHNIQUES)
    def test_samplers_match_pre_adaptive_golden(self, config, technique):
        samples = sample_technique(technique, CONFIGS[config])
        assert _digest(samples) == GOLDEN[(config, technique)]

    @pytest.mark.parametrize("technique", EXTENDED_TECHNIQUES)
    def test_disabled_adaptive_path_is_the_plain_sampler(self, technique):
        cell = adaptive_samples(technique, BASE)
        assert _digest(cell.samples) == GOLDEN[("base", technique)]
        assert cell.converged
        assert cell.boundaries == (4000,)

    def test_sweep_mttf_disabled_kwargs_change_nothing(self):
        plain = sweep_mttf(BASE, [10.0, 20.0], ["retrying"])
        routed = sweep_mttf(
            BASE,
            [10.0, 20.0],
            ["retrying"],
            target_ci=None,
            variance_reduction=None,
        )
        assert plain["retrying"].y == routed["retrying"].y


class TestCITarget:
    def test_of_normalises(self):
        assert CITarget.of(None) is None
        t = CITarget.of(0.05)
        assert t.rel == 0.05 and t.abs is None
        assert CITarget.of(t) is t
        with pytest.raises(SimulationError):
            CITarget.of("0.05")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel": None, "abs": None},
            {"rel": -0.1},
            {"abs": 0.0},
            {"min_runs": 1},
            {"min_runs": 100, "max_runs": 50},
            {"growth": 1.0},
            {"confidence": 0.73},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(SimulationError):
            CITarget(**kwargs)

    def test_batch_schedule_is_geometric_and_capped(self):
        t = CITarget(rel=0.01, min_runs=500, max_runs=3000, growth=2.0)
        assert t.batch_sizes() == [500, 500, 1000, 1000]
        assert t.boundaries_for(2000) == (500, 500, 1000)
        # A vector truncated by a *different* max_runs still replays.
        assert t.boundaries_for(1500) == (500, 500, 500)

    def test_stopping_respects_bounds_and_target(self):
        loose = CITarget(rel=0.9, min_runs=500, max_runs=32000)
        cell = adaptive_samples("retrying", BASE, target=loose)
        assert cell.samples.size == 500  # stops at the floor, never below
        assert cell.converged

        tight = CITarget(rel=1e-7, min_runs=500, max_runs=2000)
        cell = adaptive_samples("retrying", BASE, target=tight)
        assert cell.samples.size == 2000  # the ceiling, never beyond
        assert not cell.converged

        mid = CITarget(rel=0.05, min_runs=500, max_runs=64000)
        cell = adaptive_samples("retrying", BASE, target=mid)
        assert 500 <= cell.samples.size <= 64000
        assert cell.converged
        assert cell.summary.rel_halfwidth <= 0.05

    @pytest.mark.parametrize("mode", [None, "antithetic", "crn"])
    def test_delivered_halfwidth_meets_target(self, mode):
        target = CITarget(rel=0.03, min_runs=500, max_runs=128000)
        grid = evaluate_grid(
            BASE,
            [10.0, 40.0],
            ["retrying", "checkpointing"],
            target=target,
            variance_reduction=mode,
        )
        assert grid.all_converged
        for cell in grid.cells.values():
            assert cell.summary.rel_halfwidth <= 0.03


class TestVarianceReductionKernels:
    def test_antithetic_mirrors_uniform_pairs(self):
        gen = AntitheticGenerator(np.random.default_rng(0))
        draws = gen.exponential(1.0, size=6)
        # exp(-x) recovers 1-u, and the mirror draw used u itself, so the
        # survival probabilities of each (fresh, mirror) pair sum to 1.
        survival = np.exp(-draws)
        np.testing.assert_allclose(survival[:3] + survival[3:], 1.0, atol=1e-12)

    def test_antithetic_marginals_are_exact_exponentials(self):
        gen = AntitheticGenerator(np.random.default_rng(3))
        draws = gen.exponential(5.0, size=200_000)
        assert abs(draws.mean() - 5.0) < 0.1
        assert abs(np.median(draws) - 5.0 * np.log(2)) < 0.1

    def test_pair_means_layout(self):
        np.testing.assert_array_equal(
            pair_means(np.array([1.0, 2.0, 3.0, 4.0])), [2.0, 3.0]
        )
        # Odd batch: element i pairs with i + ceil(n/2); the middle fresh
        # draw stays a singleton, preserving the mean exactly.
        np.testing.assert_array_equal(
            pair_means(np.array([1.0, 2.0, 3.0, 4.0, 5.0])), [2.5, 3.5, 3.0]
        )

    def test_antithetic_summary_preserves_mean_and_reports_ess(self):
        cell = adaptive_samples(
            "checkpointing", BASE, variance_reduction="antithetic"
        )
        assert cell.summary.mean == pytest.approx(float(cell.samples.mean()))
        assert cell.summary.ess > 0
        assert cell.summary.ci_halfwidth > 0

    def test_crn_is_deterministic(self):
        a = adaptive_samples("retrying", BASE, variance_reduction="crn")
        b = adaptive_samples("retrying", BASE, variance_reduction="crn")
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_crn_correlates_mttf_points(self):
        # checkpointing consumes a deterministic number of uniforms per
        # run, so replaying one pool from position zero aligns runs
        # one-to-one across MTTF points (techniques with data-dependent
        # consumption desynchronise and only keep batch-level sharing).
        grid = evaluate_grid(
            BASE, [15.0, 20.0], ["checkpointing"], variance_reduction="crn"
        )
        x = grid.cells[("checkpointing", 15.0)].samples
        y = grid.cells[("checkpointing", 20.0)].samples
        assert np.corrcoef(x, y)[0, 1] > 0.5
        # The point of CRN: the *difference* of the two curves is far less
        # noisy than independent sampling would make it.
        assert np.var(x - y) < 0.25 * (np.var(x) + np.var(y))

    def test_uniform_pool_is_stable_under_growth(self):
        pool = UniformPool(np.random.SeedSequence(42))
        head = pool.take(0, 100).copy()
        pool.take(0, 500_000)  # force several extensions
        np.testing.assert_array_equal(pool.take(0, 100), head)

    def test_unknown_mode_rejected(self):
        with pytest.raises(SimulationError):
            adaptive_samples("retrying", BASE, variance_reduction="qmc")


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    technique=st.sampled_from(["retrying", "checkpointing"]),
    mode=st.sampled_from(["antithetic", "crn"]),
)
def test_variance_reduced_estimators_are_unbiased(seed, technique, mode):
    """Antithetic and CRN estimates must agree with the *exact* analytical
    mean within their own confidence interval (5x slack keeps the 8-example
    hypothesis run deterministic-in-practice)."""
    params = SimulationParams(mttf=20.0, runs=8000, seed=seed)
    cell = adaptive_samples(technique, params, variance_reduction=mode)
    truth = expected_time(params, technique)
    assert abs(cell.summary.mean - truth) <= 5.0 * cell.summary.ci_halfwidth


class TestAdaptiveCache:
    def test_budget_independent_hit(self, tmp_path):
        store = SampleCache(tmp_path)
        small = CITarget(rel=0.05, min_runs=500, max_runs=8000)
        first = adaptive_samples(
            "retrying", BASE, target=small, cache=store
        )
        assert first.converged and not first.cached
        # A *larger* budget must still hit: the cell already satisfies the
        # CI target, so max_runs plays no part in the key.
        big = CITarget(rel=0.05, min_runs=500, max_runs=512_000)
        second = adaptive_samples("retrying", BASE, target=big, cache=store)
        assert second.cached
        np.testing.assert_array_equal(first.samples, second.samples)
        assert second.summary.ci_halfwidth == first.summary.ci_halfwidth

    def test_exhausted_cell_reused_only_within_budget(self, tmp_path):
        store = SampleCache(tmp_path)
        impossible = CITarget(rel=1e-7, min_runs=500, max_runs=2000)
        first = adaptive_samples(
            "retrying", BASE, target=impossible, cache=store
        )
        assert not first.converged and first.samples.size == 2000
        # Same budget: the stored vector already spent it — hit.
        again = adaptive_samples(
            "retrying", BASE, target=impossible, cache=store
        )
        assert again.cached and again.samples.size == 2000
        # A larger budget can refine further — the stale vector must NOT
        # be served.
        more = CITarget(rel=1e-7, min_runs=500, max_runs=8000)
        refined = adaptive_samples(
            "retrying", BASE, target=more, cache=store
        )
        assert not refined.cached and refined.samples.size == 8000

    def test_modes_never_share_entries(self, tmp_path):
        store = SampleCache(tmp_path)
        target = CITarget(rel=0.5, min_runs=500, max_runs=2000)
        plain = adaptive_samples("retrying", BASE, target=target, cache=store)
        crn = adaptive_samples(
            "retrying",
            BASE,
            target=target,
            variance_reduction="crn",
            cache=store,
        )
        assert not crn.cached
        assert not np.array_equal(plain.samples, crn.samples)


class TestEngineAdaptive:
    def test_adaptive_vector_is_prefix_of_fixed(self):
        params = SimulationParams(mttf=20.0, runs=100, seed=11)
        fixed = engine_samples("retrying", params, runs=40)
        loose = CITarget(rel=0.9, min_runs=10, max_runs=40)
        adaptive = engine_samples("retrying", params, runs=40, target_ci=loose)
        assert adaptive.size == 10
        np.testing.assert_array_equal(adaptive, fixed[:10])

    def test_bare_float_target_uses_runs_as_ceiling(self):
        params = SimulationParams(mttf=20.0, runs=100, seed=11)
        samples = engine_samples(
            "retrying", params, runs=24, target_ci=1e-9
        )
        assert samples.size == 24  # budget exhausted, never exceeded

    def test_engine_adaptive_cache_hit(self, tmp_path):
        store = SampleCache(tmp_path)
        params = SimulationParams(mttf=20.0, runs=100, seed=11)
        loose = CITarget(rel=0.9, min_runs=10, max_runs=40)
        first = engine_samples(
            "retrying", params, runs=40, target_ci=loose, cache=store
        )
        before = store.stats()["hits"]
        second = engine_samples(
            "retrying", params, runs=40, target_ci=loose, cache=store
        )
        assert store.stats()["hits"] == before + 1
        np.testing.assert_array_equal(first, second)


#: (source, CI target, variance reduction) — every combination the
#: pipeline defines (the engine path has no uniforms to mirror or share).
_LOOSE = CITarget(rel=0.05, min_runs=200, max_runs=3200)
_ENGINE_LOOSE = CITarget(rel=0.3, min_runs=6, max_runs=24)
PIPELINE_CASES = [
    ("sampler", None, None),
    ("sampler", None, "antithetic"),
    ("sampler", None, "crn"),
    ("sampler", _LOOSE, None),
    ("sampler", _LOOSE, "antithetic"),
    ("sampler", _LOOSE, "crn"),
    ("engine", None, None),
    ("engine", _ENGINE_LOOSE, None),
]


class TestPipelineAdapters:
    """Every public route is the pipeline: same vector, same summary."""

    TECHNIQUES = ("retrying", "checkpointing")
    MTTFS = (10.0, 40.0)

    @pytest.mark.parametrize("source,target,mode", PIPELINE_CASES)
    def test_adapters_return_the_pipelines_estimates(self, source, target, mode):
        if source == "engine":
            return self._engine(target)
        params = dataclasses.replace(BASE, runs=600)
        keys = [(t, m) for t in self.TECHNIQUES for m in self.MTTFS]
        cells = [(t, params.with_mttf(m)) for t, m in keys]
        options = {"target": target, "variance_reduction": mode}
        pipeline = dict(zip(keys, estimate_cells(cells, **options)))
        if target is not None:  # the schedule really ran more than a round
            assert len({e.samples.size for e in pipeline.values()}) > 1

        grid = evaluate_grid(params, self.MTTFS, self.TECHNIQUES, **options)
        series = sweep_mttf(
            params,
            self.MTTFS,
            self.TECHNIQUES,
            target_ci=target,
            variance_reduction=mode,
        )
        for (t, m), want in pipeline.items():
            single = adaptive_samples(t, params.with_mttf(m), **options)
            for got in (grid.cells[(t, m)], single):
                np.testing.assert_array_equal(got.samples, want.samples)
                assert got.summary == want.summary
                assert got.boundaries == want.boundaries
                assert got.converged == want.converged
            assert series[t].summaries[self.MTTFS.index(m)] == want.summary
        if target is None and mode is None:
            for t in self.TECHNIQUES:
                declarative = sweep(
                    self.MTTFS, technique=t, params_of=params.with_mttf, label=t
                )
                for m, summary in zip(self.MTTFS, declarative.summaries):
                    assert summary == pipeline[(t, m)].summary
                    # ... and the naive reference: the sampler, called once.
                    np.testing.assert_array_equal(
                        pipeline[(t, m)].samples,
                        sample_technique(t, params.with_mttf(m)),
                    )

    def _engine(self, target):
        params = SimulationParams(mttf=20.0, runs=100, seed=11)
        cells = [(t, params) for t in self.TECHNIQUES]
        pipeline = estimate_cells(cells, runs=24, target=target, engine=True)
        for (t, _), want in zip(cells, pipeline):
            got = engine_samples(t, params, runs=24, target_ci=target)
            np.testing.assert_array_equal(got, want.samples)
            confidence = 0.99 if target is None else target.confidence
            assert summarize(got, confidence=confidence) == want.summary
            # The naive reference: one fresh engine per run index.  A
            # CI-targeted vector is a prefix of it.
            naive = [
                run_engine_once(t, params, seed=seed_for(params.seed, i))
                for i in range(want.samples.size)
            ]
            assert want.samples.tolist() == naive
            assert want.samples.size == 24 or want.converged

    def test_engine_cells_reject_variance_reduction(self):
        with pytest.raises(SimulationError):
            estimate_cells(
                [("retrying", BASE)], engine=True, variance_reduction="crn"
            )


class TestDeclarativeSweep:
    def params_of(self, n):
        return dataclasses.replace(BASE, replicas=int(n), runs=2000)

    def test_matches_direct_sampling(self):
        series = sweep(
            [1, 2, 3],
            technique="replication",
            params_of=self.params_of,
            label="replicas",
        )
        expected = [
            float(sample_technique("replication", self.params_of(n)).mean())
            for n in (1, 2, 3)
        ]
        assert list(series.y) == expected

    def test_jobs_bit_identical(self):
        seq = sweep(
            [1, 3],
            technique="replication",
            params_of=self.params_of,
            label="replicas",
        )
        par = sweep(
            [1, 3],
            technique="replication",
            params_of=self.params_of,
            label="replicas",
            jobs=2,
        )
        assert seq.y == par.y

    def test_cache_round_trip(self, tmp_path):
        store = SampleCache(tmp_path)
        first = sweep(
            [1, 2],
            technique="replication",
            params_of=self.params_of,
            label="replicas",
            cache=store,
        )
        assert store.stats()["stores"] == 2
        second = sweep(
            [1, 2],
            technique="replication",
            params_of=self.params_of,
            label="replicas",
            cache=store,
        )
        assert store.stats()["hits"] == 2
        assert first.y == second.y

    def test_argument_validation(self):
        with pytest.raises(SimulationError):
            sweep([1.0], lambda x: np.ones(3), label="x", technique="retrying")
        with pytest.raises(SimulationError):
            sweep([1.0], lambda x: np.ones(3), label="x", jobs=2)
        with pytest.raises(SimulationError):
            sweep([1.0], label="x")
        with pytest.raises(SimulationError):
            sweep([1.0], label="x", technique="retrying")


class TestCLIFlags:
    def test_mc_target_ci_json(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "mc",
                    "--technique",
                    "checkpointing",
                    "--runs",
                    "4000",
                    "--target-ci",
                    "0.05",
                    "--min-runs",
                    "500",
                    "--json",
                ]
            )
            == 0
        )
        [row] = json.loads(capsys.readouterr().out)
        assert row["converged"]
        assert row["runs"] <= 4000
        assert row["rel_ci"] <= 0.05

    def test_mc_vr_flags_conflict(self, capsys):
        from repro.cli import main

        assert main(["mc", "--antithetic", "--crn", "--runs", "100"]) == 2
        assert main(["mc", "--engine", "--antithetic", "--runs", "10"]) == 2

    def test_mc_engine_reports_budget_exhaustion(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "mc",
                    "--engine",
                    "--technique",
                    "checkpointing",
                    "--runs",
                    "20",
                    "--target-ci",
                    "1e-9",
                    "--min-runs",
                    "10",
                    "--json",
                ]
            )
            == 0
        )
        [row] = json.loads(capsys.readouterr().out)
        assert row["runs"] == 20
        assert not row["converged"]  # engine path must not fake convergence

    def test_sweep_subcommand_csv(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "sweep",
                    "--technique",
                    "retrying",
                    "--mttfs",
                    "10,20",
                    "--runs",
                    "2000",
                    "--target-ci",
                    "0.1",
                    "--crn",
                    "--csv",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("mttf,")
        assert len(out) == 3
