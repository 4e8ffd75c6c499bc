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
import inspect
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
    estimate_cells,
    evaluate_grid,
    sample_technique,
    seed_for,
    summarize,
    sweep,
    sweep_mttf,
)
from repro.sim.adaptive import CRNGenerator, UniformPool, pair_means
from repro.sim.analytical import expected_time
from repro.sim.samplers import EXTENDED_TECHNIQUES
from tests.helpers import run_engine_once


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
    # Figure 13's three, captured while each sampler still picked its own
    # default stream (before the salt table moved beside them).
    ("figure13", "exception_retrying"): "72ac11db44862d80",
    ("figure13", "exception_checkpointing"): "519901248d27c821",
    ("figure13", "alternative_task"): "d58514e19b953251",
}

#: Figure 13's cells: no host failures, one exception probability.
FIGURE13 = SimulationParams(exception_probability=0.05, runs=4000, seed=7)

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


@pytest.mark.contract
class TestBitIdentity:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("technique", EXTENDED_TECHNIQUES)
    def test_samplers_match_pre_adaptive_golden(self, config, technique):
        samples = sample_technique(technique, CONFIGS[config])
        assert _digest(samples) == GOLDEN[(config, technique)]

    @pytest.mark.parametrize(
        "technique",
        ["exception_retrying", "exception_checkpointing", "alternative_task"],
    )
    def test_figure13_samplers_match_golden(self, technique):
        samples = sample_technique(technique, FIGURE13)
        assert _digest(samples) == GOLDEN[("figure13", technique)]
        [cell] = estimate_cells([(technique, FIGURE13)])
        assert _digest(cell.samples) == GOLDEN[("figure13", technique)]

    @pytest.mark.parametrize("technique", EXTENDED_TECHNIQUES)
    def test_disabled_adaptive_path_is_the_plain_sampler(self, technique):
        [cell] = estimate_cells([(technique, BASE)])
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
    def test_only_a_citarget_is_a_target(self):
        # A bare number has no bounds: the CLI turns one into a target
        # (with --runs/--min-runs/--max-runs), the library takes none.
        assert not hasattr(CITarget, "of")
        for target in (0.05, "0.05"):
            with pytest.raises(SimulationError, match="CITarget"):
                estimate_cells([("retrying", BASE)], target=target)
            with pytest.raises(SimulationError, match="CITarget"):
                evaluate_grid(BASE, [20.0], ["retrying"], target=target)
            with pytest.raises(SimulationError, match="CITarget"):
                sweep_mttf(BASE, [20.0], ["retrying"], target_ci=target)

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
        [cell] = estimate_cells([("retrying", BASE)], target=loose)
        assert cell.samples.size == 500  # stops at the floor, never below
        assert cell.converged

        tight = CITarget(rel=1e-7, min_runs=500, max_runs=2000)
        [cell] = estimate_cells([("retrying", BASE)], target=tight)
        assert cell.samples.size == 2000  # the ceiling, never beyond
        assert not cell.converged

        mid = CITarget(rel=0.05, min_runs=500, max_runs=64000)
        [cell] = estimate_cells([("retrying", BASE)], target=mid)
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
        [cell] = estimate_cells(
            [("checkpointing", BASE)], variance_reduction="antithetic"
        )
        assert cell.summary.mean == pytest.approx(float(cell.samples.mean()))
        assert cell.summary.ess > 0
        assert cell.summary.ci_halfwidth > 0

    def test_crn_is_deterministic(self):
        [a] = estimate_cells([("retrying", BASE)], variance_reduction="crn")
        [b] = estimate_cells([("retrying", BASE)], variance_reduction="crn")
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
            estimate_cells([("retrying", BASE)], variance_reduction="qmc")


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
    [cell] = estimate_cells([(technique, params)], variance_reduction=mode)
    truth = expected_time(params, technique)
    assert abs(cell.summary.mean - truth) <= 5.0 * cell.summary.ci_halfwidth


class TestAdaptiveCache:
    def test_budget_independent_hit(self, tmp_path):
        store = SampleCache(tmp_path)
        small = CITarget(rel=0.05, min_runs=500, max_runs=8000)
        [first] = estimate_cells([("retrying", BASE)], target=small, cache=store)
        assert first.converged and not first.cached
        # A *larger* budget must still hit: the cell already satisfies the
        # CI target, so max_runs plays no part in the key.
        big = CITarget(rel=0.05, min_runs=500, max_runs=512_000)
        [second] = estimate_cells([("retrying", BASE)], target=big, cache=store)
        assert second.cached
        np.testing.assert_array_equal(first.samples, second.samples)
        assert second.summary.ci_halfwidth == first.summary.ci_halfwidth

    def test_exhausted_cell_reused_only_within_budget(self, tmp_path):
        store = SampleCache(tmp_path)
        impossible = CITarget(rel=1e-7, min_runs=500, max_runs=2000)
        [first] = estimate_cells(
            [("retrying", BASE)], target=impossible, cache=store
        )
        assert not first.converged and first.samples.size == 2000
        # Same budget: the stored vector already spent it — hit.
        [again] = estimate_cells(
            [("retrying", BASE)], target=impossible, cache=store
        )
        assert again.cached and again.samples.size == 2000
        # A larger budget can refine further — the stale vector must NOT
        # be served.
        more = CITarget(rel=1e-7, min_runs=500, max_runs=8000)
        [refined] = estimate_cells([("retrying", BASE)], target=more, cache=store)
        assert not refined.cached and refined.samples.size == 8000

    def test_modes_never_share_entries(self, tmp_path):
        store = SampleCache(tmp_path)
        target = CITarget(rel=0.5, min_runs=500, max_runs=2000)
        [plain] = estimate_cells([("retrying", BASE)], target=target, cache=store)
        [crn] = estimate_cells(
            [("retrying", BASE)],
            target=target,
            variance_reduction="crn",
            cache=store,
        )
        assert not crn.cached
        assert not np.array_equal(plain.samples, crn.samples)


class TestEngineAdaptive:
    def test_adaptive_vector_is_prefix_of_fixed(self):
        params = SimulationParams(mttf=20.0, runs=100, seed=11)
        [fixed] = estimate_cells([("retrying", params)], runs=40, engine=True)
        loose = CITarget(rel=0.9, min_runs=10, max_runs=40)
        [adaptive] = estimate_cells([("retrying", params)], target=loose, engine=True)
        assert adaptive.samples.size == 10
        np.testing.assert_array_equal(adaptive.samples, fixed.samples[:10])

    def test_engine_adaptive_cache_hit(self, tmp_path):
        store = SampleCache(tmp_path)
        params = SimulationParams(mttf=20.0, runs=100, seed=11)
        loose = CITarget(rel=0.9, min_runs=10, max_runs=40)
        cells = [("retrying", params)]
        [first] = estimate_cells(cells, target=loose, engine=True, cache=store)
        before = store.stats()["hits"]
        [second] = estimate_cells(cells, target=loose, engine=True, cache=store)
        assert store.stats()["hits"] == before + 1
        np.testing.assert_array_equal(first.samples, second.samples)


#: SHA-256 of ``samples.tobytes()`` recorded from the single-cell adapters
#: this pipeline replaced (``engine_samples`` / ``adaptive_samples``), at
#: ``SimulationParams(mttf=20, runs=100, seed=11)``: a 24-run engine cell
#: and a CI-targeted one under the rule those adapters applied to a bare
#: 0.3 (floor ``min(100, runs)``, ceiling ``runs`` = 200).
ENGINE_PINS = {
    "retrying": (
        "dcda2679c1a0e50902c2263c3346cf6c44050aafa07ef221a1709c181695afea",
        "9d586b5a51b53114901f08f7272956df8c9987100ae678df71b801848609990b",
    ),
    "checkpointing": (
        "410d2a8482510bc848d034a49acbbbeb0b3c510d7701b52c7893fd49ed82185b",
        "526137c6e9b01efbb4f6538c4135c6592affa1a1532ea2aa78515d6b32068e67",
    ),
    "replication": (
        "325aa9a5ee2fc748166b10e8c5ddcde7b65b1a4318fadae06c783d3b59b332ce",
        "17b28d473ef97e7ebf44d644dc3f4f291f3c92f1634594436eaef7573ab7fa09",
    ),
    "replication_checkpointing": (
        "b124dabbbeefdfbe0e394292923d6323a0ef49d53eba14443cc5c9f5fa5dffba",
        "56d7fa461f7bce502d8dda9050c2b83f9378c4f0b3785ed6f6d4f6d975f6fbbf",
    ),
    "backoff_retry": (
        "1a21b6ad9b7468d84d9d30eaec77fab39448755d6f4757f48881b840ac23a20e",
        "4474b6dc42451b1c526e5aa3d2225862f07720f205fa397951541403392d0813",
    ),
}
#: ``adaptive_samples("retrying", BASE, target=CITarget(rel=0.05))``.
ADAPTIVE_PIN = "b8366c72cb2a2758aae521d4fecc77d5c05265d5da880d33331cd589b4e2f47e"


def _sha256(samples: np.ndarray) -> str:
    return hashlib.sha256(samples.tobytes()).hexdigest()


class TestOneCellPins:
    """One cell asked of the pipeline is the vector the removed
    single-cell adapters returned, bit for bit."""

    @pytest.mark.parametrize("technique", EXTENDED_TECHNIQUES)
    def test_engine_cells(self, technique):
        params = SimulationParams(mttf=20.0, runs=100, seed=11)
        cells = [(technique, params)]
        [fixed] = estimate_cells(cells, runs=24, engine=True)
        target = CITarget(rel=0.3, min_runs=100, max_runs=200)
        [targeted] = estimate_cells(cells, target=target, engine=True)
        assert targeted.samples.size == 100
        got = (_sha256(fixed.samples), _sha256(targeted.samples))
        assert got == ENGINE_PINS[technique]

    def test_adaptive_cell(self):
        [cell] = estimate_cells([("retrying", BASE)], target=CITarget(rel=0.05))
        assert cell.converged
        assert _sha256(cell.samples) == ADAPTIVE_PIN


def _pin_table(text: str, key: int) -> dict[tuple[str, ...], str]:
    """Rows of words: the first *key* name a case, the rest, joined by one
    space, are what it must produce."""
    rows = [line.split() for line in text.strip().splitlines()]
    return {tuple(row[:key]): " ".join(row[key:]) for row in rows}


_FIELDS = ("n", "mean", "std", "ci_halfwidth", "p50", "p95", "ess")


def _hexes(summary) -> str:
    return " ".join(float.hex(float(getattr(summary, f))) for f in _FIELDS)


#: Every kernel that writes draws in place is pinned to what the
#: out-of-place kernels gave: per (variance reduction, budget, technique,
#: MTTF), the ``_digest`` of the samples and then every ``Summary`` field
#: (``_FIELDS``) as ``float.hex``.  Each budget is one ``estimate_cells``
#: call over all ten cells, so the CRN cells of a technique share one pool;
#: 3 001 runs and ``min_runs=501`` make every antithetic batch odd.
VR_PARAMS = dataclasses.replace(BASE, downtime=30.0)
VR_MTTFS = (10.0, 40.0)
VR_BUDGETS = {
    "fixed": {"runs": 3001},
    "target": {"target": CITarget(rel=0.02, min_runs=501, max_runs=16000)},
}
VR_PINS = _pin_table(
    """
antithetic fixed retrying 10.0 b3a15474858b269c 0x1.7720000000000p+11 0x1.833526fb07c8ep+9 0x1.860b05a8f36c1p+9 0x1.28601f5dc363dp+5 0x1.13f50051300e9p+9 0x1.208d1891b19fap+11 0x1.6fb7cae97ce01p+11
antithetic fixed retrying 40.0 246cf25311271c6d 0x1.7720000000000p+11 0x1.36d008eea4dd2p+6 0x1.23e28546bfc9bp+6 0x1.65755c836702cp+1 0x1.5067a3ac09cecp+5 0x1.c036ce6c803e1p+7 0x1.1b1faafdce466p+12
antithetic fixed checkpointing 10.0 cf4cba67be0291b5 0x1.7720000000000p+11 0x1.1e2e4cc5e6f73p+7 0x1.464093524b245p+6 0x1.cf04d07e721dfp+1 0x1.fd203835f5c26p+6 0x1.2bf77fd3fa3bap+8 0x1.a5a46367ec981p+11
antithetic fixed checkpointing 40.0 3274a45055083ce3 0x1.7720000000000p+11 0x1.028b1643d2969p+6 0x1.3b8fba2bd69abp+5 0x1.d7fb33ce002d0p+0 0x1.5d487d1298122p+5 0x1.25f57ecab4d54p+7 0x1.7b9f809f8ff5ep+11
antithetic fixed replication 10.0 d7fa18a475dc7e7a 0x1.7720000000000p+11 0x1.ffdf6570998dep+7 0x1.065d1fb180c70p+8 0x1.8fb15cc0b97cep+3 0x1.61f7ff3c91aafp+7 0x1.6f407102b024ap+9 0x1.6dec30f3202c3p+11
antithetic fixed replication 40.0 07dc673222bc8ac8 0x1.7720000000000p+11 0x1.1c0ebd296daddp+5 0x1.10f3dd990b2d2p+4 0x1.88f0e5330f501p-1 0x1.e000000000000p+4 0x1.16d983ec0e9f1p+6 0x1.99c8788e41697p+11
antithetic fixed replication_checkpointing 10.0 b98d3e38ff1a5f3c 0x1.7720000000000p+11 0x1.451b7e381d877p+6 0x1.2f106cfac85d5p+5 0x1.bd0cea1e9fb6ep+0 0x1.2184386bef652p+6 0x1.35e95ef239b06p+7 0x1.89cef0bcec936p+11
antithetic fixed replication_checkpointing 40.0 0c705ad9f78c55ca 0x1.7720000000000p+11 0x1.5370a946f8bd5p+5 0x1.03bf7a0ba6a04p+3 0x1.87098e6001664p-2 0x1.4000000000000p+5 0x1.d0da4fa15111ep+5 0x1.76b7436f81386p+11
antithetic fixed backoff_retry 10.0 9b490dbfb917f3ad 0x1.7720000000000p+11 0x1.c600ca271150ap+9 0x1.c76809a2b49c1p+9 0x1.52d837c4ebfedp+5 0x1.3ba0da7e8b499p+9 0x1.54a6a5b0915d8p+11 0x1.7f815b4a5a0dap+11
antithetic fixed backoff_retry 40.0 27906bced3410db6 0x1.7720000000000p+11 0x1.4649edae89f2cp+6 0x1.4463fd8e3cbdap+6 0x1.972f273d29d7dp+1 0x1.5d088a7c834a4p+5 0x1.f5a23d9771f2dp+7 0x1.0d80062d327b6p+12
antithetic target retrying 10.0 33dffd451a2eff4d 0x1.f400000000000p+13 0x1.7c9c178b332e2p+9 0x1.7a56b376c5f31p+9 0x1.ea5402016e243p+3 0x1.081cbbc75bde0p+9 0x1.2076376596808p+11 0x1.f99e11da5fb00p+13
antithetic target retrying 40.0 898c58d1054c1372 0x1.f400000000000p+13 0x1.3a2b6ac4600e5p+6 0x1.2a1f4757cd24bp+6 0x1.43a00e0d2f9d9p+0 0x1.6092f986590bdp+5 0x1.d3c0bb72d83c0p+7 0x1.68561e2d2322bp+14
antithetic target checkpointing 10.0 0eb632c1fb4fd90a 0x1.f500000000000p+12 0x1.1af67ce69b3a6p+7 0x1.4396e86c9d2eap+6 0x1.1c8ed110a7dc4p+1 0x1.f40649e2a893ep+6 0x1.29b48dc919303p+8 0x1.128cdc971d8e4p+13
antithetic target checkpointing 40.0 7bad7dffa70d68c3 0x1.f500000000000p+12 0x1.ff729087170c1p+5 0x1.31cd4cadddaacp+5 0x1.120e6c49b0f23p+0 0x1.5c13caa096336p+5 0x1.1f1a808999594p+7 0x1.0858efa42e237p+13
antithetic target replication 10.0 a4f3a153f2300c13 0x1.f400000000000p+13 0x1.fc682d41cfa8bp+7 0x1.fd6b452bb1083p+7 0x1.49633490a386dp+2 0x1.5ae2c80c94462p+7 0x1.7ec1114cb9a67p+9 0x1.fbd211296821cp+13
antithetic target replication 40.0 e62e3d38542e4092 0x1.f500000000000p+11 0x1.187171ba04e71p+5 0x1.f72389e240bb8p+3 0x1.360a0b90efd74p-1 0x1.e000000000000p+4 0x1.0f88f7b805de6p+6 0x1.179143f2bb5f1p+12
antithetic target replication_checkpointing 10.0 855a904748f5b0c5 0x1.f500000000000p+11 0x1.4780b2a481ffcp+6 0x1.2f326e0b9acf7p+5 0x1.819645cdeaf52p+0 0x1.236bf89a8488dp+6 0x1.36567bc4c5d94p+7 0x1.068c5f2550995p+12
antithetic target replication_checkpointing 40.0 6b4c1eeb97566a3c 0x1.f500000000000p+8 0x1.4f55ab4c4b6e9p+5 0x1.b7bfe1331d8f3p+2 0x1.88e5791d8f332p-1 0x1.4000000000000p+5 0x1.a9696d5cf131ap+5 0x1.09f7be1e40f7bp+9
antithetic target backoff_retry 10.0 02009e9084de8300 0x1.f400000000000p+13 0x1.bdb33b26b1f9cp+9 0x1.c2a547e8b8941p+9 0x1.29e442a0e2468p+4 0x1.33fe2d167cff8p+9 0x1.50aa7d2035d22p+11 0x1.e5e0f8b02a4bbp+13
antithetic target backoff_retry 40.0 a3e8f14e98010742 0x1.f400000000000p+13 0x1.43bbbc10ba9a6p+6 0x1.3e75d4e9e10e5p+6 0x1.56f0de435da1dp+0 0x1.62bace38233cbp+5 0x1.e19e3f91f772bp+7 0x1.6e2a1d864ad36p+14
crn fixed retrying 10.0 44a3f427a7fe41c4 0x1.7720000000000p+11 0x1.71c015a5ef8b8p+9 0x1.7111198d376e5p+9 0x1.15a7736b15a7dp+5 0x1.f7e675f52e42ap+8 0x1.154e6ffb43092p+11 0x1.7720000000000p+11
crn fixed retrying 40.0 1571ad5b77b0bb49 0x1.7720000000000p+11 0x1.31443e91045ddp+6 0x1.1de38386a288bp+6 0x1.ae27fa3751103p+1 0x1.3ed9983deb45ap+5 0x1.b80b0baac0ec8p+7 0x1.7720000000000p+11
crn fixed checkpointing 10.0 37826bbccf0dae70 0x1.7720000000000p+11 0x1.18cf75629e9a4p+7 0x1.46e5f646f3d6ep+6 0x1.ebdc3c61e589ep+1 0x1.eb411fb4fb32cp+6 0x1.25a1666532464p+8 0x1.7720000000000p+11
crn fixed checkpointing 40.0 202fdbd3bd23e42e 0x1.7720000000000p+11 0x1.02bad2709237bp+6 0x1.3c4553994065fp+5 0x1.dbdeb1174c8d3p+0 0x1.5c85eb9c8da4ap+5 0x1.2565a08a34b30p+7 0x1.7720000000000p+11
crn fixed replication 10.0 d36bcc8399d44954 0x1.7720000000000p+11 0x1.f446bf8fc2e7cp+7 0x1.fcb671fadd369p+7 0x1.7eb62ec352631p+3 0x1.4f43528e3bb4ap+7 0x1.75d210a87f7e4p+9 0x1.7720000000000p+11
crn fixed replication 40.0 dffe6a304703d537 0x1.7720000000000p+11 0x1.1a0a822f156d6p+5 0x1.0bb25260408d2p+4 0x1.92c8a2e1b5c85p-1 0x1.e000000000000p+4 0x1.12f3605b0ee10p+6 0x1.7720000000000p+11
crn fixed replication_checkpointing 10.0 ec8cd7b69a59572b 0x1.7720000000000p+11 0x1.477e3dfa6169ep+6 0x1.2fc3d6f18c447p+5 0x1.c90da52555e71p+0 0x1.2561622be799dp+6 0x1.3514532703652p+7 0x1.7720000000000p+11
crn fixed replication_checkpointing 40.0 1ab6a19a75417c0f 0x1.7720000000000p+11 0x1.54de5a979dd60p+5 0x1.1790b87ab85b4p+3 0x1.a4a44bc7d7a7bp-2 0x1.4000000000000p+5 0x1.d7a8ed4e67688p+5 0x1.7720000000000p+11
crn fixed backoff_retry 10.0 b4f6fb1090ccae7a 0x1.7720000000000p+11 0x1.bf5f7893ae31dp+9 0x1.c6dc38bec1173p+9 0x1.56329d3884b83p+5 0x1.2dc7ee2c5c2d2p+9 0x1.5a3f20b9bc45cp+11 0x1.7720000000000p+11
crn fixed backoff_retry 40.0 e015e2121693a522 0x1.7720000000000p+11 0x1.48ede7853fbfcp+6 0x1.4564025f4c9f0p+6 0x1.e99785447691ep+1 0x1.6f904cecc8204p+5 0x1.efe0a0c4eede6p+7 0x1.7720000000000p+11
crn target retrying 10.0 c5cc40aef1306628 0x1.f400000000000p+13 0x1.7b6d2513dabe9p+9 0x1.7789d9a1b4224p+9 0x1.e96ceb4847ce5p+3 0x1.0b8d60c8a3640p+9 0x1.193ce4f080328p+11 0x1.f400000000000p+13
crn target retrying 40.0 de4d6d5bf0189e87 0x1.f400000000000p+13 0x1.34fdab324079cp+6 0x1.23fee5bb284dcp+6 0x1.7c8c175fb8aaap+0 0x1.55905137e42e2p+5 0x1.c68a56a60c9acp+7 0x1.f400000000000p+13
crn target checkpointing 10.0 6a2ea61ca615fb6f 0x1.f500000000000p+12 0x1.1c91bc62159e0p+7 0x1.4557d05542229p+6 0x1.2b84ee7f9b4dcp+1 0x1.f4bd5a71a92b8p+6 0x1.2bb551aa3b119p+8 0x1.f500000000000p+12
crn target checkpointing 40.0 b204947b489ddf9a 0x1.f500000000000p+12 0x1.02bb8354e51dbp+6 0x1.3f853686a6dcbp+5 0x1.2628a54be18fbp+0 0x1.5b5ade42954a6p+5 0x1.2351e2a506214p+7 0x1.f500000000000p+12
crn target replication 10.0 fb085ea30b4b106a 0x1.f400000000000p+13 0x1.fa476bd4321cdp+7 0x1.f665188dc27afp+7 0x1.47605afa5d350p+2 0x1.5d60df0a5839dp+7 0x1.77a27d240f251p+9 0x1.f400000000000p+13
crn target replication 40.0 bb796b895c755a8a 0x1.f500000000000p+11 0x1.1a4cf2575a2d4p+5 0x1.050359b1720f0p+4 0x1.53d43ed3a1c67p-1 0x1.e000000000000p+4 0x1.12335970b71eap+6 0x1.f500000000000p+11
crn target replication_checkpointing 10.0 f8022117be5f6183 0x1.f500000000000p+11 0x1.45b1ba23a4167p+6 0x1.25a210dae0f9bp+5 0x1.7e4c8ef5b6f9ap+0 0x1.2979843f517a6p+6 0x1.2f0ad363975aap+7 0x1.f500000000000p+11
crn target replication_checkpointing 40.0 35941a13b257b15d 0x1.f500000000000p+8 0x1.520aa84ed4186p+5 0x1.cecb0f161c930p+2 0x1.aa0f39f4455ecp-1 0x1.4000000000000p+5 0x1.c39da8f4a2ceap+5 0x1.f500000000000p+8
crn target backoff_retry 10.0 266fb9a3ebf14ba9 0x1.f400000000000p+13 0x1.bc5c0385e1749p+9 0x1.c447a172987e1p+9 0x1.26b845473314cp+4 0x1.317e94f85b108p+9 0x1.4e1b58f5f6d78p+11 0x1.f400000000000p+13
crn target backoff_retry 40.0 9e67a88ee72822dc 0x1.f400000000000p+13 0x1.4317c993bb9fap+6 0x1.4460927abf88ep+6 0x1.a6bfb8198e539p+0 0x1.55d8ee9fb2ed0p+5 0x1.ea9cd55f9acf8p+7 0x1.f400000000000p+13
""",
    key=4,
)
#: ``summarize(sample_technique(technique, CONFIGS[config]))`` for every
#: ``GOLDEN`` vector, each field (``_FIELDS``) as ``float.hex``.
SUMMARY_PINS = _pin_table(
    """
base retrying 0x1.f400000000000p+11 0x1.14926ad03a45cp+6 0x1.7211b8fbd18a2p+5 0x1.e24c2f36d49c2p+0 0x1.b2d86f8782be3p+5 0x1.4493beebdb117p+7 0x1.f400000000000p+11
base checkpointing 0x1.f400000000000p+11 0x1.5637011989d1dp+5 0x1.3359a2073a208p+1 0x1.908edfc840a15p-4 0x1.526c203962d5bp+5 0x1.7a1982d363483p+5 0x1.f400000000000p+11
base replication 0x1.f400000000000p+11 0x1.33e10980ff71fp+5 0x1.c5091825d1818p+3 0x1.27365670ad0e9p-1 0x1.e000000000000p+4 0x1.1009c0ac91a3fp+6 0x1.f400000000000p+11
base replication_checkpointing 0x1.f400000000000p+11 0x1.476d97504cdeep+5 0x1.2732ac13ad985p+0 0x1.80b8793d4ad47p-5 0x1.4000000000000p+5 0x1.5aa96d16eabcfp+5 0x1.f400000000000p+11
base backoff_retry 0x1.f400000000000p+11 0x1.5ee65a7d3d5bbp+6 0x1.26b72838d8ba1p+6 0x1.8017803f4e1e8p+1 0x1.e02bff12e9656p+5 0x1.d7bcfca6ca4ecp+7 0x1.f400000000000p+11
downtime_exp retrying 0x1.f400000000000p+11 0x1.67a3bf00adae9p+7 0x1.69fcd2dd5fb58p+7 0x1.d7c3dd5c96408p+2 0x1.d2b76c789d5ffp+6 0x1.1101fa576c6cfp+9 0x1.f400000000000p+11
downtime_exp checkpointing 0x1.f400000000000p+11 0x1.69333f7b766dbp+6 0x1.c547b5c7ae571p+5 0x1.275f23dad4ae7p+1 0x1.21ee3a6106038p+6 0x1.9a782c5f3c754p+7 0x1.f400000000000p+11
downtime_exp replication 0x1.f400000000000p+11 0x1.ecbb4bdc9c1e7p+5 0x1.9e3824fa9393fp+5 0x1.0deb1b7605d45p+1 0x1.e000000000000p+4 0x1.46be79da4383ep+7 0x1.f400000000000p+11
downtime_exp replication_checkpointing 0x1.f400000000000p+11 0x1.9b1b8aa1adda7p+5 0x1.27a68c433d633p+4 0x1.814f7d7aeb725p-1 0x1.4000000000000p+5 0x1.6f4353881f2b2p+6 0x1.f400000000000p+11
downtime_exp backoff_retry 0x1.f400000000000p+11 0x1.8a049c05fba51p+7 0x1.a9f971d12fa82p+7 0x1.15940ff261a58p+3 0x1.f0730d1593c64p+6 0x1.2e55d383d4b62p+9 0x1.f400000000000p+11
downtime_fixed retrying 0x1.f400000000000p+11 0x1.582935681d22ep+7 0x1.3ef35d94dea94p+7 0x1.9fad37a133f0fp+2 0x1.e9026ac505f4ap+6 0x1.e56c57b5629c3p+8 0x1.f400000000000p+11
downtime_fixed checkpointing 0x1.f400000000000p+11 0x1.6abf579702599p+6 0x1.54ee5acda4240p+5 0x1.bc52aa3dac47cp+0 0x1.214e58f4fbce8p+6 0x1.4e88aaf79cd86p+7 0x1.f400000000000p+11
downtime_fixed replication 0x1.f400000000000p+11 0x1.04ac10b92ed51p+6 0x1.96ddd6f01a734p+5 0x1.092089b91d026p+1 0x1.e000000000000p+4 0x1.50f27504ac1c4p+7 0x1.f400000000000p+11
downtime_fixed replication_checkpointing 0x1.f400000000000p+11 0x1.d245c2b6bfa0ep+5 0x1.5b0bbab4872d1p+4 0x1.c44ac294ee957p-1 0x1.4000000000000p+5 0x1.9d54b68b755e8p+6 0x1.f400000000000p+11
downtime_fixed backoff_retry 0x1.f400000000000p+11 0x1.85370448dc1e7p+7 0x1.7f4994d48237fp+7 0x1.f3863e311149bp+2 0x1.fe952c154dbc0p+6 0x1.21e263f7406a1p+9 0x1.f400000000000p+11
no_downtime_fixed_dist retrying 0x1.f400000000000p+11 0x1.7eabf62ca5f9fp+6 0x1.2766eb8b6c7fcp+6 0x1.80fc90fe70282p+1 0x1.21b16826bb7d4p+6 0x1.e0e3e7453e342p+7 0x1.f400000000000p+11
no_downtime_fixed_dist checkpointing 0x1.f400000000000p+11 0x1.5da18c19af77dp+5 0x1.644088ffd741cp+1 0x1.d04a4c5f06c79p-4 0x1.5ae44404fb2e2p+5 0x1.875b3bcddf151p+5 0x1.f400000000000p+11
no_downtime_fixed_dist replication 0x1.f400000000000p+11 0x1.78217c5d018c5p+5 0x1.7ca37c244f673p+4 0x1.f012813c21a2cp-1 0x1.2c26c43b26badp+5 0x1.7a72f95754c60p+6 0x1.f400000000000p+11
no_downtime_fixed_dist replication_checkpointing 0x1.f400000000000p+11 0x1.4c2c6926fa196p+5 0x1.717e393e5ccffp+0 0x1.e18bf455f33edp-5 0x1.4b4f0b4b0d312p+5 0x1.6161869692701p+5 0x1.f400000000000p+11
no_downtime_fixed_dist backoff_retry 0x1.f400000000000p+11 0x1.140ebd128bcf8p+7 0x1.fd512a85a5bdcp+6 0x1.4be317a014587p+2 0x1.77db7297449aap+6 0x1.8c95da2ab3c51p+8 0x1.f400000000000p+11
""",
    key=2,
)


class TestKernelBitIdentity:
    """Writing draws in place changes no bit of any vector or summary."""

    @pytest.mark.parametrize("budget", sorted(VR_BUDGETS))
    @pytest.mark.parametrize("mode", ["antithetic", "crn"])
    def test_variance_reduced_cells(self, mode, budget):
        cells = [
            (technique, VR_PARAMS.with_mttf(mttf))
            for technique in EXTENDED_TECHNIQUES
            for mttf in VR_MTTFS
        ]
        estimates = estimate_cells(cells, variance_reduction=mode, **VR_BUDGETS[budget])
        got = {}
        for (technique, params), cell in zip(cells, estimates):
            key = (mode, budget, technique, str(params.mttf))
            got[key] = f"{_digest(cell.samples)} {_hexes(cell.summary)}"
        want = {k: v for k, v in VR_PINS.items() if k[:2] == (mode, budget)}
        assert len(want) == len(cells)
        assert got == want

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("technique", EXTENDED_TECHNIQUES)
    def test_plain_summaries(self, config, technique):
        summary = summarize(sample_technique(technique, CONFIGS[config]))
        assert _hexes(summary) == SUMMARY_PINS[(config, technique)]

    def test_crn_draws_leave_the_pool_untouched(self):
        pool = UniformPool(np.random.SeedSequence(5))
        before = pool.take(0, 4096).tobytes()
        gen = CRNGenerator(pool)
        gen.exponential(3.0, size=1000)
        gen.geometric(0.4, size=(250, 4))
        gen.random(1000)
        gen.exponential(2.0)
        assert gen.cursor == 3001
        assert pool.take(0, 4096).tobytes() == before


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
            [single] = estimate_cells([(t, params.with_mttf(m))], **options)
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
            [single] = estimate_cells(
                [(t, params)], runs=24, target=target, engine=True
            )
            np.testing.assert_array_equal(single.samples, want.samples)
            confidence = 0.99 if target is None else target.confidence
            assert summarize(single.samples, confidence=confidence) == want.summary
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
        # One spelling: a technique and its params_of, no sample callable.
        assert "fn" not in inspect.signature(sweep).parameters
        with pytest.raises(TypeError):
            sweep([1.0], lambda x: np.ones(3), label="x")
        with pytest.raises(TypeError):
            sweep([1.0], label="x")
        with pytest.raises(TypeError):
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

    def test_mc_grid_csv(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "mc",
                    "--technique",
                    "retrying",
                    "--mttf",
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
