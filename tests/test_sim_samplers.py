"""Validation tests for the Monte-Carlo samplers (the paper's Figures 8–9
methodology: simulation must agree with the analytical models)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.analytical import checkpoint_expected_time, retry_expected_time
from repro.sim.params import SimulationParams
from repro.sim.samplers import TECHNIQUES, sample_technique
from repro.sim.stats import relative_error, summarize

RUNS = 60_000  # enough for sub-percent agreement, fast enough for CI


class TestRetrySampler:
    @pytest.mark.parametrize("mttf", [10.0, 18.0, 30.0, 100.0])
    def test_matches_analytical_model_figure8(self, mttf):
        params = SimulationParams(mttf=mttf, runs=RUNS)
        sim = summarize(sample_technique("retrying", params))
        ana = retry_expected_time(30.0, 1.0 / mttf)
        assert relative_error(sim.mean, ana) < 0.02

    def test_no_failures_is_deterministic(self):
        params = SimulationParams(runs=100)  # mttf = inf
        samples = sample_technique("retrying", params)
        assert np.all(samples == 30.0)

    def test_downtime_included(self):
        params = SimulationParams(mttf=20.0, downtime=30.0, runs=RUNS)
        sim = summarize(sample_technique("retrying", params))
        ana = retry_expected_time(30.0, 0.05, downtime=30.0)
        assert relative_error(sim.mean, ana) < 0.03

    def test_samples_bounded_below_by_f(self):
        params = SimulationParams(mttf=15.0, runs=5000)
        assert sample_technique("retrying", params).min() >= 30.0

    def test_reproducible_given_seed(self):
        params = SimulationParams(mttf=20.0, runs=1000, seed=99)
        a = sample_technique("retrying", params)
        assert np.array_equal(a, sample_technique("retrying", params))

    def test_different_seeds_differ(self):
        a = sample_technique(
            "retrying", SimulationParams(mttf=20.0, runs=1000, seed=1)
        )
        b = sample_technique(
            "retrying", SimulationParams(mttf=20.0, runs=1000, seed=2)
        )
        assert not np.array_equal(a, b)


class TestCheckpointSampler:
    @pytest.mark.parametrize("mttf", [2.0, 10.0, 40.0, 100.0])
    def test_matches_analytical_model_figure9(self, mttf):
        params = SimulationParams(mttf=mttf, runs=RUNS)
        sim = summarize(sample_technique("checkpointing", params))
        ana = checkpoint_expected_time(
            30.0,
            1.0 / mttf,
            checkpoint_overhead=0.5,
            recovery_time=0.5,
            checkpoints=20,
        )
        assert relative_error(sim.mean, ana) < 0.02

    def test_no_failures_cost_is_f_plus_kc(self):
        params = SimulationParams(runs=100)
        samples = sample_technique("checkpointing", params)
        assert np.all(samples == pytest.approx(40.0))  # 30 + 20*0.5

    def test_downtime_included(self):
        params = SimulationParams(mttf=20.0, downtime=150.0, runs=RUNS)
        sim = summarize(sample_technique("checkpointing", params))
        ana = checkpoint_expected_time(
            30.0, 0.05, checkpoint_overhead=0.5, recovery_time=0.5,
            checkpoints=20, downtime=150.0,
        )
        # Downtime dominates the variance; allow a wider band.
        assert relative_error(sim.mean, ana) < 0.05

    def test_samples_bounded_below_by_failure_free_cost(self):
        params = SimulationParams(mttf=10.0, runs=5000)
        assert sample_technique("checkpointing", params).min() >= 40.0 - 1e-9


class TestReplicationSamplers:
    def test_replication_is_min_of_n(self):
        params = SimulationParams(mttf=20.0, runs=20_000, replicas=3)
        single = summarize(sample_technique("retrying", params)).mean
        replicated = summarize(sample_technique("replication", params)).mean
        assert replicated < single

    def test_more_replicas_never_slower(self):
        means = []
        for n in (1, 2, 4, 8):
            params = SimulationParams(mttf=15.0, runs=20_000, replicas=n)
            samples = sample_technique("replication", params)
            means.append(summarize(samples).mean)
        assert means == sorted(means, reverse=True)

    def test_single_replica_equals_retry_distribution(self):
        params = SimulationParams(mttf=20.0, runs=30_000, replicas=1)
        a = summarize(sample_technique("replication", params)).mean
        b = summarize(sample_technique("retrying", params)).mean
        assert relative_error(a, b) < 0.05

    def test_replication_checkpointing_combination(self):
        params = SimulationParams(mttf=10.0, runs=20_000)
        samples = sample_technique("replication_checkpointing", params)
        combo = summarize(samples).mean
        ckpt_only = summarize(sample_technique("checkpointing", params)).mean
        assert combo < ckpt_only


class TestDispatch:
    def test_all_techniques_dispatchable(self):
        params = SimulationParams(mttf=20.0, runs=500)
        for technique in TECHNIQUES:
            samples = sample_technique(technique, params)
            assert samples.shape == (500,)
            assert np.all(samples >= 30.0)

    def test_unknown_technique(self):
        with pytest.raises(SimulationError, match="unknown technique"):
            sample_technique("prayer", SimulationParams())

    def test_runs_override(self):
        params = SimulationParams(mttf=20.0, runs=10_000)
        assert sample_technique("retrying", params, runs=123).shape == (123,)


class TestDowntimeDistribution:
    def test_invalid_distribution_rejected(self):
        with pytest.raises(SimulationError):
            SimulationParams(downtime_distribution="weibull")

    def test_fixed_downtime_is_deterministic_per_failure(self):
        # With fixed downtime = D, every failure adds exactly D; with a
        # single failure the sample equals lost-work + D + F exactly,
        # so the *minimum* over samples is >= F and the per-failure cost
        # floor shows in the distribution support.
        params = SimulationParams(
            mttf=20.0, downtime=100.0, downtime_distribution="fixed",
            runs=20_000,
        )
        samples = sample_technique("retrying", params)
        failed_runs = samples[samples > 30.0 + 1e-9]
        # Any run with at least one failure paid at least one full fixed D.
        assert failed_runs.min() >= 100.0

    def test_mean_insensitive_for_single_process_techniques(self):
        exp_params = SimulationParams(mttf=20.0, downtime=150.0, runs=60_000)
        fixed_params = SimulationParams(
            mttf=20.0, downtime=150.0, downtime_distribution="fixed",
            runs=60_000,
        )
        for technique in ("retrying", "checkpointing"):
            e = summarize(sample_technique(technique, exp_params))
            f = summarize(sample_technique(technique, fixed_params))
            assert abs(e.mean - f.mean) <= 2 * (e.ci_halfwidth + f.ci_halfwidth)

    def test_replication_prefers_spread(self):
        exp_params = SimulationParams(mttf=20.0, downtime=150.0, runs=40_000)
        fixed_params = SimulationParams(
            mttf=20.0, downtime=150.0, downtime_distribution="fixed",
            runs=40_000,
        )
        assert (
            sample_technique("replication", fixed_params).mean()
            > sample_technique("replication", exp_params).mean()
        )


class TestDowntimeDraws:
    """`_downtime_draws` must return an ndarray for *every* distribution —
    the degenerate branches used to be able to return scalars, which
    silently broadcast in some samplers and broke per-run indexing in
    others."""

    @pytest.mark.parametrize(
        "params",
        [
            SimulationParams(mttf=20.0, downtime=0.0, runs=10),
            SimulationParams(
                mttf=20.0, downtime=0.0, downtime_distribution="fixed", runs=10
            ),
            SimulationParams(
                mttf=20.0, downtime=5.0, downtime_distribution="fixed", runs=10
            ),
            SimulationParams(mttf=20.0, downtime=5.0, runs=10),
        ],
        ids=["zero-exp", "zero-fixed", "fixed", "exponential"],
    )
    def test_always_ndarray_of_requested_size(self, params):
        from repro.sim.samplers import _downtime_draws

        draws = _downtime_draws(params, np.random.default_rng(0), 7)
        assert isinstance(draws, np.ndarray)
        assert draws.shape == (7,)
        assert draws.dtype == np.float64

    def test_degenerate_branches_consume_no_rng_state(self):
        from repro.sim.samplers import _downtime_draws

        rng = np.random.default_rng(1)
        _downtime_draws(SimulationParams(mttf=20.0, downtime=0.0), rng, 5)
        _downtime_draws(
            SimulationParams(
                mttf=20.0, downtime=3.0, downtime_distribution="fixed"
            ),
            rng,
            5,
        )
        untouched = np.random.default_rng(1)
        np.testing.assert_array_equal(rng.random(4), untouched.random(4))
