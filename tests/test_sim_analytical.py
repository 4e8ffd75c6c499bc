"""Unit tests for the analytical completion-time models."""

from __future__ import annotations

import math

import pytest

from repro.errors import SimulationError
from repro.sim.analytical import (
    checkpoint_expected_time,
    expected_time,
    optimal_checkpoint_count,
    retry_expected_time,
)
from repro.sim.params import SimulationParams


class TestRetryModel:
    def test_no_failures_gives_f(self):
        assert retry_expected_time(30.0, 0.0) == 30.0

    def test_paper_formula_matches(self):
        # Figure 8's formula: (e^{λF} − 1)/λ at F=30, MTTF=30.
        lam = 1.0 / 30.0
        expected = (math.exp(lam * 30.0) - 1.0) / lam
        assert retry_expected_time(30.0, lam) == pytest.approx(expected)

    def test_downtime_scales_per_failure(self):
        lam = 1.0 / 30.0
        base = retry_expected_time(30.0, lam)
        with_d = retry_expected_time(30.0, lam, downtime=10.0)
        failures = math.exp(lam * 30.0) - 1.0
        assert with_d == pytest.approx(base + 10.0 * failures)

    def test_monotone_in_failure_rate(self):
        values = [retry_expected_time(30.0, lam) for lam in (0.01, 0.05, 0.1)]
        assert values == sorted(values)

    def test_invalid_parameters(self):
        with pytest.raises(SimulationError):
            retry_expected_time(0.0, 0.1)
        with pytest.raises(SimulationError):
            retry_expected_time(30.0, -0.1)
        with pytest.raises(SimulationError):
            retry_expected_time(30.0, 0.1, downtime=-1.0)


class TestCheckpointModel:
    def test_no_failures_gives_f_plus_kc(self):
        t = checkpoint_expected_time(
            30.0, 0.0, checkpoint_overhead=0.5, recovery_time=0.5, checkpoints=20
        )
        assert t == pytest.approx(30.0 + 20 * 0.5)

    def test_paper_figure9_formula(self):
        # F/a (C + (C + R + 1/λ)(e^{λa} − 1)) with F=30, C=R=0.5, K=20.
        lam = 1.0 / 40.0
        a = 30.0 / 20
        expected = (30.0 / a) * (
            0.5 + (0.5 + 0.5 + 1.0 / lam) * (math.exp(lam * a) - 1.0)
        )
        t = checkpoint_expected_time(
            30.0, lam, checkpoint_overhead=0.5, recovery_time=0.5, checkpoints=20
        )
        assert t == pytest.approx(expected)

    def test_checkpointing_beats_retrying_at_high_failure_rate(self):
        lam = 1.0 / 10.0  # MTTF = 10, the left edge of Figure 10
        ckpt = checkpoint_expected_time(
            30.0, lam, checkpoint_overhead=0.5, recovery_time=0.5, checkpoints=20
        )
        retry = retry_expected_time(30.0, lam)
        assert ckpt < retry

    def test_retrying_beats_checkpointing_at_low_failure_rate(self):
        lam = 1.0 / 100.0  # MTTF = 100, the right edge of Figure 10
        ckpt = checkpoint_expected_time(
            30.0, lam, checkpoint_overhead=0.5, recovery_time=0.5, checkpoints=20
        )
        retry = retry_expected_time(30.0, lam)
        assert retry < ckpt

    def test_invalid_parameters(self):
        with pytest.raises(SimulationError):
            checkpoint_expected_time(
                30.0, 0.1, checkpoint_overhead=-1, recovery_time=0, checkpoints=5
            )
        with pytest.raises(SimulationError):
            checkpoint_expected_time(
                30.0, 0.1, checkpoint_overhead=0, recovery_time=0, checkpoints=0
            )


class TestDispatch:
    def test_expected_time_by_name(self):
        params = SimulationParams(mttf=20.0)
        assert expected_time(params, "retrying") == pytest.approx(
            retry_expected_time(30.0, 0.05)
        )
        assert expected_time(params, "checkpointing") == pytest.approx(
            checkpoint_expected_time(
                30.0, 0.05, checkpoint_overhead=0.5, recovery_time=0.5,
                checkpoints=20,
            )
        )

    def test_replication_has_no_closed_form(self):
        with pytest.raises(SimulationError, match="no analytical model"):
            expected_time(SimulationParams(), "replication")


class TestOptimalCheckpointCount:
    def test_reliable_environment_prefers_fewer_checkpoints(self):
        k_reliable = optimal_checkpoint_count(SimulationParams(mttf=1000.0))
        k_flaky = optimal_checkpoint_count(SimulationParams(mttf=5.0))
        assert k_reliable < k_flaky

    def test_no_failures_means_one_checkpoint_floor(self):
        # With λ=0 any checkpoint is pure overhead: K=1 minimises.
        assert optimal_checkpoint_count(SimulationParams()) == 1

    def test_optimum_actually_minimises_neighbourhood(self):
        params = SimulationParams(mttf=10.0)
        k = optimal_checkpoint_count(params)

        def t(kk):
            return checkpoint_expected_time(
                params.failure_free_time,
                params.failure_rate,
                checkpoint_overhead=params.checkpoint_overhead,
                recovery_time=params.recovery_time,
                checkpoints=kk,
            )

        assert t(k) <= t(k + 1)
        if k > 1:
            assert t(k) <= t(k - 1)


class TestYoungApproximation:
    def test_interval_formula(self):
        from repro.sim.analytical import young_interval

        assert young_interval(0.5, 1 / 50.0) == pytest.approx(
            math.sqrt(2 * 0.5 * 50.0)
        )

    def test_agrees_with_bruteforce_in_reliable_regime(self):
        from repro.sim.analytical import young_interval

        # λ·a* small: the K Young's interval implies for a 30 s task
        # matches the exact optimum within one checkpoint.
        params = SimulationParams(mttf=500.0, failure_free_time=30.0)
        exact = optimal_checkpoint_count(params)
        young = max(1, round(30.0 / young_interval(0.5, 1 / 500.0)))
        assert abs(exact - young) <= 1

    def test_diverges_at_high_failure_rate(self):
        from repro.sim.analytical import young_interval

        # λ·a* ~ 1: the expansion under-checkpoints vs the exact optimum.
        params = SimulationParams(mttf=2.0, failure_free_time=30.0)
        exact = optimal_checkpoint_count(params)
        young = max(1, round(30.0 / young_interval(0.5, 1 / 2.0)))
        assert exact > young

    def test_invalid_parameters(self):
        from repro.sim.analytical import young_interval

        with pytest.raises(SimulationError):
            young_interval(0.0, 0.1)
        with pytest.raises(SimulationError):
            young_interval(0.5, 0.0)
