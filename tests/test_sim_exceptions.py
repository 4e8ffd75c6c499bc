"""Figure 13's strategies as cells of the one sampling pipeline.

Closed forms (``expected_time``), samplers (``sample_technique``) and engine
runs (``estimate_cells(engine=True)``) of ``exception_retrying``,
``exception_checkpointing`` and ``alternative_task``, keyed like every other
technique by a :class:`SimulationParams`.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim import (
    EngineSampler,
    SimulationParams,
    estimate_cells,
    expected_time,
    sample_technique,
)
from repro.sim.stats import relative_error

#: Section 8.2's setup: FU = 30 with five checks (one every 6), SR = 150,
#: checkpoints that cost nothing.
FIG13 = SimulationParams(checkpoints=5, checkpoint_overhead=0.0, recovery_time=0.0)

RETRYING, CHECKPOINTING, ALTERNATIVE = (
    "exception_retrying",
    "exception_checkpointing",
    "alternative_task",
)


def at(p: float, **fields) -> SimulationParams:
    return replace(FIG13, exception_probability=p, **fields)


def expected(technique: str, p: float) -> float:
    return expected_time(at(p), technique)


def sampled(technique: str, p: float, runs: int = 60_000) -> np.ndarray:
    return sample_technique(technique, at(p, runs=runs))


class TestClosedForms:
    def test_p_zero_all_strategies_cost_f(self):
        assert expected(RETRYING, 0.0) == 30.0
        assert expected(CHECKPOINTING, 0.0) == 30.0
        assert expected(ALTERNATIVE, 0.0) == 30.0

    def test_p_one_masking_never_finishes(self):
        assert math.isinf(expected(RETRYING, 1.0))
        assert math.isinf(expected(CHECKPOINTING, 1.0))

    def test_p_one_alternative_is_156(self):
        # The paper's bound: first check at 6 + SR at 150.
        assert expected(ALTERNATIVE, 1.0) == 156.0

    def test_alternative_bounded_for_all_p(self):
        # Bounded for every p (the masking strategies are not).  The exact
        # supremum is ~158 around p≈0.6 — the curve dips back to 156 at
        # p=1 because later checks never run once the first one fails.
        for p in np.linspace(0, 1, 21):
            assert expected(ALTERNATIVE, float(p)) <= 160.0

    def test_masking_strategies_blow_up_near_one(self):
        # Figure 13's divergence: at p=0.9 both masking strategies dwarf
        # the handler.
        assert expected(RETRYING, 0.9) > 100 * expected(ALTERNATIVE, 0.9)
        assert expected(CHECKPOINTING, 0.9) > expected(ALTERNATIVE, 0.9)

    def test_checkpointing_is_f_over_q(self):
        assert expected(CHECKPOINTING, 0.4) == pytest.approx(30.0 / 0.6)

    def test_retrying_grows_faster_than_checkpointing(self):
        for p in (0.3, 0.6, 0.9):
            assert expected(RETRYING, p) > expected(CHECKPOINTING, p)

    def test_masking_strategies_monotone_in_p(self):
        # Only the masking strategies are monotone in p; the handler curve
        # peaks mid-range (see test_alternative_bounded_for_all_p).
        for technique in (RETRYING, CHECKPOINTING):
            values = [expected(technique, p) for p in (0.0, 0.2, 0.4, 0.6, 0.8)]
            assert values == sorted(values)

    def test_invalid_p(self):
        with pytest.raises(SimulationError, match="exception_probability"):
            at(1.5)

    def test_custom_experiment_geometry(self):
        params = SimulationParams(
            failure_free_time=10.0,
            checkpoints=2,
            alternative_time=50.0,
            exception_probability=1.0,
        )
        # p=1: fail at the first check (5) + the alternative (50).
        assert expected_time(params, ALTERNATIVE) == pytest.approx(55.0)

    def test_experiment_validation(self):
        with pytest.raises(SimulationError):
            SimulationParams(failure_free_time=0.0)
        with pytest.raises(SimulationError):
            SimulationParams(checkpoints=0)
        with pytest.raises(SimulationError, match="alternative_time"):
            SimulationParams(alternative_time=0.0)
        with pytest.raises(SimulationError, match="exception_probability"):
            SimulationParams(exception_probability=-0.1)

    def test_checkpoint_and_resume_costs(self):
        # C per passed check, R per retry that resumes from a checkpoint
        # (segments 2..K): (F + (K−1)·p·R)/(1−p) + K·C.
        params = at(0.3, checkpoint_overhead=0.5, recovery_time=2.0)
        assert expected_time(params, CHECKPOINTING) == pytest.approx(
            (30.0 + 4 * 0.3 * 2.0) / 0.7 + 5 * 0.5
        )
        # The other two never checkpoint, so neither cost moves them.
        for technique in (RETRYING, ALTERNATIVE):
            assert expected_time(params, technique) == expected(technique, 0.3)


class TestSamplers:
    @pytest.mark.parametrize("p", [0.0, 0.2, 0.5, 0.9, 0.99])
    def test_retry_sampler_matches_closed_form(self, p):
        mc = sampled(RETRYING, p).mean()
        assert relative_error(mc, expected(RETRYING, p)) < 0.03

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 0.95])
    def test_checkpoint_sampler_matches_closed_form(self, p):
        mc = sampled(CHECKPOINTING, p).mean()
        assert relative_error(mc, expected(CHECKPOINTING, p)) < 0.03

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 1.0])
    def test_alternative_sampler_matches_closed_form(self, p):
        mc = sampled(ALTERNATIVE, p).mean()
        assert relative_error(mc, expected(ALTERNATIVE, p)) < 0.02

    def test_retry_sampler_rejects_p_one(self):
        with pytest.raises(SimulationError, match="never completes"):
            sampled(RETRYING, 1.0)

    def test_checkpoint_sampler_rejects_p_one(self):
        with pytest.raises(SimulationError):
            sampled(CHECKPOINTING, 1.0)

    def test_alternative_sampler_support(self):
        samples = sampled(ALTERNATIVE, 0.5, runs=10_000)
        # Support: either a clean 30s run or i*6 + 150.
        valid = {30.0} | {i * 6.0 + 150.0 for i in range(1, 6)}
        assert set(np.unique(samples)).issubset(valid)

    def test_retry_sampler_high_p_is_fast(self):
        # The geometric/multinomial decomposition must not degrade with p.
        start = time.time()
        sampled(RETRYING, 0.999, runs=50_000)
        assert time.time() - start < 2.0

    def test_checkpoint_sampler_charges_checkpoint_and_resume_costs(self):
        params = at(0.3, checkpoint_overhead=0.5, recovery_time=2.0, runs=60_000)
        mc = sample_technique(CHECKPOINTING, params).mean()
        assert relative_error(mc, expected_time(params, CHECKPOINTING)) < 0.02

    def test_each_strategy_draws_its_own_stream(self):
        # Seeded by the params, like every technique: the same cell twice is
        # the same vector, another seed another one.
        for technique in (RETRYING, CHECKPOINTING, ALTERNATIVE):
            params = at(0.5, runs=1_000)
            first = sample_technique(technique, params)
            assert np.array_equal(first, sample_technique(technique, params))
            other = sample_technique(technique, replace(params, seed=1))
            assert not np.array_equal(first, other)


class TestEngineCells:
    """The engine runs FU under each strategy — alone under a
    retry-on-exception policy, or in the Figure-6 DAG — through the same
    pipeline as the task-level techniques."""

    def test_engine_agrees_with_the_closed_forms(self):
        techniques = (RETRYING, CHECKPOINTING, ALTERNATIVE)
        estimates = estimate_cells(
            [(technique, at(0.3)) for technique in techniques],
            runs=300,
            engine=True,
        )
        for technique, estimate in zip(techniques, estimates):
            summary = estimate.summary
            assert summary.n == 300
            # The model is the engine's own arithmetic: no nuance to band.
            gap = abs(summary.mean - expected(technique, 0.3))
            assert gap <= summary.ci_halfwidth, (technique, summary)

    def test_the_alternative_at_p_one_is_156(self):
        [estimate] = estimate_cells([(ALTERNATIVE, at(1.0))], runs=20, engine=True)
        assert set(estimate.samples) == {156.0}

    def test_engine_charges_checkpoint_and_resume_costs(self):
        params = at(0.3, checkpoint_overhead=0.5, recovery_time=2.0)
        [free] = estimate_cells(
            [(CHECKPOINTING, replace(params, exception_probability=0.0))],
            runs=5,
            engine=True,
        )
        assert set(free.samples) == {30.0 + 5 * 0.5}
        [estimate] = estimate_cells([(CHECKPOINTING, params)], runs=300, engine=True)
        gap = abs(estimate.summary.mean - expected_time(params, CHECKPOINTING))
        assert gap <= estimate.summary.ci_halfwidth


class TestRefusedAtPlanTime:
    @pytest.mark.parametrize("engine", [False, True])
    @pytest.mark.parametrize("technique", [RETRYING, CHECKPOINTING])
    def test_a_masking_cell_at_p_one(self, technique, engine):
        with pytest.raises(SimulationError, match="never completes"):
            estimate_cells([(technique, at(1.0))], runs=10, engine=engine)
        if engine:  # nor can an engine sampler be built for it
            with pytest.raises(SimulationError, match="never completes"):
                EngineSampler(technique, at(1.0))

    @pytest.mark.parametrize("technique", [RETRYING, CHECKPOINTING, ALTERNATIVE])
    def test_a_cell_with_host_failures(self, technique):
        params = at(0.3, mttf=50.0)
        with pytest.raises(SimulationError, match="no host failures"):
            estimate_cells([(technique, params)], runs=10)
        with pytest.raises(SimulationError, match="no host failures"):
            estimate_cells([(technique, params)], runs=10, engine=True)
        with pytest.raises(SimulationError, match="no host failures"):
            expected_time(params, technique)

    @pytest.mark.parametrize("mode", ["antithetic", "crn"])
    @pytest.mark.parametrize("technique", [RETRYING, CHECKPOINTING, ALTERNATIVE])
    def test_variance_reduction(self, technique, mode):
        with pytest.raises(SimulationError, match="i.i.d. only"):
            estimate_cells([(technique, at(0.3))], runs=10, variance_reduction=mode)
