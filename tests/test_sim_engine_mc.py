"""Engine-level cross-validation: the full Grid-WFS stack reproduces the
abstract samplers' expected completion times (the strongest end-to-end
correctness evidence in this reproduction)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.adaptive import estimate_cells
from repro.sim.cache import SampleCache
from repro.sim.engine_mc import build_technique_workflow
from repro.sim.params import SimulationParams
from repro.sim.samplers import EXTENDED_TECHNIQUES, sample_technique
from repro.sim.stats import relative_error, summarize
from tests.helpers import run_engine_once
from repro.wpdl.parser import parse_wpdl
from repro.wpdl.serializer import serialize_wpdl


class TestWorkflowConstruction:
    def test_retrying_workflow_is_single_unlimited_activity(self):
        wf = build_technique_workflow("retrying", SimulationParams())
        act = wf.node("task")
        assert act.policy.max_tries is None
        assert not act.policy.replicated
        assert len(wf.programs["task"].options) == 1

    def test_replication_workflow_spans_n_hosts(self):
        wf = build_technique_workflow(
            "replication", SimulationParams(replicas=3)
        )
        act = wf.node("task")
        assert act.policy.replicated
        assert len(wf.programs["task"].options) == 3

    def test_backoff_workflow_carries_backoff_policy(self):
        params = SimulationParams(
            retry_interval=1.5, backoff_factor=3.0, max_retry_interval=9.0
        )
        wf = build_technique_workflow("backoff_retry", params)
        policy = wf.node("task").policy
        assert policy.uses_backoff
        assert policy.interval == 1.5
        assert policy.backoff_factor == 3.0
        assert policy.max_interval == 9.0

    @pytest.mark.parametrize(
        "technique", ["replication_checkpointing", "backoff_retry"]
    )
    def test_technique_workflow_roundtrips_through_wpdl(self, technique):
        # The acceptance path: the combined-policy spec survives
        # serialize → parse unchanged, so the engine-MC runs below
        # exercise exactly what a WPDL file would declare.
        wf = build_technique_workflow(technique, SimulationParams())
        assert parse_wpdl(serialize_wpdl(wf)) == wf

    def test_unknown_technique_rejected(self):
        with pytest.raises(SimulationError):
            build_technique_workflow("hope", SimulationParams())


class TestSingleRuns:
    def test_failure_free_run_times(self):
        params = SimulationParams()  # mttf = inf
        assert run_engine_once("retrying", params, seed=1) == pytest.approx(30.0)
        assert run_engine_once("checkpointing", params, seed=1) == pytest.approx(
            40.0
        )  # F + K*C
        assert run_engine_once("replication", params, seed=1) == pytest.approx(30.0)
        # Backoff waits only apply after a failure; failure-free runs pay none.
        assert run_engine_once("backoff_retry", params, seed=1) == pytest.approx(30.0)

    def test_runs_deterministic_per_seed(self):
        params = SimulationParams(mttf=15.0)
        a = run_engine_once("retrying", params, seed=7)
        b = run_engine_once("retrying", params, seed=7)
        assert a == b


class TestExecutionModesAgree:
    """Rebuilding the grid and engine per run, one sampler rewound in place
    across runs (which keeps its launch plans and submitted requests), and
    the sample cache, cold then warm, give one vector bit for bit.  Pooled
    against sequential is ``tests/test_sim_parallel.py``."""

    @pytest.mark.parametrize("technique", EXTENDED_TECHNIQUES)
    def test_naive_reused_and_cached_are_bit_identical(self, technique, tmp_path):
        params = SimulationParams(mttf=10.0)
        runs = 25
        naive = np.array(
            [
                run_engine_once(technique, params, seed=params.seed + 7919 * i)
                for i in range(runs)
            ]
        )
        cells = [(technique, params)]
        [reused] = estimate_cells(cells, runs=runs, engine=True)
        cache = SampleCache(tmp_path)
        [cold] = estimate_cells(cells, runs=runs, engine=True, cache=cache)
        [warm] = estimate_cells(cells, runs=runs, engine=True, cache=cache)
        assert warm.cached
        assert np.array_equal(naive, reused.samples)
        assert np.array_equal(reused.samples, cold.samples)
        assert np.array_equal(cold.samples, warm.samples)
        # Crashes happened, so reuse crossed retries, not just first tries.
        assert len(set(naive.tolist())) > 1


class TestCrossValidation:
    """Engine means must agree with the vectorised samplers.

    Tolerances account for ~400-run engine sampling noise plus the
    checkpoint-exposure modelling nuance documented in
    :mod:`repro.sim.engine_mc`.
    """

    @pytest.mark.parametrize(
        "technique,tol",
        [
            ("retrying", 0.15),
            ("checkpointing", 0.05),
            ("replication", 0.08),
            ("replication_checkpointing", 0.05),
            ("backoff_retry", 0.20),
        ],
    )
    def test_engine_matches_sampler(self, technique, tol):
        params = SimulationParams(mttf=20.0, runs=60_000)
        [engine] = estimate_cells([(technique, params)], runs=400, engine=True)
        engine_mean = engine.summary.mean
        sampler_mean = summarize(sample_technique(technique, params)).mean
        assert relative_error(engine_mean, sampler_mean) < tol

    def test_engine_with_downtime(self):
        params = SimulationParams(mttf=20.0, downtime=30.0, runs=60_000)
        [engine] = estimate_cells([("checkpointing", params)], runs=300, engine=True)
        engine_mean = engine.summary.mean
        sampler_mean = summarize(
            sample_technique("checkpointing", params)
        ).mean
        assert relative_error(engine_mean, sampler_mean) < 0.10
