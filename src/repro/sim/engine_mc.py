"""Engine-level Monte Carlo: run the *real* Grid-WFS stack per sample.

The paper evaluates with a standalone simulator; we additionally
cross-validate by executing the actual engine — WPDL specification, failure
detector, recovery coordinator, GRAM submission — on the simulated Grid for
every sample, with the same (F, λ, D, C, R, K, N) parameters.  Agreement
between these end-to-end runs, the vectorised samplers and the analytical
models is the strongest correctness evidence this reproduction offers.

Two modelling nuances versus the abstract samplers, documented here and in
EXPERIMENTS.md:

* crash *observability* is prompt (``crash_detection='prompt'``), matching
  the zero-detection-latency assumption of the analytical models;
* host failures strike during checkpoint writes too (hosts know nothing
  about task structure), whereas Duda's model folds that exposure into a
  per-failure C charge — a sub-percent difference at the paper's C/a
  ratio, covered by the tolerance bands in the validation tests.

Figure 13's strategies run the same way: the masking ones as the
single-activity workflow under their retry-on-exception policy, the
alternative task as the Figure-6 DAG (FU on one host, SR on another, an OR
join behind them), with FU an
:class:`~repro.grid.behaviors.ExceptionProneTask` on a host that never
fails.

A vector of engine runs is an engine cell of the sampling pipeline,
``estimate_cells(cells, engine=True)``
(:func:`repro.sim.adaptive.estimate_cells`), drawn by :class:`EngineSampler`.
"""

from __future__ import annotations

from ..engine.engine import WorkflowEngine
from ..errors import SimulationError
from ..grid.behaviors import (
    CheckpointingTask,
    ExceptionProneTask,
    FixedDurationTask,
    TaskBehavior,
)
from ..grid.resource import ResourceSpec
from ..grid.simgrid import GridConfig, SimulatedGrid
from ..wpdl.builder import WorkflowBuilder
from ..wpdl.model import JoinMode, Workflow
from .parallel import DEFAULT_RUN_TIMEOUT
from .params import SimulationParams
from .samplers import _EXCEPTION_TECHNIQUES, _check_cell, technique_policy

__all__ = [
    "run_engine_once",
    "build_technique_workflow",
    "EngineSampler",
]

_HOST_PREFIX = "node"


def _installs(
    technique: str, params: SimulationParams
) -> list[tuple[str, str, TaskBehavior]]:
    """``(host, program, behaviour)`` for every host of *technique*'s
    grid: one per replica, or FU's and SR's for the alternative task."""
    F = params.failure_free_time
    if technique in ("checkpointing", "replication_checkpointing"):
        behavior: TaskBehavior = CheckpointingTask(
            duration=F,
            checkpoints=params.checkpoints,
            overhead=params.checkpoint_overhead,
            recovery_time=params.recovery_time,
        )
    elif technique in _EXCEPTION_TECHNIQUES:
        behavior = ExceptionProneTask(
            duration=F,
            checks=params.checkpoints,
            probability=params.exception_probability,
            checkpointable=technique == "exception_checkpointing",
            overhead=params.checkpoint_overhead,
            recovery_time=params.recovery_time,
        )
    else:
        behavior = FixedDurationTask(F)
    if technique == "alternative_task":
        return [
            (f"{_HOST_PREFIX}0", "fast", behavior),
            (f"{_HOST_PREFIX}1", "slow", FixedDurationTask(params.alternative_time)),
        ]
    replicas = params.replicas if technique.startswith("replication") else 1
    return [(f"{_HOST_PREFIX}{i}", "task", behavior) for i in range(replicas)]


def build_technique_workflow(
    technique: str, params: SimulationParams
) -> Workflow:
    """The workflow encoding *technique* in WPDL terms.

    A single activity carrying
    :func:`~repro.sim.samplers.technique_policy`, whose attributes the
    engine's decisions are read off (``replication_checkpointing`` fans
    out over the hosts and every replica retries from its own checkpoint;
    ``backoff_retry`` waits ``policy.retry_delay(n)`` — the number the
    sampler adds — before the *n*-th resubmission, …).  For
    ``alternative_task`` it is the Figure-6 DAG: FU's ``disk_full``
    exception hands over to SR, and whichever finishes fires the OR join.
    """
    _check_cell(technique, params)
    hosts = [host for host, _, _ in _installs(technique, params)]
    policy = technique_policy(technique, params)
    if technique == "alternative_task":
        fast, slow = hosts
        return (
            WorkflowBuilder(f"eval-{technique}")
            .program("fast", hosts=[fast])
            .program("slow", hosts=[slow])
            .activity("FU", implement="fast", policy=policy)
            .activity("SR", implement="slow")
            .dummy("DJ", join=JoinMode.OR)
            .transition("FU", "DJ")
            .on_exception("FU", "disk_full", "SR")
            .transition("SR", "DJ")
            .build()
        )
    return (
        WorkflowBuilder(f"eval-{technique}")
        .program("task", hosts=hosts)
        .activity("task", implement="task", policy=policy)
        .build()
    )


def _build_grid(
    technique: str, params: SimulationParams, seed: int
) -> SimulatedGrid:
    """The technique's simulated Grid: its hosts (:func:`_installs`), each
    with the cell's MTTF and mean downtime and its program installed;
    crashes are observed promptly and heartbeats are off (see the module
    docstring)."""
    grid = SimulatedGrid(
        seed=seed,
        config=GridConfig(crash_detection="prompt", heartbeats=False),
    )
    for hostname, program, behavior in _installs(technique, params):
        grid.add_host(
            ResourceSpec(
                hostname=hostname, mttf=params.mttf, mean_downtime=params.downtime
            )
        )
        grid.install(hostname, program, behavior)
    return grid


class EngineSampler:
    """Reusable end-to-end engine runner for one ``(technique, params)``.

    Constructs the :class:`Workflow`, :class:`TaskBehavior` and
    :class:`ResourceSpec` set once, then executes arbitrarily many seeded
    runs by rewinding both the :class:`SimulatedGrid`
    (:meth:`SimulatedGrid.reset`) and one :class:`WorkflowEngine`
    (:meth:`WorkflowEngine.reset`) in place instead of rebuilding the
    world per run — the Monte-Carlo hot path.  ``sampler.run(seed)`` is
    bit-identical to :func:`run_engine_once` with the same arguments.
    """

    def __init__(
        self,
        technique: str,
        params: SimulationParams,
        *,
        timeout: float = DEFAULT_RUN_TIMEOUT,
    ) -> None:
        self.technique = technique
        self.params = params
        self.timeout = timeout
        self.workflow = build_technique_workflow(technique, params)
        self._grid = _build_grid(technique, params, params.seed)
        #: Cumulative kernel events across all runs (throughput diagnostics).
        self.events_processed = 0
        #: Optional :class:`repro.obs.metrics.MetricsRegistry`; when set,
        #: each run records its attempt count and completion time (labelled
        #: by technique).  ``None`` costs a run one ``is None`` check.
        self.metrics = None
        #: The reused engine, once :meth:`run` has built it (diagnostics).
        self.engine: WorkflowEngine | None = None

    def run(self, seed: int) -> float:
        """One end-to-end engine execution; returns the completion time."""
        grid = self._grid
        grid.reset(seed=seed)
        if self.engine is None:
            self.engine = WorkflowEngine(
                self.workflow,
                grid,
                reactor=grid.reactor,
                validate_spec=False,
            )
        else:
            self.engine.reset()
        try:
            result = self.engine.run(timeout=self.timeout)
        except BaseException:
            # A run cut off mid-flight leaves its jobs and attempts live,
            # and a process keeps its samplers cached (``worker_sampler``):
            # rewind now rather than at the next run.
            grid.reset(seed=seed)
            self.engine.reset()
            raise
        self.events_processed += grid.kernel.events_processed
        if not result.succeeded:
            raise SimulationError(
                f"engine run for {self.technique!r} failed: "
                f"{result.node_statuses}"
            )
        metrics = self.metrics
        if metrics is not None:
            from ..obs.metrics import ATTEMPT_BUCKETS

            metrics.counter(
                "mc_runs_total",
                help="engine-level Monte-Carlo runs executed",
                technique=self.technique,
            ).inc()
            metrics.histogram(
                "mc_attempts",
                help="submission attempts consumed per run",
                buckets=ATTEMPT_BUCKETS,
                technique=self.technique,
            ).observe(float(sum(result.tries.values())))
            metrics.histogram(
                "mc_completion_sim_seconds",
                help="virtual completion time per run",
                technique=self.technique,
            ).observe(result.completion_time)
        return result.completion_time


def run_engine_once(
    technique: str,
    params: SimulationParams,
    *,
    seed: int,
    timeout: float = DEFAULT_RUN_TIMEOUT,
) -> float:
    """One end-to-end engine execution; returns the completion time.

    Builds the full stack from scratch — fine for single runs and as the
    reference for :class:`EngineSampler`'s reuse path; repeated sampling
    should go through ``estimate_cells(..., engine=True)``
    (:func:`repro.sim.adaptive.estimate_cells`) or an
    :class:`EngineSampler` directly, which amortise construction across
    runs.
    """
    workflow = build_technique_workflow(technique, params)
    grid = _build_grid(technique, params, seed)
    engine = WorkflowEngine(
        workflow, grid, reactor=grid.reactor, validate_spec=False
    )
    result = engine.run(timeout=timeout)
    if not result.succeeded:
        raise SimulationError(
            f"engine run for {technique!r} failed: {result.node_statuses}"
        )
    return result.completion_time
