"""Shared workflow-construction helpers for the test suite."""

from __future__ import annotations

from repro.ckpt.manager import CheckpointRecord
from repro.core import FailurePolicy
from repro.detection import messages
from repro.detection.detector import AttemptOutcome, _Attempt
from repro.engine import WorkflowEngine
from repro.engine.engine import WorkflowResult
from repro.engine.instance import NodeInstance
from repro.engine.recovery import ActivityRun, TaskResolution, _Slot
from repro.engine.strategies import RetryDecision
from repro.execution import SubmitRequest
from repro.grid import RELIABLE, FixedDurationTask, SimulatedGrid
from repro.wpdl import JoinMode, WorkflowBuilder
from repro.wpdl.model import Activity, CompiledNode, Transition, TransitionCondition

#: The immutable records an attempt produces, the six messages first: each
#: is built once and never changed, so each is a tuple.
RECORD_TYPES = (
    messages.Heartbeat,
    messages.TaskStart,
    messages.TaskEnd,
    messages.ExceptionNotice,
    messages.CheckpointNotice,
    messages.Done,
    AttemptOutcome,
    TaskResolution,
    RetryDecision,
    CheckpointRecord,
)

#: What a specification has one of per node or per edge, and what its run
#: submits and reports: tuples too, minted by the parser, the compiler, the
#: recovery coordinator and the engine.
SPEC_RECORD_TYPES = (
    Activity,
    Transition,
    TransitionCondition,
    CompiledNode,
    SubmitRequest,
    WorkflowResult,
)

#: Mutable state a run builds once per node or per attempt, with a
#: hand-written constructor.
STATE_TYPES = (NodeInstance, ActivityRun, _Slot, _Attempt)

#: None of these runs code that ``dataclasses`` or ``NamedTuple`` generate.
MINTED_TYPES = RECORD_TYPES + SPEC_RECORD_TYPES + STATE_TYPES


def single_task_workflow(
    name: str = "single",
    *,
    host: str = "h1",
    policy: FailurePolicy = FailurePolicy(),
    executable: str = "task",
):
    """A one-activity workflow used by many engine tests."""
    return (
        WorkflowBuilder(name)
        .program(executable, hosts=[host])
        .activity("task", implement=executable, policy=policy)
        .build()
    )


def run_workflow(workflow, grid: SimulatedGrid, *, timeout: float = 1e7):
    """Run *workflow* on *grid* and return the WorkflowResult."""
    engine = WorkflowEngine(workflow, grid, reactor=grid.reactor)
    return engine.run(timeout=timeout)


def run_multiplexed(workflows, grid: SimulatedGrid, *, timeout: float = 1e7):
    """Run *workflows* as concurrent instances on one shared runtime.

    Returns their WorkflowResults in submission order (one per entry;
    repeated spec objects become independent instances).
    """
    from repro.engine import EngineHost

    host = EngineHost(grid, reactor=grid.reactor)
    ids = [host.submit(wf) for wf in workflows]
    results = host.wait_all(timeout=timeout)
    return [results[wfid] for wfid in ids]


def run_isolated(workflows, grid_factory, *, timeout: float = 1e7):
    """Run each workflow alone on a fresh grid from *grid_factory* — the
    sequential reference the multiplexed execution is compared against."""
    return [run_workflow(wf, grid_factory(), timeout=timeout) for wf in workflows]


def result_identity(result):
    """The comparable content of a WorkflowResult (multiplexed instances
    must be bit-identical to isolated runs on these fields)."""
    return (
        result.workflow,
        result.status,
        result.variables,
        result.completion_time,
        result.node_statuses,
        result.failed_tasks,
        result.tries,
    )


def fig4_workflow(*, fu_policy: FailurePolicy = FailurePolicy.retrying(2)):
    """The alternative-task DAG of the paper's Figure 4."""
    return (
        WorkflowBuilder("fig4")
        .program("fast", hosts=["u1"])
        .program("slow", hosts=["r1"])
        .activity("FU", implement="fast", policy=fu_policy)
        .activity("SR", implement="slow")
        .dummy("Join", join=JoinMode.OR)
        .transition("FU", "Join")
        .on_failure("FU", "SR")
        .transition("SR", "Join")
        .build()
    )


def fig5_workflow():
    """The workflow-level redundancy DAG of the paper's Figure 5."""
    return (
        WorkflowBuilder("fig5")
        .program("fast", hosts=["u1"])
        .program("slow", hosts=["r1"])
        .dummy("Split")
        .activity("FU", implement="fast")
        .activity("SR", implement="slow")
        .dummy("Join", join=JoinMode.OR)
        .redundant("Split", "Join", "FU", "SR")
        .build()
    )


def two_reliable_hosts(grid: SimulatedGrid) -> SimulatedGrid:
    grid.add_host(RELIABLE("u1"))
    grid.add_host(RELIABLE("r1"))
    return grid


def install_fixed(grid: SimulatedGrid, host: str, name: str, duration: float, result=None):
    grid.install(host, name, FixedDurationTask(duration, result=result))
