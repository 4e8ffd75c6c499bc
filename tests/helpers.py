"""Shared workflow-construction helpers for the test suite."""

from __future__ import annotations

import functools
import itertools
import types

from repro.ckpt.manager import CheckpointRecord
from repro.core import FailurePolicy
from repro.detection import FailureDetector, messages
from repro.detection.detector import AttemptOutcome, _Attempt
from repro.engine import WorkflowEngine
from repro.engine.broker import Broker
from repro.engine.engine import EngineRuntime, WorkflowResult, _LoopRunner
from repro.engine.instance import NodeInstance
from repro.engine.recovery import (
    ActivityRun,
    RecoveryCoordinator,
    TaskResolution,
    _Slot,
)
from repro.errors import SimulationError
from repro.events import EventBus
from repro.execution import ExecutionService, SubmitRequest
from repro.grid import RELIABLE, FixedDurationTask, GridConfig, SimulatedGrid
from repro.grid.gram import JobProcess
from repro.obs import MetricSpec, TelemetryPlane
from repro.sim.engine_mc import _build_grid, build_technique_workflow
from repro.sim.parallel import DEFAULT_RUN_TIMEOUT
from repro.wpdl import JoinMode, WorkflowBuilder
from repro.timerheap import CALLBACK, FIRED
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


class FakeService(ExecutionService):
    """An execution service that only records: coordinator tests hand every
    verdict to the coordinator themselves.  Job ids are ``fake-1``, … in
    submission order."""

    def __init__(self):
        self.submissions: list[SubmitRequest] = []
        #: The ``checkpoint_flag`` each submission was given, in order.
        self.flags: list[str | None] = []
        self.cancelled: list[str] = []
        self._seq = itertools.count(1)

    def submit(
        self, request: SubmitRequest, *, checkpoint_flag=None, workflow_id=""
    ) -> str:
        self.submissions.append(request)
        self.flags.append(checkpoint_flag)
        return f"fake-{next(self._seq)}"

    def cancel(self, job_id: str) -> None:
        self.cancelled.append(job_id)

    def connect(self, sink) -> None:  # pragma: no cover - unused here
        pass


def fake_runtime(
    reactor, bus: EventBus, broker: Broker | None = None
) -> EngineRuntime:
    """An :class:`EngineRuntime` on *reactor* and *bus* whose service is a
    :class:`FakeService`: what a coordinator under test is built on."""
    return EngineRuntime(
        reactor,
        bus,
        FakeService(),
        FailureDetector(reactor, bus),
        broker if broker is not None else Broker(),
    )


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


def bound_series(registry, kind: str, name: str, *, help="", buckets=None, **labels):
    """The *kind* instrument of *name* with *labels* in *registry*, bound
    through a declaration made on the spot, as a module-level
    :class:`~repro.obs.MetricSpec` would be."""
    spec = MetricSpec(name, kind, help, tuple(labels), buckets)
    return registry.family(spec).labels(*labels.values())


def whole_plane(
    bus: EventBus | None = None,
    grid: SimulatedGrid | None = None,
    *,
    detector: FailureDetector | None = None,
    interval: float = 1.0,
) -> TelemetryPlane:
    """The whole :class:`~repro.obs.TelemetryPlane` — observer and
    statistical layer, what a :class:`~repro.obs.TelemetryServer` serves —
    on *bus* (a fresh one by default) and *grid*'s reactor (one reliable
    host ``h1`` without heartbeats by default), its collector ticking every
    *interval* simulated seconds once started.  An engine or host that
    runs on *bus* takes the plane's *detector*."""
    if grid is None:
        grid = SimulatedGrid(config=GridConfig(heartbeats=False))
        grid.add_host(RELIABLE("h1"))
    bus = bus if bus is not None else EventBus()
    if detector is None:
        detector = FailureDetector(grid.reactor, bus)
    return TelemetryPlane(bus, grid.reactor, grid, detector, interval=interval)


def run_engine_once(technique: str, params, *, seed: int) -> float:
    """One end-to-end engine execution built from scratch; returns the
    completion time.  The fresh-world reference for
    :class:`~repro.sim.EngineSampler`, whose ``run(seed)`` rewinds one
    world in place and must return the same number."""
    workflow = build_technique_workflow(technique, params)
    grid = _build_grid(technique, params, seed)
    engine = WorkflowEngine(workflow, grid, reactor=grid.reactor, validate_spec=False)
    result = engine.run(timeout=DEFAULT_RUN_TIMEOUT)
    if not result.succeeded:
        raise SimulationError(
            f"engine run for {technique!r} failed: {result.node_statuses}"
        )
    return result.completion_time


#: What a timer of a workflow calls into.
_WORKFLOW_SIDE = (WorkflowEngine, _LoopRunner, RecoveryCoordinator, JobProcess)


def timers_of_workflows(kernel) -> list:
    """What *kernel*'s pending timers would call into on a workflow's
    behalf — an engine, a loop, a recovery coordinator or a GRAM job — one
    per such timer, reached from its callback through a bound method's
    ``__self__``, a closure's cells and defaults, or a ``partial``'s
    function and arguments."""
    owners = []
    for entry in [*kernel._heap, *kernel._lane]:
        reached = [entry[CALLBACK]]
        if reached[0] is None or reached[0] is FIRED:
            continue
        for _level in range(4):
            owner = next((o for o in reached if isinstance(o, _WORKFLOW_SIDE)), None)
            if owner is not None:
                owners.append(owner)
                break
            inner = []
            for obj in reached:
                if isinstance(obj, types.MethodType):
                    inner.append(obj.__self__)
                elif isinstance(obj, types.FunctionType):
                    inner.extend(c.cell_contents for c in obj.__closure__ or ())
                    inner.extend(obj.__defaults__ or ())
                elif isinstance(obj, functools.partial):
                    inner.extend((obj.func, *obj.args))
            reached = inner
    return owners
