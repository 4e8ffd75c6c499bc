"""The Grid-WFS workflow engine.

Implements the navigation loop of Section 7: read the specification, build
the instance tree, repeatedly identify the tasks whose dependencies are
resolved, submit them to Grid resources (directly or via the broker's
directory services), determine their final status through the generic
failure detection service, drive the two-level recovery framework, store the
status in the tree, and continue until the instance completes or fails
unrecoverably.  After every task termination the instance is checkpointed
(when a checkpointer is configured), so a crashed engine resumes "from where
it left off".

Control reaches the engine by call, never by event: the failure detector
hands each attempt's verdict to the :class:`RecoveryCoordinator` that
tracked it, the coordinator resolves the task and calls the engine back
(``_on_resolution``), and the engine navigates.  The engine subscribes to
nothing; what it publishes on the bus (``engine.*``) is narration for
:mod:`repro.obs`, each event after the one that caused it.

The engine is reactor-agnostic: construct it with a
:class:`~repro.grid.simkernel.SimReactor` and a
:class:`~repro.grid.simgrid.SimulatedGrid` for virtual-time experiments, or
with a :class:`~repro.reactor.RealTimeReactor` and a
:class:`~repro.engine.executors.LocalExecutor` to run real Python tasks.

Loops (do-while composites) run as child engines sharing the same runtime
(reactor, bus, detector, service, broker): each iteration instantiates the
body workflow afresh; the loop condition is evaluated over the parent
variables merged with the body's outputs.  Engine checkpoints restart an
in-flight loop node from its first iteration (its body's internal progress
is not persisted); completed loops are persisted like any other node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, NamedTuple
from weakref import WeakKeyDictionary

from ..ckpt.manager import CheckpointManager
from ..core.exceptions import UserException
from ..core.policy import FailurePolicy
from ..core.records import FrozenRecord
from ..core.states import TaskState
from ..detection.detector import FailureDetector
from ..errors import EngineError, SpecificationError
from ..events import EventBus
from ..execution import ExecutionService
from ..obs.tracectx import TraceContext, Tracer, stamp
from ..reactor import Reactor
from ..wpdl.conditions import evaluate_condition
from ..wpdl.model import Activity, Loop, Parameter, Workflow
from ..wpdl.validator import validate
from .broker import Broker
from .checkpoint import EngineCheckpointer, load_checkpoint
from .instance import NodeStatus, WorkflowInstance, WorkflowStatus
from .navigator import (
    assert_no_deadlock,
    cancel_node,
    evaluate_outcome,
    fire_outgoing_edges,
    irrelevant_running_nodes,
    propagate_skips,
    ready_nodes,
)
from .recovery import RecoveryCoordinator, TaskResolution
from .strategies import RecoveryStrategy

__all__ = [
    "WorkflowResult",
    "EngineRuntime",
    "WorkflowEngine",
    "ENGINE_NODE_LAUNCHED",
    "ENGINE_NODE_COMPLETED",
    "ENGINE_NODE_CANCELLED",
    "ENGINE_WORKFLOW_FINISHED",
]

#: Bus topics for engine lifecycle events (payloads are plain dicts so
#: subscribers — the trace recorder, UIs, tests — need no engine imports).
#: Each publish site asks ``bus.wants(topic)`` before building its payload;
#: trace contexts are minted outside that guard, so causal ids never depend
#: on who is listening.
ENGINE_NODE_LAUNCHED = "engine.node_launched"
ENGINE_NODE_COMPLETED = "engine.node_completed"
ENGINE_NODE_CANCELLED = "engine.node_cancelled"
ENGINE_WORKFLOW_FINISHED = "engine.workflow_finished"

_NODE_STATUS = {
    TaskState.DONE: NodeStatus.DONE,
    TaskState.FAILED: NodeStatus.FAILED,
    TaskState.EXCEPTION: NodeStatus.EXCEPTION,
}


class _WorkflowResultFields(NamedTuple):
    workflow: str
    status: WorkflowStatus
    #: Final workflow variables (inputs + every activity's recorded output).
    variables: dict[str, Any]
    #: Virtual/wall seconds from engine start to workflow termination —
    #: the "completion time" measured throughout the paper's evaluation.
    completion_time: float
    node_statuses: dict[str, NodeStatus]
    failed_tasks: tuple[str, ...]
    #: Total submission attempts per activity (recovery effort).
    tries: dict[str, int]


class WorkflowResult(FrozenRecord, _WorkflowResultFields):
    """Final report of one workflow execution: a ``NamedTuple`` the engine
    mints with one ``tuple.__new__``, equal, hashed and ``repr``-ed as the
    frozen dataclass it was (:class:`~repro.core.records.FrozenRecord`)."""

    __slots__ = ()

    @property
    def succeeded(self) -> bool:
        return self.status is WorkflowStatus.DONE


_tuple_new = tuple.__new__


@dataclass
class EngineRuntime:
    """Shared infrastructure for an engine and its loop children."""

    reactor: Reactor
    bus: EventBus
    service: ExecutionService
    detector: FailureDetector
    broker: Broker
    checkpoints: CheckpointManager = field(default_factory=CheckpointManager)
    #: Opt-in causal tracing: when set, every engine sharing this runtime
    #: stamps trace/span ids onto its bus payloads (see
    #: :mod:`repro.obs.tracectx`).  ``None`` keeps the publish paths free
    #: of all tracing work beyond one ``is None`` check.
    tracer: Tracer | None = None
    #: Launch plans (:class:`~repro.engine.recovery.LaunchPlan`) of every
    #: specification run here: compiled form → that specification's table.
    #: The key is weak, so a specification's plans go when it does, and the
    #: table goes with the runtime — neither keeps the other alive.
    launch_plans: WeakKeyDictionary = field(default_factory=WeakKeyDictionary)


class WorkflowEngine:
    """Navigates one workflow instance to completion."""

    def __init__(
        self,
        workflow: Workflow,
        service: ExecutionService,
        *,
        reactor: Reactor,
        bus: EventBus | None = None,
        broker: Broker | None = None,
        detector: FailureDetector | None = None,
        heartbeat_timeout: float | None = None,
        checkpointer: EngineCheckpointer | None = None,
        instance: WorkflowInstance | None = None,
        runtime: EngineRuntime | None = None,
        on_finished: Callable[[WorkflowResult], None] | None = None,
        validate_spec: bool = True,
        strategy_resolver: Callable[[FailurePolicy], RecoveryStrategy] | None = None,
        workflow_id: str = "",
        tracer: Tracer | None = None,
    ) -> None:
        if validate_spec and instance is None:
            validate(workflow)
        self.workflow = workflow
        self.workflow_id = workflow_id
        if runtime is not None:
            self.runtime = runtime
        else:
            bus = bus if bus is not None else EventBus()
            detector = (
                detector
                if detector is not None
                else FailureDetector(reactor, bus, heartbeat_timeout=heartbeat_timeout)
            )
            service.connect(detector.deliver)
            self.runtime = EngineRuntime(
                reactor=reactor,
                bus=bus,
                service=service,
                detector=detector,
                broker=broker if broker is not None else Broker(),
                tracer=tracer,
            )
        self.checkpointer = checkpointer
        self._on_finished = on_finished
        self._strategy_resolver = strategy_resolver
        self.coordinator = RecoveryCoordinator(
            self.runtime.service,
            self.runtime.detector,
            self.runtime.broker,
            self.runtime.reactor,
            on_resolution=self._on_resolution,
            checkpoints=self.runtime.checkpoints,
            strategy_resolver=strategy_resolver,
            bus=self.runtime.bus,
            workflow_id=workflow_id,
            tracer=self.runtime.tracer,
            plans=self.runtime.launch_plans.setdefault(workflow.compiled, {}),
        )
        self._begin(instance)

    def _begin(self, instance: WorkflowInstance | None) -> None:
        """Set up a run on *instance* (resumed from a checkpoint) or, for
        ``None``, on a fresh instance of the workflow: the one definition
        of an engine's run state, shared by construction and :meth:`reset`."""
        # O(1) termination/deadlock accounting (a full instance scan per
        # task completion would make large workflows quadratic).
        if instance is None:
            instance = WorkflowInstance(self.workflow)
            self._unresolved = len(instance.nodes)
            self._running_count = 0
        else:  # resumed: count what the checkpoint holds
            statuses = [inst.status for inst in instance.nodes.values()]
            self._unresolved = sum(1 for s in statuses if not s.terminal)
            self._running_count = statuses.count(NodeStatus.RUNNING)
        self.instance = instance
        self._finished = False
        self._result: WorkflowResult | None = None
        self._loop_runners: dict[str, "_LoopRunner"] = {}
        # Causal trace bookkeeping: one root per workflow run, one child
        # context per launched node (handed to the coordinator so attempts
        # chain off it).  All None/empty when the runtime has no tracer.
        self._node_ctx: dict[str, TraceContext] = {}
        tracer = self.runtime.tracer
        self._trace_root: TraceContext | None = (
            None
            if tracer is None
            else tracer.root(self.workflow_id or self.workflow.name)
        )

    # -- construction helpers -----------------------------------------------

    @classmethod
    def resume(
        cls,
        checkpoint_path: str,
        service: ExecutionService,
        *,
        reactor: Reactor,
        checkpointer: EngineCheckpointer | None = None,
        **kwargs: Any,
    ) -> "WorkflowEngine":
        """Restart an engine from its checkpoint file (Section 7)."""
        spec, instance = load_checkpoint(checkpoint_path)
        if checkpointer is None:
            checkpointer = EngineCheckpointer(checkpoint_path)
        return cls(
            spec,
            service,
            reactor=reactor,
            instance=instance,
            checkpointer=checkpointer,
            **kwargs,
        )

    # -- public API -------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def result(self) -> WorkflowResult | None:
        return self._result

    def start(self) -> None:
        """Arm the detector and launch the initially ready tasks."""
        if self.instance.started_at is None:
            self.instance.started_at = self.runtime.reactor.now()
        self.runtime.detector.start()
        self.runtime.reactor.call_soon(lambda: self._advance(None))

    def run(self, *, timeout: float | None = None) -> WorkflowResult:
        """Start and pump the reactor until the workflow terminates.

        Raises :class:`EngineError` if the reactor goes idle or *timeout*
        (reactor seconds) elapses first.
        """
        self.start()
        done = self.runtime.reactor.run_until_complete(
            lambda: self._finished, timeout=timeout
        )
        if not done or self._result is None:
            counts = self.instance.status_counts()
            raise EngineError(
                f"workflow {self.workflow.name!r} did not terminate "
                f"(timeout={timeout}, node statuses: {counts})"
            )
        return self._result

    def reset(self) -> None:
        """Rewind to a fresh, not-yet-started instance of the same workflow
        (mirroring :meth:`repro.grid.simgrid.SimulatedGrid.reset`).

        Everything transient — the instance tree, coordinator bookkeeping,
        detector attempts, loop runners, termination state — is rebuilt by
        the code that builds it for a newly constructed engine over the same
        workflow and runtime, so a reset engine produces bit-identical
        executions.  This is the Monte-Carlo fast path: repeated sampling
        rewinds one engine per configuration instead of constructing one
        per run (:class:`repro.sim.engine_mc.EngineSampler`).

        Only meaningful for an engine that owns its runtime; resetting a
        loop-child engine would clobber its parent's shared infrastructure.
        The caller is responsible for rewinding the execution service
        itself (e.g. ``grid.reset(seed=...)``) first; ``reset`` re-attaches
        the detector to the service, since a service reset clears its
        message sink.
        """
        runtime = self.runtime
        # Coordinator reset also clears the shared CheckpointManager.
        self.coordinator.reset()
        runtime.detector.reset()
        runtime.service.connect(runtime.detector.deliver)
        self._begin(None)

    # -- navigation --------------------------------------------------------------------

    def _advance(self, changed_targets: "Iterable[str] | None") -> None:
        """One navigation round.

        *changed_targets* are the nodes whose incoming edges just resolved
        (the worklist for skip propagation and readiness); ``None`` means a
        full scan — used at start and after checkpoint resume.
        """
        if self._finished:
            return
        compiled = self.instance.compiled.nodes
        skipped = propagate_skips(self.instance, changed_targets)
        self._unresolved -= len(skipped)
        # Zombie-check candidates: the feeders of every node that stopped
        # being PENDING in this round, and every node it launched (one whose
        # targets all left PENDING already is a zombie from birth).
        zombie_candidates: list[str] | None = (
            None if changed_targets is None else []
        )
        if zombie_candidates is not None:
            for name in skipped:
                zombie_candidates.extend(compiled[name].feeders)
        # Skipping fires no edges, but it resolves downstream edges dead —
        # readiness only comes from FIRED edges, so the original targets
        # plus nothing new suffice as ready candidates.
        for name in ready_nodes(self.instance, changed_targets):
            self._launch(name)
            if zombie_candidates is not None:
                zombie_candidates.extend(compiled[name].feeders)
                zombie_candidates.append(name)
        for name in irrelevant_running_nodes(self.instance, zombie_candidates):
            self._cancel_running(name)
        if self._unresolved == 0:
            self._finish()
            return
        if self._running_count == 0 and not self._loop_runners:
            # Nothing running and nothing became ready: navigation is stuck.
            assert_no_deadlock(self.instance)

    def _launch(self, name: str) -> None:
        node_inst = self.instance.node(name)
        node_inst.status = NodeStatus.RUNNING
        self._running_count += 1
        node_inst.started_at = self.runtime.reactor.now()
        node_ctx: TraceContext | None = None
        if self.runtime.tracer is not None and self._trace_root is not None:
            node_ctx = self.runtime.tracer.child(self._trace_root)
            self._node_ctx[name] = node_ctx
        bus = self.runtime.bus
        if bus.wants(ENGINE_NODE_LAUNCHED):
            bus.publish(
                ENGINE_NODE_LAUNCHED,
                stamp(
                    {
                        "workflow": self.workflow.name,
                        "workflow_id": self.workflow_id,
                        "node": name,
                        "at": node_inst.started_at,
                    },
                    node_ctx,
                ),
            )
        compiled = self.instance.compiled.nodes[name]
        if compiled.loop is not None:
            runner = _LoopRunner(self, compiled.loop)
            self._loop_runners[name] = runner
            runner.start()
            return
        activity = compiled.node
        if activity.dummy:
            # Dummy split/join tasks complete instantly, but via the reactor
            # so navigation never recurses unboundedly through long chains.
            self.runtime.reactor.call_soon(
                lambda: self._complete_node(name, NodeStatus.DONE, result=None)
            )
            return
        # ``program_for`` raises for an ``implement`` naming no program.
        program = compiled.program or self.workflow.program_for(activity)
        self.coordinator.start_activity(
            self._bind_inputs(activity) if compiled.has_refs else activity,
            program,
            restored_state=node_inst.recovery_state or None,
            trace=node_ctx,
        )

    def _bind_inputs(self, activity: Activity) -> Activity:
        """Resolve value-dependency inputs (``ref=``) against the current
        workflow variables, producing the activity actually submitted."""
        bound = tuple(
            p
            if p.ref is None
            else Parameter(name=p.name, value=self.instance.variables.get(p.ref))
            for p in activity.inputs
        )
        return activity._replace(inputs=bound)

    def _cancel_running(self, name: str) -> None:
        runner = self._loop_runners.pop(name, None)
        if runner is not None:
            runner.cancel()
        else:
            self.coordinator.cancel_activity(name)
        cancel_node(self.instance, name)
        self._running_count -= 1
        self._unresolved -= 1
        node_inst = self.instance.node(name)
        node_inst.finished_at = self.runtime.reactor.now()
        node_ctx = self._node_ctx.pop(name, None)
        bus = self.runtime.bus
        if bus.wants(ENGINE_NODE_CANCELLED):
            bus.publish(
                ENGINE_NODE_CANCELLED,
                stamp(
                    {
                        "workflow": self.workflow.name,
                        "workflow_id": self.workflow_id,
                        "node": name,
                        "at": node_inst.finished_at,
                    },
                    node_ctx,
                ),
            )

    # -- task resolution -------------------------------------------------------------------

    def _on_resolution(self, resolution: TaskResolution) -> None:
        name = resolution.activity
        if name not in self.instance.nodes:
            return  # a loop child's activity resolved through its own engine
        self._complete_node(
            name,
            _NODE_STATUS[resolution.state],
            result=resolution.result,
            exception=self._translate_exception(name, resolution.exception),
            tries=resolution.tries_used,
        )

    def _translate_exception(
        self, name: str, exception: UserException | None
    ) -> UserException | None:
        """Apply the activity's <Rethrow> translations (most specific
        pattern wins) before workflow-level routing; the original name is
        preserved in the exception data for diagnostics."""
        if exception is None:
            return None
        table = self.instance.compiled.nodes[name].rethrow
        if table is None:
            return exception
        binding = table.lookup(exception)
        if binding is None or binding.rethrow_as is None:
            return exception
        return UserException(
            name=binding.rethrow_as,
            message=exception.message,
            data={**exception.data, "original_exception": exception.name},
        )

    def _complete_node(
        self,
        name: str,
        status: NodeStatus,
        *,
        result: Any = None,
        exception: Any = None,
        tries: int = 1,
        iterations: int = 0,
    ) -> None:
        if self._finished:
            return
        node_inst = self.instance.node(name)
        if node_inst.status is not NodeStatus.RUNNING:
            return  # stale resolution (e.g. the node was cancelled)
        node_inst.status = status
        self._running_count -= 1
        self._unresolved -= 1
        node_inst.result = result
        node_inst.exception = exception
        node_inst.tries_used = tries
        node_inst.iterations = iterations
        node_inst.finished_at = self.runtime.reactor.now()
        if status is NodeStatus.DONE:
            self._record_outputs(name, result)
        node_ctx = self._node_ctx.pop(name, None)
        bus = self.runtime.bus
        if bus.wants(ENGINE_NODE_COMPLETED):
            bus.publish(
                ENGINE_NODE_COMPLETED,
                stamp(
                    {
                        "workflow": self.workflow.name,
                        "workflow_id": self.workflow_id,
                        "node": name,
                        "status": status.value,
                        "tries": tries,
                        "exception": exception.name if exception else None,
                        "at": node_inst.finished_at,
                    },
                    node_ctx,
                ),
            )
        fire_outgoing_edges(self.instance, name, status, exception)
        self._checkpoint()
        # Every outgoing edge of this node just resolved (fired or dead):
        # its targets are the navigation worklist.
        self._advance(self.instance.compiled.nodes[name].targets)

    def _record_outputs(self, name: str, result: Any) -> None:
        variables = self.instance.variables
        variables[name] = result
        outputs = self.instance.compiled.nodes[name].outputs
        if not outputs:
            return
        if isinstance(result, Mapping):
            for out in outputs:
                if out in result:
                    variables[out] = result[out]
        elif len(outputs) == 1:
            variables[outputs[0]] = result

    # -- loop completion (called by _LoopRunner) ------------------------------------------------

    def _complete_loop(
        self, name: str, status: NodeStatus, iterations: int
    ) -> None:
        self._loop_runners.pop(name, None)
        self._complete_node(
            name,
            status,
            result=iterations,
            tries=iterations,
            iterations=iterations,
        )

    # -- persistence -----------------------------------------------------------------------------

    def _checkpoint(self) -> None:
        if self.checkpointer is None:
            return
        snapshots = {
            name: self.coordinator.snapshot_activity(name)
            for name in self.coordinator.running_activities()
            if name in self.instance.nodes
        }
        self.checkpointer.save(
            self.instance,
            snapshots,
            saved_at=self.runtime.reactor.now(),
            workflow_id=self.workflow_id,
        )

    # -- termination ------------------------------------------------------------------------------

    def _finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        self.instance.status = evaluate_outcome(self.instance)
        self.instance.finished_at = self.runtime.reactor.now()
        started = self.instance.started_at or 0.0
        nodes = self.instance.nodes
        self._result = _tuple_new(
            WorkflowResult,
            (
                self.workflow.name,
                self.instance.status,
                dict(self.instance.variables),
                self.instance.finished_at - started,
                {name: inst.status for name, inst in nodes.items()},
                self.instance.failed_tasks(),
                {
                    name: inst.tries_used
                    for name, inst in nodes.items()
                    if inst.tries_used
                },
            ),
        )
        bus = self.runtime.bus
        if bus.wants(ENGINE_WORKFLOW_FINISHED):
            bus.publish(
                ENGINE_WORKFLOW_FINISHED,
                stamp(
                    {
                        "workflow": self.workflow.name,
                        "workflow_id": self.workflow_id,
                        "status": self.instance.status.value,
                        "at": self.instance.finished_at,
                    },
                    self._trace_root,
                ),
            )
        if self._on_finished is not None:
            self._on_finished(self._result)


class _LoopRunner:
    """Runs a do-while Loop node via child engines sharing the runtime."""

    def __init__(self, parent: WorkflowEngine, loop: Loop) -> None:
        self.parent = parent
        self.loop = loop
        self.iterations = 0
        self._cancelled = False
        self._child: WorkflowEngine | None = None

    def start(self) -> None:
        self._iterate()

    def cancel(self) -> None:
        self._cancelled = True
        child = self._child
        if child is not None and not child.finished:
            # Reap the child's running activities; the child engine itself
            # simply never finishes (it is garbage after this).
            for activity in list(child.coordinator.running_activities()):
                child.coordinator.cancel_activity(activity)

    def _iterate(self) -> None:
        if self._cancelled:
            return
        if self.iterations >= self.loop.max_iterations:
            self.parent._complete_loop(
                self.loop.name, NodeStatus.FAILED, self.iterations
            )
            return
        self.iterations += 1
        body = self._body_with_variables()
        self._child = WorkflowEngine(
            body,
            self.parent.runtime.service,
            reactor=self.parent.runtime.reactor,
            runtime=self.parent.runtime,
            on_finished=self._body_finished,
            validate_spec=False,
            strategy_resolver=self.parent._strategy_resolver,
            workflow_id=self.parent.workflow_id,
        )
        self._child.start()

    def _body_with_variables(self) -> Workflow:
        """The body spec with the parent's current variables as initial
        variables (so body activities and conditions see them)."""
        body = self.loop.body
        merged = dict(body.variables)
        merged.update(self.parent.instance.variables)
        return body.with_variables(f"{body.name}#{self.iterations}", merged)

    def _body_finished(self, result: WorkflowResult) -> None:
        if self._cancelled:
            return
        if not result.succeeded:
            self.parent._complete_loop(
                self.loop.name, NodeStatus.FAILED, self.iterations
            )
            return
        # Merge body outputs into the parent variables (visible to the loop
        # condition and to downstream nodes).
        self.parent.instance.variables.update(result.variables)
        # The loop's own name evaluates to its completed-iteration count
        # inside the condition, so "counter loops" need no body plumbing.
        condition_scope = dict(self.parent.instance.variables)
        condition_scope[self.loop.name] = self.iterations
        try:
            again = evaluate_condition(self.loop.condition, condition_scope)
        except SpecificationError:
            self.parent._complete_loop(
                self.loop.name, NodeStatus.FAILED, self.iterations
            )
            return
        if again:
            self.parent.runtime.reactor.call_soon(self._iterate)
        else:
            self.parent._complete_loop(
                self.loop.name, NodeStatus.DONE, self.iterations
            )
