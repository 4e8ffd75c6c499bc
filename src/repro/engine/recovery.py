"""Two-level recovery coordination — the heart of the framework.

Implements the paper's Figure 1 control flow on the task side:

* **task-level masking**: after a detected task crash failure, the
  :class:`~repro.engine.strategies.RecoveryStrategy` of the activity's
  :class:`~repro.core.policy.FailurePolicy` decides structure and retries
  from the policy's attributes: how many parallel slots to open, whether,
  where and when a crashed slot tries again, and which checkpoint flag
  each attempt restarts from;
* **fail to mask**: when every slot has exhausted its tries, the failure
  escapes the task level and is reported upward as an unmasked FAILED
  resolution — the workflow-level structure (alternative tasks, OR joins)
  then takes over in the navigator;
* **user-defined exceptions** are *never* masked at the task level (they
  are task-specific semantics, not generic crashes): the first exception
  from any replica cancels the activity's other attempts and escalates
  immediately to the workflow level (Figure 1's "User-defined exception"
  arrow bypassing the task-level box).

The coordinator itself is a thin mechanism layer: it owns slots, job
bookkeeping, timers and resolution callbacks, and delegates every *policy*
decision to the strategy.  It stays engine-passive: it gives its
:meth:`~RecoveryCoordinator.handle_outcome` to the detector with every
attempt it tracks, the detector calls it with that attempt's verdict, and
it answers with submissions (side effects on the execution service) or a
terminal :class:`TaskResolution` callback.  What it publishes on the bus is
narration only; nothing it does depends on who is listening.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from ..ckpt.manager import CheckpointManager
from ..core.exceptions import UserException
from ..core.policy import FailurePolicy
from ..core.states import TaskState
from ..detection.detector import AttemptOutcome, FailureDetector
from ..errors import RecoveryError
from ..events import EventBus
from ..execution import ExecutionService, SubmitRequest
from ..obs.tracectx import TraceContext, Tracer, stamp
from ..reactor import Reactor, TimerHandle
from ..wpdl.model import Activity, Program
from .broker import Broker, ResolvedOption, is_wildcard
from .strategies import RecoveryStrategy, resolve_strategy

__all__ = [
    "TaskResolution",
    "RecoveryCoordinator",
    "ActivityRun",
    "LaunchPlan",
    "RECOVERY_RETRY",
    "RECOVERY_EXHAUSTED",
    "RECOVERY_CHECKPOINT_RESTART",
    "RECOVERY_REPLICATION_WIN",
    "RECOVERY_RESOLVED",
]

#: Bus topics narrating strategy dispatch (payloads are plain dicts, like
#: the ``engine.*`` topics, so observers need no recovery imports).  Only
#: published when the coordinator is constructed with a bus, and only
#: built when that bus has someone to deliver them to.
RECOVERY_RETRY = "recovery.retry"
RECOVERY_EXHAUSTED = "recovery.exhausted"
RECOVERY_CHECKPOINT_RESTART = "recovery.checkpoint_restart"
RECOVERY_REPLICATION_WIN = "recovery.replication_win"
RECOVERY_RESOLVED = "recovery.resolved"


class TaskResolution(NamedTuple):
    """Terminal verdict for one activity, after task-level recovery: a
    ``NamedTuple``, minted with one ``tuple.__new__`` per resolution."""

    activity: str
    state: TaskState  # DONE, FAILED or EXCEPTION
    result: Any = None
    exception: UserException | None = None
    #: Total attempts consumed across all slots.
    tries_used: int = 0


_tuple_new = tuple.__new__


@dataclass(slots=True)
class LaunchPlan:
    """What starting an activity needs from its (program, policy) pair and
    the runtime, derived once and shared by every activity, instance and
    attempt with that pair.  The plan pins ``program`` and ``policy``: they
    are its table key by identity."""

    program: Program
    policy: FailurePolicy
    strategy: RecoveryStrategy
    #: Resource option each slot starts on (``plan_slots``, asked once).
    slot_options: tuple[int, ...]
    attempt_timeout: float | None
    #: Literal options resolved so far, by option index.  A ``hostname='*'``
    #: option never enters: the broker matches it against the catalog and
    #: the activity's query at every submission.
    targets: dict[int, ResolvedOption] = field(default_factory=dict)
    #: The request each literal option runs, by (activity name, option
    #: index), with the activity it was built for.  Every submission of
    #: that activity object resubmits it — a retry, every instance of the
    #: specification, and the same slot in the next run of a reset engine:
    #: the checkpoint flag and the instance go with the submission, not
    #: the request.  A rebuilt activity (inputs bound per launch) never
    #: matches.
    requests: dict[tuple[str, int], tuple[Activity, SubmitRequest]] = field(
        default_factory=dict
    )


@dataclass(slots=True, init=False)
class _Slot:
    """One retry loop: a resource option position for the activity."""

    index: int
    option_index: int
    #: Checkpoint-manager key of this slot's flag (scope, activity, slot).
    flag_key: str
    tries_used: int
    active_job: str | None
    exhausted: bool
    retry_timer: TimerHandle | None
    #: Performance-failure watchdog for the in-flight attempt.
    timeout_timer: TimerHandle | None
    #: Host the in-flight (or last) attempt ran on — carried into the
    #: ``recovery.retry``/``recovery.exhausted`` narration so the drift
    #: estimators can attribute recovery churn per host.
    last_host: str
    #: Causal context of the in-flight (or last) attempt on this slot.
    attempt_trace: TraceContext | None
    #: Context of the recovery decision that will parent the next attempt
    #: (``None`` → the activity root parents it).
    next_parent: TraceContext | None

    def __init__(self, index: int, option_index: int, flag_key: str) -> None:
        self.index = index
        self.option_index = option_index
        self.flag_key = flag_key
        self.tries_used = 0
        self.active_job = None
        self.exhausted = False
        self.retry_timer = None
        self.timeout_timer = None
        self.last_host = ""
        self.attempt_trace = None
        self.next_parent = None


@dataclass(slots=True, init=False)
class ActivityRun:
    """Coordinator state for one in-flight activity."""

    activity: Activity
    program: Program
    plan: LaunchPlan
    slots: list[_Slot]
    resolved: bool
    #: Causal root of this activity's attempt tree (the engine passes its
    #: node-launch context; ``None`` when tracing is off).
    trace: TraceContext | None

    def __init__(
        self,
        activity: Activity,
        program: Program,
        plan: LaunchPlan,
        slots: list[_Slot],
        trace: TraceContext | None = None,
    ) -> None:
        self.activity = activity
        self.program = program
        self.plan = plan
        self.slots = slots
        self.resolved = False
        self.trace = trace

    @property
    def total_tries(self) -> int:
        return sum(slot.tries_used for slot in self.slots)


class RecoveryCoordinator:
    """Drives task-level failure handling for every running activity.

    *strategy_resolver* maps each activity's declarative policy to the
    strategy that executes it; the default is
    :func:`~repro.engine.strategies.resolve_strategy`, and a resolver
    returning a :class:`~repro.engine.strategies.RecoveryStrategy` subclass
    is how a deployment substitutes its own technique.  Strategies are
    stateless and resolved once per (program, policy) pair: the strategy,
    the slots it plans and each literal resource option's target are kept
    in a :class:`LaunchPlan`.  *plans* is the table to keep them in — the
    engine passes the one its runtime holds for the specification, so every
    instance on the runtime shares it; a coordinator built without one
    keeps its own.
    """

    def __init__(
        self,
        service: ExecutionService,
        detector: FailureDetector,
        broker: Broker,
        reactor: Reactor,
        *,
        on_resolution: Callable[[TaskResolution], None],
        checkpoints: CheckpointManager | None = None,
        strategy_resolver: Callable[[FailurePolicy], RecoveryStrategy] | None = None,
        bus: EventBus | None = None,
        workflow_id: str = "",
        tracer: Tracer | None = None,
        plans: dict[tuple, LaunchPlan] | None = None,
    ) -> None:
        self._service = service
        self._detector = detector
        self._broker = broker
        self._reactor = reactor
        self._bus = bus
        self._on_resolution = on_resolution
        self.checkpoints = checkpoints or CheckpointManager()
        self._resolve_strategy = (
            strategy_resolver if strategy_resolver is not None else resolve_strategy
        )
        #: Owning workflow instance in a multiplexed host ("" otherwise).
        #: Scopes checkpoint-flag keys, submissions and detector tracking,
        #: so instances sharing a runtime (and its CheckpointManager /
        #: FailureDetector) cannot collide on activity names.
        self.workflow_id = workflow_id
        self._flag_scope = f"{workflow_id}::" if workflow_id else ""
        #: Causal-context allocator (``None`` keeps every trace site to a
        #: single ``is None`` check — the uninstrumented hot path).
        self._tracer = tracer
        self._plans = plans if plans is not None else {}
        self._runs: dict[str, ActivityRun] = {}
        self._job_index: dict[str, tuple[str, int]] = {}  # job_id -> (activity, slot)

    # -- starting ---------------------------------------------------------------

    def start_activity(
        self,
        activity: Activity,
        program: Program,
        *,
        restored_state: dict[str, Any] | None = None,
        trace: TraceContext | None = None,
    ) -> None:
        """Begin (or, after an engine restart, resume) an activity.

        ``restored_state`` is the recovery snapshot saved in the engine
        checkpoint; preserved try counts keep retry budgets honest across
        engine restarts.  *trace* is the causal root for the activity's
        attempt tree (the engine passes its node-launch context); when
        tracing is on but no context is given, the coordinator opens its
        own root.
        """
        if activity.name in self._runs:
            raise RecoveryError(f"activity {activity.name!r} is already running")
        if trace is None and self._tracer is not None:
            trace = self._tracer.root(self.workflow_id or activity.name)
        plan = self._plan(activity, program)
        flag_prefix = f"{self._flag_scope}{activity.name}@slot"
        run = ActivityRun(
            activity,
            program,
            plan,
            [
                _Slot(i, option, f"{flag_prefix}{i}")
                for i, option in enumerate(plan.slot_options)
            ],
            trace,
        )
        if restored_state:
            self._restore_slots(run, restored_state)
        self._runs[activity.name] = run
        for slot in run.slots:
            if not slot.exhausted:
                self._submit(run, slot)
        if all(slot.exhausted for slot in run.slots):
            # Restored an activity whose budget was already spent.
            self._resolve_failed(run)

    def _plan(self, activity: Activity, program: Program) -> LaunchPlan:
        """The launch plan of *activity*'s (program, policy) pair under
        this coordinator's resolver, made on first use.  Keyed by identity
        (a document's equal policies are one object, and a plan keeps its
        pair alive), so the engine's per-launch rebuilt activity finds the
        plan of the activity it was rebuilt from."""
        policy = activity.policy
        key = (id(program), id(policy), self._resolve_strategy)
        plan = self._plans.get(key)
        if plan is None:
            strategy = self._resolve_strategy(policy)
            plan = self._plans[key] = LaunchPlan(
                program,
                policy,
                strategy,
                tuple(
                    slot.option_index
                    for slot in strategy.plan_slots(activity, program, self._broker)
                ),
                policy.attempt_timeout,
            )
        return plan

    def _restore_slots(self, run: ActivityRun, state: dict[str, Any]) -> None:
        saved = state.get("slots", [])
        for slot, slot_state in zip(run.slots, saved):
            slot.tries_used = int(slot_state.get("tries", 0))
            slot.exhausted = bool(slot_state.get("exhausted", False))
            flag = slot_state.get("flag")
            if flag:
                self.checkpoints.record(
                    slot.flag_key, flag, progress=float(slot_state.get("progress", 0.0))
                )
            # A slot mid-retry when the engine died has budget accounting
            # already done; re-check exhaustion against the policy.
            if run.activity.policy.tries_remaining(slot.tries_used) <= 0:
                slot.exhausted = True

    # -- snapshots (for engine checkpointing) ----------------------------------------

    def snapshot_activity(self, name: str) -> dict[str, Any]:
        run = self._runs.get(name)
        if run is None:
            return {}
        return {
            "slots": [
                {
                    "tries": slot.tries_used,
                    "exhausted": slot.exhausted,
                    "option": slot.option_index,
                    "flag": self.checkpoints.flag_for(slot.flag_key),
                    "progress": self.checkpoints.progress_of(slot.flag_key),
                }
                for slot in run.slots
            ]
        }

    # -- outcome handling ----------------------------------------------------------

    def handle_outcome(self, outcome: AttemptOutcome) -> None:
        """One attempt's verdict, from the detector (the ``on_verdict`` of
        every attempt this coordinator tracks); ignores jobs we do not own
        and stale attempts."""
        entry = self._job_index.get(outcome.job_id)
        if entry is None:
            return
        activity_name, slot_index = entry
        run = self._runs.get(activity_name)
        if run is None or run.resolved:
            return
        slot = run.slots[slot_index]
        if slot.active_job != outcome.job_id:
            return  # stale message from a superseded attempt

        if outcome.state is TaskState.ACTIVE:
            return  # informational

        self._job_index.pop(outcome.job_id, None)
        slot.active_job = None
        if slot.timeout_timer is not None:
            slot.timeout_timer.cancel()
            slot.timeout_timer = None

        # Remember any checkpoint the attempt reported before ending; the
        # producing attempt's span id rides along so a later restart can
        # name the attempt whose saved state it resumes from.
        if outcome.checkpoint_flag:
            self.checkpoints.record(
                slot.flag_key,
                outcome.checkpoint_flag,
                progress=outcome.checkpoint_progress,
                at=self._reactor.now(),
                source_span=outcome.span_id,
            )

        if outcome.state is TaskState.DONE:
            self._resolve_done(run, outcome)
        elif outcome.state is TaskState.EXCEPTION:
            if run.activity.policy.retry_on_exception:
                # Deliberately mask the task-specific failure like a generic
                # crash (the configuration Figure 13 shows to be costly).
                self._handle_crash(run, slot, exception=outcome.exception)
            else:
                self._resolve_exception(run, outcome)
        elif outcome.state is TaskState.FAILED:
            self._handle_crash(run, slot)
        else:  # pragma: no cover - defensive
            raise RecoveryError(f"unexpected outcome state {outcome.state}")

    # -- reuse ---------------------------------------------------------------------------

    def reset(self) -> None:
        """Drop all in-flight bookkeeping, returning the coordinator to its
        just-constructed state for another run of the same engine.

        Deliberately does **not** notify the execution service or the
        detector: the engine-reuse path resets those layers itself (the
        simulated grid rewinds its job table in place), so per-job
        cancellation would target jobs that no longer exist.  Slot timers
        are cancelled defensively for real-time reactors, where timers
        outlive a simulation rewind.
        """
        for run in self._runs.values():
            run.resolved = True
            for slot in run.slots:
                if slot.retry_timer is not None:
                    slot.retry_timer.cancel()
                    slot.retry_timer = None
                if slot.timeout_timer is not None:
                    slot.timeout_timer.cancel()
                    slot.timeout_timer = None
        self._runs.clear()
        self._job_index.clear()
        # The CheckpointManager is shared with sibling instances: only this
        # coordinator's scoped records may be dropped (an unscoped
        # coordinator's scope, "", prefixes every key).
        self.checkpoints.clear_prefix(self._flag_scope)

    # -- cancellation -------------------------------------------------------------------

    def cancel_activity(self, name: str) -> None:
        """Stop all attempts of *name* without a resolution callback."""
        run = self._runs.pop(name, None)
        if run is None:
            return
        run.resolved = True
        self._cancel_slots(run)

    # -- internals ---------------------------------------------------------------------------

    def _wants(self, topic: str) -> bool:
        """Whether narration on *topic* has an audience
        (:meth:`~repro.events.EventBus.wants`).  Every publish site builds
        its detail dict inside this guard and mints its trace context
        outside it, so span ids do not depend on who is listening."""
        return self._bus is not None and self._bus.wants(topic)

    def _publish(self, topic: str, detail: dict[str, Any]) -> None:
        """Complete and publish *detail*; call only after :meth:`_wants`."""
        detail["at"] = self._reactor.now()
        if self.workflow_id:
            detail["workflow_id"] = self.workflow_id
        self._bus.publish(topic, detail)  # type: ignore[union-attr]

    def _submit(self, run: ActivityRun, slot: _Slot) -> None:
        slot.retry_timer = None
        plan = run.plan
        activity = run.activity
        option_index = slot.option_index
        target = plan.targets.get(option_index)
        if target is None:
            # ``resolve_index`` is read off the broker here (a tracer's
            # wrapper is what runs) and raises for an index out of range.
            target = self._broker.resolve_index(activity, run.program, option_index)
            if not is_wildcard(run.program.options[option_index]):
                plan.targets[option_index] = target
        flag = plan.strategy.submit_flag(activity, self.checkpoints, slot.flag_key)
        # Causal chain: the attempt's parent is the recovery decision that
        # spawned it (a retry, or the checkpoint-restart minted just below);
        # the very first attempt of a slot descends from the activity root.
        parent = slot.next_parent if slot.next_parent is not None else run.trace
        slot.next_parent = None
        if flag is not None:
            restart_ctx = None
            if self._tracer is not None and parent is not None:
                restart_ctx = self._tracer.child(parent)
                parent = restart_ctx
            if self._wants(RECOVERY_CHECKPOINT_RESTART):
                self._publish(
                    RECOVERY_CHECKPOINT_RESTART,
                    stamp(
                        {
                            "activity": activity.name,
                            "slot": slot.index,
                            "flag": flag,
                            "flag_source": self.checkpoints.source_span_of(slot.flag_key),
                        },
                        restart_ctx,
                    ),
                )
        if self._tracer is not None and parent is not None:
            slot.attempt_trace = self._tracer.child(parent)
        key = (activity.name, option_index)
        cached = plan.requests.get(key)
        if cached is not None and cached[0] is activity:
            request = cached[1]
        else:
            request = _tuple_new(
                SubmitRequest,
                (
                    activity.name,
                    target.executable,
                    target.hostname,
                    target.service,
                    target.directory,
                    {p.name: p.value for p in activity.inputs},
                    True,
                ),
            )
            if option_index in plan.targets:  # a wildcard's target varies
                plan.requests[key] = (activity, request)
        slot.tries_used += 1
        slot.last_host = target.hostname
        job_id = self._service.submit(
            request, checkpoint_flag=flag, workflow_id=self.workflow_id
        )
        slot.active_job = job_id
        self._job_index[job_id] = (activity.name, slot.index)
        # ``self.handle_outcome`` is read off the instance here, so a
        # wrapper set on it (a tracer's) is what the detector calls.
        self._detector.track(
            job_id,
            activity.name,
            target.hostname,
            workflow_id=self.workflow_id,
            trace=slot.attempt_trace,
            on_verdict=self.handle_outcome,
        )
        timeout = plan.attempt_timeout
        if timeout is not None:
            slot.timeout_timer = self._reactor.call_later(
                timeout, lambda: self._attempt_timed_out(run, slot, job_id)
            )

    def _handle_crash(
        self,
        run: ActivityRun,
        slot: _Slot,
        exception: UserException | None = None,
    ) -> None:
        decision = run.plan.strategy.next_attempt(
            run.activity,
            run.program,
            self._broker,
            failed_option=slot.option_index,
            tries_used=slot.tries_used,
        )
        if decision is not None:
            slot.option_index = decision.option_index
            decision_ctx = None
            if self._tracer is not None and slot.attempt_trace is not None:
                # The decision descends from the failed attempt; the next
                # attempt will descend from the decision.
                decision_ctx = self._tracer.child(slot.attempt_trace)
                slot.next_parent = decision_ctx
            if self._wants(RECOVERY_RETRY):
                self._publish(
                    RECOVERY_RETRY,
                    stamp(
                        {
                            "activity": run.activity.name,
                            "slot": slot.index,
                            "option": decision.option_index,
                            "delay": decision.delay,
                            "tries": slot.tries_used,
                            "host": slot.last_host,
                        },
                        decision_ctx,
                    ),
                )
            if decision.delay > 0:
                slot.retry_timer = self._reactor.call_later(
                    decision.delay, lambda: self._retry_fire(run, slot)
                )
            else:
                self._retry_fire(run, slot)
            return
        slot.exhausted = True
        exhausted_ctx = None
        if self._tracer is not None and slot.attempt_trace is not None:
            exhausted_ctx = self._tracer.child(slot.attempt_trace)
        if self._wants(RECOVERY_EXHAUSTED):
            self._publish(
                RECOVERY_EXHAUSTED,
                stamp(
                    {
                        "activity": run.activity.name,
                        "slot": slot.index,
                        "tries": slot.tries_used,
                        "host": slot.last_host,
                    },
                    exhausted_ctx,
                ),
            )
        if all(s.exhausted for s in run.slots):
            if exception is not None:
                # A masked-but-unmaskable exception: report it as what it
                # was, so workflow-level exception edges can still catch it.
                run.resolved = True
                self._cancel_slots(run)
                self._finish(
                    run,
                    _tuple_new(
                        TaskResolution,
                        (
                            run.activity.name,
                            TaskState.EXCEPTION,
                            None,
                            exception,
                            run.total_tries,
                        ),
                    ),
                )
            else:
                self._resolve_failed(run)

    def _retry_fire(self, run: ActivityRun, slot: _Slot) -> None:
        if run.resolved or slot.exhausted:
            return
        self._submit(run, slot)

    def _attempt_timed_out(self, run: ActivityRun, slot: _Slot, job_id: str) -> None:
        """Performance failure (Section 1's linear-solver deadline): the
        attempt neither finished nor failed within the policy's
        ``attempt_timeout`` — kill it and treat it as a task crash."""
        if run.resolved or slot.active_job != job_id:
            return  # the attempt resolved while the timer was in flight
        slot.timeout_timer = None
        slot.active_job = None
        self._job_index.pop(job_id, None)
        self._service.cancel(job_id)
        self._detector.forget(job_id)
        self._handle_crash(run, slot)

    def _cancel_slots(self, run: ActivityRun, *, except_slot: int | None = None) -> None:
        for slot in run.slots:
            if slot.index == except_slot:
                continue
            if slot.retry_timer is not None:
                slot.retry_timer.cancel()
                slot.retry_timer = None
            if slot.timeout_timer is not None:
                slot.timeout_timer.cancel()
                slot.timeout_timer = None
            if slot.active_job is not None:
                self._service.cancel(slot.active_job)
                self._detector.forget(slot.active_job)
                self._job_index.pop(slot.active_job, None)
                slot.active_job = None

    def _resolve_done(self, run: ActivityRun, outcome: AttemptOutcome) -> None:
        run.resolved = True
        if len(run.slots) > 1:
            win_ctx = None
            if self._tracer is not None and outcome.span_id:
                # Parent is the winning attempt, reconstructed from the
                # outcome's stamped ids.
                win_ctx = self._tracer.child(
                    TraceContext(
                        trace_id=outcome.trace_id, span_id=outcome.span_id
                    )
                )
            if self._wants(RECOVERY_REPLICATION_WIN):
                self._publish(
                    RECOVERY_REPLICATION_WIN,
                    stamp(
                        {
                            "activity": run.activity.name,
                            "host": outcome.hostname,
                            "slots": len(run.slots),
                        },
                        win_ctx,
                    ),
                )
        self._cancel_slots(run)
        for slot in run.slots:
            self.checkpoints.clear(slot.flag_key)
        self._finish(
            run,
            _tuple_new(
                TaskResolution,
                (
                    run.activity.name,
                    TaskState.DONE,
                    outcome.result,
                    None,
                    run.total_tries,
                ),
            ),
        )

    def _resolve_exception(self, run: ActivityRun, outcome: AttemptOutcome) -> None:
        run.resolved = True
        self._cancel_slots(run)
        self._finish(
            run,
            _tuple_new(
                TaskResolution,
                (
                    run.activity.name,
                    TaskState.EXCEPTION,
                    None,
                    outcome.exception,
                    run.total_tries,
                ),
            ),
        )

    def _resolve_failed(self, run: ActivityRun) -> None:
        run.resolved = True
        self._cancel_slots(run)
        self._finish(
            run,
            _tuple_new(
                TaskResolution,
                (run.activity.name, TaskState.FAILED, None, None, run.total_tries),
            ),
        )

    def _finish(self, run: ActivityRun, resolution: TaskResolution) -> None:
        self._runs.pop(run.activity.name, None)
        resolved_ctx = None
        if self._tracer is not None and run.trace is not None:
            resolved_ctx = self._tracer.child(run.trace)
        if self._wants(RECOVERY_RESOLVED):
            self._publish(
                RECOVERY_RESOLVED,
                stamp(
                    {
                        "activity": resolution.activity,
                        "state": resolution.state.value,
                        "tries": resolution.tries_used,
                    },
                    resolved_ctx,
                ),
            )
        self._on_resolution(resolution)

    # -- queries ----------------------------------------------------------------------------

    def running_activities(self) -> list[str]:
        return sorted(self._runs)

    def tries_used(self, name: str) -> int:
        run = self._runs.get(name)
        return run.total_tries if run else 0
