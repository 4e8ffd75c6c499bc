"""Two-level recovery coordination — the heart of the framework.

Implements the paper's Figure 1 control flow on the task side:

* **task-level masking**: three decisions are read straight off the
  activity's :class:`~repro.core.policy.FailurePolicy`, i.e. its WPDL
  attributes:

  - the slots to open (Figure 3, ``resolve_strategy``, once per pair): one
    per resource option when the policy is ``replicated``, else one;
  - whether, where and when a crashed slot tries again (Figure 2, per
    slot): while ``tries_remaining`` is positive, on the option the
    broker's ``retry_index`` picks for ``resource_selection``, after
    ``retry_delay`` seconds;
  - whether a submission carries the slot's last checkpoint flag
    (Section 4.3): iff ``restart_from_checkpoint``.

  A slot on a ``hostname='*'`` option is placed by the broker away from
  the hosts its sibling slots hold, while another host matches;
* **fail to mask**: when every slot has exhausted its tries, the failure
  escapes the task level and is reported upward as an unmasked FAILED
  resolution — the workflow-level structure (alternative tasks, OR joins)
  then takes over in the navigator;
* **user-defined exceptions** are *never* masked at the task level (they
  are task-specific semantics, not generic crashes): the first exception
  from any replica cancels the activity's other attempts and escalates
  immediately to the workflow level (Figure 1's "User-defined exception"
  arrow bypassing the task-level box).

Try counts, live jobs and timers live in the coordinator's slots; a
decision is read off the policy when it is due and not kept.  The
coordinator stays engine-passive: it gives its
:meth:`~RecoveryCoordinator.handle_outcome` to the detector with every
attempt it tracks, the detector calls it with that attempt's verdict, and
it answers with submissions (side effects on the execution service) or a
terminal :class:`TaskResolution` callback.  What it publishes on the bus is
narration only; nothing it does depends on who is listening.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, NamedTuple

from ..core.exceptions import UserException
from ..core.policy import FailurePolicy
from ..core.states import TaskState
from ..detection.detector import AttemptOutcome
from ..errors import CheckpointError, RecoveryError
from ..execution import SubmitRequest
from ..obs.tracectx import UNTRACED, TraceContext
from ..reactor import TimerHandle
from ..wpdl.model import Activity, Program
from .broker import ResolvedOption, is_wildcard
from .strategies import resolve_strategy

if TYPE_CHECKING:
    from .engine import EngineRuntime

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
    "RecoveryRetry",
    "RecoveryExhausted",
    "RecoveryCheckpointRestart",
    "RecoveryReplicationWin",
    "RecoveryResolved",
    "PAYLOADS",
]

#: Bus topics narrating recovery decisions, on the runtime's bus: minted
#: only when that bus has someone to deliver them to.  Each carries its own
#: ``NamedTuple`` (declared below, listed in :data:`PAYLOADS`), minted like
#: the engine's: the decision's fields, then the decision's trace ids
#: (``None`` untraced), the clock and the instance (``None`` for an
#: unscoped coordinator) — which is also the order of their journal
#: entries' keys.
RECOVERY_RETRY = "recovery.retry"
RECOVERY_EXHAUSTED = "recovery.exhausted"
RECOVERY_CHECKPOINT_RESTART = "recovery.checkpoint_restart"
RECOVERY_REPLICATION_WIN = "recovery.replication_win"
RECOVERY_RESOLVED = "recovery.resolved"


class RecoveryRetry(NamedTuple):
    """A crashed slot tries again on ``option`` after ``delay`` seconds."""

    activity: str
    slot: int
    option: int
    delay: float
    tries: int
    host: str | None
    trace_id: str | None = None
    span_id: str | None = None
    parent_id: str | None = None
    at: float = 0.0
    workflow_id: str | None = None


class RecoveryExhausted(NamedTuple):
    """A slot has used every try its policy gives it."""

    activity: str
    slot: int
    tries: int
    host: str | None
    trace_id: str | None = None
    span_id: str | None = None
    parent_id: str | None = None
    at: float = 0.0
    workflow_id: str | None = None


class RecoveryCheckpointRestart(NamedTuple):
    """A submission resumes from ``flag``, saved by the attempt
    ``flag_source`` names."""

    activity: str
    slot: int
    flag: str
    flag_source: str | None
    trace_id: str | None = None
    span_id: str | None = None
    parent_id: str | None = None
    at: float = 0.0
    workflow_id: str | None = None


class RecoveryReplicationWin(NamedTuple):
    """The replica on ``host`` finished first of ``slots``."""

    activity: str
    host: str
    slots: int
    trace_id: str | None = None
    span_id: str | None = None
    parent_id: str | None = None
    at: float = 0.0
    workflow_id: str | None = None


class RecoveryResolved(NamedTuple):
    """The activity resolved ``state`` after ``tries`` attempts."""

    activity: str
    state: str
    tries: int
    trace_id: str | None = None
    span_id: str | None = None
    parent_id: str | None = None
    at: float = 0.0
    workflow_id: str | None = None


#: What each topic above carries.
PAYLOADS = {
    RECOVERY_RETRY: RecoveryRetry,
    RECOVERY_EXHAUSTED: RecoveryExhausted,
    RECOVERY_CHECKPOINT_RESTART: RecoveryCheckpointRestart,
    RECOVERY_REPLICATION_WIN: RecoveryReplicationWin,
    RECOVERY_RESOLVED: RecoveryResolved,
}


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

#: The arguments of every request of an activity without inputs.
_NO_ARGUMENTS: Mapping[str, Any] = MappingProxyType({})


@dataclass(slots=True)
class LaunchPlan:
    """What starting an activity needs from its (program, policy) pair and
    the runtime, derived once and shared by every activity, instance and
    attempt with that pair.  The plan pins ``program`` and ``policy``: they
    are its table key by identity."""

    program: Program
    policy: FailurePolicy
    #: Resource option each slot starts on: every option of a replicated
    #: policy, else the first.
    slot_options: tuple[int, ...]
    #: Literal options resolved so far, by option index.  A ``hostname='*'``
    #: option never enters: the broker matches it against the catalog and
    #: the activity's query at every submission.
    targets: dict[int, ResolvedOption] = field(default_factory=dict)
    #: The request each literal option runs, by option index and then
    #: activity name: every submission of that activity on that option
    #: resubmits it — a retry, every instance of the specification, and the
    #: same slot in the next run of a reset engine: the checkpoint flag and
    #: the instance go with the submission, not the request.  Only an
    #: activity without inputs enters (its request is a function of its
    #: name and the option); one with inputs, which the engine may rebuild
    #: per launch to bind them, builds its request per submission.
    requests: dict[int, dict[str, SubmitRequest]] = field(default_factory=dict)


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
    plan: LaunchPlan
    slots: list[_Slot]
    resolved: bool
    #: Causal root of this activity's attempt tree (the engine passes its
    #: node-launch context; ``None`` when tracing is off).
    trace: TraceContext | None

    def __init__(
        self,
        activity: Activity,
        plan: LaunchPlan,
        slots: list[_Slot],
        trace: TraceContext | None = None,
    ) -> None:
        self.activity = activity
        self.plan = plan
        self.slots = slots
        self.resolved = False
        self.trace = trace

    @property
    def total_tries(self) -> int:
        return sum(slot.tries_used for slot in self.slots)


class RecoveryCoordinator:
    """Drives task-level failure handling for every running activity.

    Each activity is handled as its :class:`~repro.core.policy.FailurePolicy`
    declares.  What a (program, policy) pair fixes — the slots' options,
    each literal resource option's target and request — is derived once
    and kept in a :class:`LaunchPlan`.  *plans* is the table to keep them
    in — the engine passes the one its runtime holds for the
    specification, so every instance on the runtime shares it.  Service,
    detector, broker, reactor, checkpoints, bus and tracer are read off
    *runtime*, the :class:`~repro.engine.engine.EngineRuntime` the engine
    runs on; each is kept as the object it is, so a wrapper set on one of
    its methods is what runs.
    """

    def __init__(
        self,
        runtime: EngineRuntime,
        plans: dict[tuple, LaunchPlan],
        *,
        on_resolution: Callable[[TaskResolution], None],
        workflow_id: str = "",
    ) -> None:
        self._service = runtime.service
        self._detector = runtime.detector
        self._broker = runtime.broker
        self._reactor = runtime.reactor
        self._bus = runtime.bus
        self._on_resolution = on_resolution
        self.checkpoints = runtime.checkpoints
        #: Owning workflow instance in a multiplexed host ("" otherwise).
        #: Scopes checkpoint-flag keys, submissions and detector tracking,
        #: so instances sharing a runtime (and its CheckpointManager /
        #: FailureDetector) cannot collide on activity names.
        self.workflow_id = workflow_id
        self._flag_scope = f"{workflow_id}::" if workflow_id else ""
        #: Causal-context allocator (``None`` keeps every trace site to a
        #: single ``is None`` check — the uninstrumented hot path).
        self._tracer = runtime.tracer
        self._plans = plans
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
        attempt tree (the engine passes its node-launch context, ``None``
        when the runtime has no tracer).
        """
        if activity.name in self._runs:
            raise RecoveryError(f"activity {activity.name!r} is already running")
        plan = self._plan(activity, program)
        flag_prefix = f"{self._flag_scope}{activity.name}@slot"
        run = ActivityRun(
            activity,
            plan,
            [
                _Slot(i, option, f"{flag_prefix}{i}")
                for i, option in enumerate(plan.slot_options)
            ],
            trace,
        )
        if restored_state:
            self._restore_slots(run, restored_state)
        # Every target before the first submission: a broker error leaves
        # nothing submitted.  A ``*`` slot is matched away from the hosts
        # the slots before it chose.
        launches, chosen = [], []
        for slot in run.slots:
            if not slot.exhausted:
                target = self._target(run, slot.option_index, chosen)
                chosen.append(target.hostname)
                launches.append((slot, target))
        self._runs[activity.name] = run
        for slot, target in launches:
            self._submit(run, slot, target)
        if not launches:
            # Restored an activity whose budget was already spent.
            self._resolve(run, TaskState.FAILED)

    def _plan(self, activity: Activity, program: Program) -> LaunchPlan:
        """The launch plan of *activity*'s (program, policy) pair, made on
        first use.  Keyed by identity (a document's equal policies are one
        object, and a plan keeps its pair alive), so the engine's per-launch
        rebuilt activity finds the plan of the activity it was rebuilt
        from."""
        policy = activity.policy
        key = (id(program), id(policy))
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = LaunchPlan(
                program, policy, resolve_strategy(policy, program)
            )
        return plan

    def _target(
        self, run: ActivityRun, option_index: int, exclude: Iterable[str]
    ) -> ResolvedOption:
        """Target of *option_index*, kept in the plan for a literal option;
        a ``*`` one is matched again per submission, away from *exclude*
        (read only then)."""
        target = run.plan.targets.get(option_index)
        if target is not None:
            return target
        program = run.plan.program
        # ``resolve_index`` is read off the broker here (a tracer's wrapper
        # is what runs) and raises for an index out of range.
        target = self._broker.resolve_index(
            run.activity, program, option_index, exclude=exclude
        )
        if not is_wildcard(program.options[option_index]):
            run.plan.targets[option_index] = target
            run.plan.requests[option_index] = {}
        return target

    def _restore_slots(self, run: ActivityRun, state: dict[str, Any]) -> None:
        saved = state.get("slots", [])
        program = run.plan.program
        for slot, slot_state in zip(run.slots, saved):
            option = int(slot_state.get("option", slot.option_index))
            if not 0 <= option < len(program.options):
                raise CheckpointError(
                    f"activity {run.activity.name!r}: restored option index "
                    f"{option} out of range for program {program.name!r}"
                )
            slot.option_index = option
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
                # Narrated before the losing replicas are cancelled.
                if self._bus.wants(RECOVERY_REPLICATION_WIN):
                    self._publish(
                        RECOVERY_REPLICATION_WIN,
                        win_ctx,
                        run.activity.name,
                        outcome.hostname,
                        len(run.slots),
                    )
            self._resolve(run, TaskState.DONE, result=outcome.result)
        elif outcome.state is TaskState.EXCEPTION:
            if run.activity.policy.retry_on_exception:
                # Deliberately mask the task-specific failure like a generic
                # crash (the configuration Figure 13 shows to be costly).
                self._handle_crash(run, slot, exception=outcome.exception)
            else:
                self._resolve(run, TaskState.EXCEPTION, exception=outcome.exception)
        elif outcome.state is TaskState.FAILED:
            self._handle_crash(run, slot)
        else:  # pragma: no cover - defensive
            raise RecoveryError(f"unexpected outcome state {outcome.state}")

    # -- cancellation -------------------------------------------------------------------

    def cancel_activity(self, name: str) -> None:
        """Stop all attempts of *name* without a resolution callback."""
        run = self._runs.get(name)
        if run is not None:
            self._release(run)

    # -- internals ---------------------------------------------------------------------------

    def _publish(self, topic: str, ctx: TraceContext | None, *fields: Any) -> None:
        """Mint *topic*'s payload — *fields*, then *ctx*'s ids, the clock and
        the instance — with one ``tuple.__new__`` and publish it; call only
        when ``self._bus.wants(topic)``.  Every publish site mints its
        payload inside that guard and its trace context outside it, so span
        ids do not depend on who is listening."""
        self._bus.publish(
            topic,
            _tuple_new(
                PAYLOADS[topic],
                (
                    *fields,
                    *(ctx or UNTRACED),
                    self._reactor.now(),
                    self.workflow_id or None,
                ),
            ),
        )

    def _submit(self, run: ActivityRun, slot: _Slot, target: ResolvedOption) -> None:
        slot.retry_timer = None
        plan = run.plan
        activity = run.activity
        flag = (
            self.checkpoints.flag_for(slot.flag_key)
            if plan.policy.restart_from_checkpoint
            else None
        )
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
            if self._bus.wants(RECOVERY_CHECKPOINT_RESTART):
                self._publish(
                    RECOVERY_CHECKPOINT_RESTART,
                    restart_ctx,
                    activity.name,
                    slot.index,
                    flag,
                    self.checkpoints.source_span_of(slot.flag_key),
                )
        if self._tracer is not None and parent is not None:
            slot.attempt_trace = self._tracer.child(parent)
        inputs = activity.inputs
        # Shared only on a literal option (a wildcard's target varies) and
        # by an activity without inputs (inputs may be bound per launch).
        requests = None if inputs else plan.requests.get(slot.option_index)
        request = None if requests is None else requests.get(activity.name)
        if request is None:
            request = _tuple_new(
                SubmitRequest,
                (
                    activity.name,
                    target.executable,
                    target.hostname,
                    target.service,
                    target.directory,
                    {p.name: p.value for p in inputs} if inputs else _NO_ARGUMENTS,
                    True,
                ),
            )
            if requests is not None:
                requests[activity.name] = request
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
        timeout = plan.policy.attempt_timeout
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
        policy = run.plan.policy
        tries = slot.tries_used
        if policy.tries_remaining(tries) > 0:
            option = slot.option_index = self._broker.retry_index(
                run.activity,
                run.plan.program,
                failed_index=slot.option_index,
                tries_used=tries,
                selection=policy.resource_selection,
            )
            delay = policy.retry_delay(tries)
            decision_ctx = None
            if self._tracer is not None and slot.attempt_trace is not None:
                # The decision descends from the failed attempt; the next
                # attempt will descend from the decision.
                decision_ctx = self._tracer.child(slot.attempt_trace)
                slot.next_parent = decision_ctx
            if self._bus.wants(RECOVERY_RETRY):
                self._publish(
                    RECOVERY_RETRY,
                    decision_ctx,
                    run.activity.name,
                    slot.index,
                    option,
                    delay,
                    tries,
                    slot.last_host,
                )
            if delay > 0:
                slot.retry_timer = self._reactor.call_later(
                    delay, lambda: self._retry_fire(run, slot)
                )
            else:
                self._retry_fire(run, slot)
            return
        slot.exhausted = True
        exhausted_ctx = None
        if self._tracer is not None and slot.attempt_trace is not None:
            exhausted_ctx = self._tracer.child(slot.attempt_trace)
        if self._bus.wants(RECOVERY_EXHAUSTED):
            self._publish(
                RECOVERY_EXHAUSTED,
                exhausted_ctx,
                run.activity.name,
                slot.index,
                slot.tries_used,
                slot.last_host,
            )
        if all(s.exhausted for s in run.slots):
            # A masked-but-unmaskable exception is reported as what it was,
            # so workflow-level exception edges can still catch it.
            state = TaskState.FAILED if exception is None else TaskState.EXCEPTION
            self._resolve(run, state, exception=exception)

    def _retry_fire(self, run: ActivityRun, slot: _Slot) -> None:
        if run.resolved or slot.exhausted:
            return
        # A ``*`` retry avoids the hosts of its siblings' live attempts.
        held = (s.last_host for s in run.slots if s.active_job is not None)
        self._submit(run, slot, self._target(run, slot.option_index, held))

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

    def _release(self, run: ActivityRun) -> None:
        """Let go of everything *run* holds: the one end of every run,
        resolved or cancelled.  Its timers and live jobs are cancelled (each
        job forgotten by the detector and the index) and its slots'
        checkpoint flags dropped."""
        run.resolved = True
        self._runs.pop(run.activity.name, None)
        for slot in run.slots:
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
            self.checkpoints.clear(slot.flag_key)

    def _resolve(
        self,
        run: ActivityRun,
        state: TaskState,
        result: Any = None,
        exception: UserException | None = None,
    ) -> None:
        """End *run* as *state*: the one place an activity resolves.  It is
        released, the resolution narrated, and the :class:`TaskResolution`
        goes to the engine."""
        self._release(run)
        name = run.activity.name
        tries = run.total_tries
        resolved_ctx = None
        if self._tracer is not None and run.trace is not None:
            resolved_ctx = self._tracer.child(run.trace)
        if self._bus.wants(RECOVERY_RESOLVED):
            self._publish(RECOVERY_RESOLVED, resolved_ctx, name, state.value, tries)
        self._on_resolution(
            _tuple_new(TaskResolution, (name, state, result, exception, tries))
        )

    # -- queries ----------------------------------------------------------------------------

    def running_activities(self) -> list[str]:
        return sorted(self._runs)
