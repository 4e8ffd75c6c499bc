"""The failure detector: host liveness and per-attempt verdicts.

Combines the two input streams of the generic failure detection service —
substrate signals (``Done``, heartbeats) and application notifications
(``TaskStart`` / ``TaskEnd`` / ``Exception`` / ``Checkpoint``) — into each
attempt's :class:`~repro.core.states.TaskState`, applying the paper's
determination rules:

* ``TaskStart`` ⇒ ``ACTIVE``;
* ``Exception`` ⇒ ``EXCEPTION`` (a user-defined, task-specific failure);
* ``Done`` after ``TaskEnd`` ⇒ ``DONE`` (success);
* ``Done`` without ``TaskEnd`` ⇒ ``FAILED`` (task crash failure);
* host suspected while the attempt is non-terminal ⇒ ``FAILED``.

An attempt holds its state directly; every move is checked against
:data:`~repro.core.states.LEGAL_TRANSITIONS` and an illegal one raises
:class:`~repro.errors.DetectionError`.  A terminal signal that arrives
before ``TaskStart`` (a task that crashes at once) first promotes the
attempt to ``ACTIVE``, without narration.

Host liveness is the detector's too, when it is given a heartbeat timeout:
it keeps one :class:`HostLiveness` record per host it has tracked an
attempt on or heard a beat from, and a sweep every ``timeout / 2`` seconds
suspects each host silent for longer than the timeout — the liveness half
of the service, covering host crashes, reboots and network partitions
(indistinguishable from the client's vantage point, as usual for failure
detectors in asynchronous systems).  The sweep narrates the suspicion
(``detector.host_suspected``, payload the hostname) and fails that host's
live attempts; a beat from a suspected host revokes the suspicion
(``detector.host_recovered``) and counts as a false suspicion.

Control goes by call, narration by bus.  For every terminal state the
detector first narrates the :class:`AttemptOutcome` on the bus
(``task.done`` / ``task.failed`` / ``task.exception``: plain topics, the
``workflow_id`` is on the payload) and then hands that same outcome to the
``on_verdict`` callback given at :meth:`FailureDetector.track`.  So every
observer sees a verdict before anything the engine does about it, and
nothing that steers a run depends on who is listening.

The detector holds *live* attempts only: the verdict is the last thing it
knows about an attempt, so the attempt is dropped from the table before its
terminal outcome goes out.  Anything arriving later for that job is an
unknown-job message and is ignored.  The detector keeps no record of what
it was delivered: the journal (:class:`repro.obs.FlightRecorder`) records
every verdict it narrates, and a caller who wants the messages themselves
wraps :meth:`FailureDetector.deliver`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from ..core.exceptions import UserException
from ..core.states import LEGAL_TRANSITIONS, TaskState
from ..errors import DetectionError
from ..events import EventBus
from ..reactor import Reactor, TimerHandle
from .messages import (
    CheckpointNotice,
    Done,
    ExceptionNotice,
    Heartbeat,
    Message,
    TaskEnd,
    TaskStart,
)

__all__ = [
    "FailureDetector",
    "AttemptOutcome",
    "HostLiveness",
    "TASK_ACTIVE",
    "TASK_DONE",
    "TASK_FAILED",
    "TASK_EXCEPTION",
    "HOST_SUSPECTED",
    "HOST_RECOVERED",
]

TASK_ACTIVE = "task.active"
TASK_DONE = "task.done"
TASK_FAILED = "task.failed"
TASK_EXCEPTION = "task.exception"

HOST_SUSPECTED = "detector.host_suspected"
HOST_RECOVERED = "detector.host_recovered"

_TOPIC_FOR_VERDICT = {
    TaskState.DONE: TASK_DONE,
    TaskState.FAILED: TASK_FAILED,
    TaskState.EXCEPTION: TASK_EXCEPTION,
}


class AttemptOutcome(NamedTuple):
    """Published record of one attempt's state change / terminal outcome.

    A ``NamedTuple``: the detector mints one per narration or verdict with
    a single ``tuple.__new__``, and whoever holds it — the coordinator it is
    handed to, the log ring that narrated it — holds a value nobody can
    alter."""

    job_id: str
    activity: str
    state: TaskState
    hostname: str = ""
    #: Present when ``state is EXCEPTION``.
    exception: UserException | None = None
    #: Last checkpoint flag seen before the attempt ended, if any, and the
    #: progress its notification reported.
    checkpoint_flag: str | None = None
    checkpoint_progress: float = 0.0
    #: TaskEnd result payload, when the attempt succeeded.
    result: Any = None
    #: Why the detector failed the attempt ("done-without-taskend",
    #: "host-suspected", "submission-rejected", ...).
    reason: str = ""
    at: float = 0.0
    #: Owning workflow instance ("" outside a multiplexed host).
    workflow_id: str = ""
    #: Causal trace context stamped at :meth:`FailureDetector.track` time
    #: (empty strings when tracing is off).  ``span_id`` names this
    #: attempt; ``parent_id`` names the recovery decision (or node launch)
    #: that spawned it — see :mod:`repro.obs.tracectx`.
    trace_id: str = ""
    span_id: str = ""
    parent_id: str = ""


_tuple_new = tuple.__new__


@dataclass
class HostLiveness:
    """The detector's liveness record for one host."""

    hostname: str
    last_beat: float
    last_seq: int
    suspected: bool = False
    #: Number of times this host has been suspected (diagnostics).
    suspicions: int = 0
    #: Heartbeats observed from this host (the telemetry plane's
    #: heartbeat-loss feed divides suspicions by this).
    beats: int = 0


@dataclass(slots=True, init=False)
class _Attempt:
    job_id: str
    activity: str
    hostname: str
    state: TaskState
    #: Who is told the verdict, after it is narrated (``None``: nobody).
    on_verdict: Callable[[AttemptOutcome], None] | None
    workflow_id: str
    trace_id: str
    span_id: str
    parent_id: str
    saw_task_end: bool
    result: Any
    checkpoint_flag: str | None
    checkpoint_progress: float
    exception: UserException | None

    def __init__(
        self,
        job_id: str,
        activity: str,
        hostname: str,
        on_verdict: Callable[[AttemptOutcome], None] | None,
        workflow_id: str,
    ) -> None:
        self.job_id = job_id
        self.activity = activity
        self.hostname = hostname
        self.state = TaskState.INACTIVE
        self.on_verdict = on_verdict
        self.workflow_id = workflow_id
        self.trace_id = self.span_id = self.parent_id = ""
        self.saw_task_end = False
        self.result = None
        self.checkpoint_flag = None
        self.checkpoint_progress = 0.0
        self.exception = None


class FailureDetector:
    """Tracks task attempts and host liveness, narrates detected states on
    the bus and hands each verdict to whoever tracked the attempt.

    *heartbeat_timeout* is the silence after which a host is suspected;
    ``None`` keeps no liveness at all (heartbeats are only counted).  It
    should exceed the heartbeat period plus the largest expected network
    delay, or live hosts are falsely suspected — the accuracy/completeness
    trade-off the heartbeat-timeout ablation benchmark measures.
    """

    #: The pending sweep, while sweeping (nothing to cancel before then).
    _sweep_handle: TimerHandle | None = None

    def __init__(
        self,
        reactor: Reactor,
        bus: EventBus,
        *,
        heartbeat_timeout: float | None = None,
        batch_heartbeats: bool = False,
    ) -> None:
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise ValueError(f"timeout must be positive, got {heartbeat_timeout!r}")
        self._reactor = reactor
        self._bus = bus
        self.heartbeat_timeout = heartbeat_timeout
        #: With ``batch_heartbeats`` on, beats are buffered and folded into
        #: the host table once per reactor turn: hosts beating on a shared
        #: period all land at the same instant, so a multiplexed run pays
        #: one liveness pass per tick instead of one per host.  Off by
        #: default — the single-engine path keeps synchronous observation.
        self.batch_heartbeats = batch_heartbeats
        self.reset()

    def start(self) -> None:
        """Begin the liveness sweeps (nothing without a heartbeat timeout,
        or while already sweeping)."""
        if self.heartbeat_timeout is not None and self._sweep_handle is None:
            self._sweep_handle = self._reactor.call_later(
                self.heartbeat_timeout / 2, self._sweep
            )

    def stop(self) -> None:
        """Stop sweeping; the host table is kept."""
        if self._sweep_handle is not None:
            self._sweep_handle.cancel()
            self._sweep_handle = None

    def reset(self) -> None:
        """Stop sweeping and forget every tracked attempt and liveness
        record, returning the detector to its just-constructed state — the
        engine-reuse path (:meth:`repro.engine.engine.WorkflowEngine.reset`)
        rewinds one detector instead of building one per run."""
        if self._sweep_handle is not None:  # most rewinds have none to stop
            self.stop()
        self._attempts: dict[str, _Attempt] = {}
        #: Heartbeat messages consumed (GRAM liveness traffic volume) —
        #: scraped by :func:`repro.obs.observer.scrape_detector`.
        self.heartbeats_observed = 0
        self._pending_beats: list[Heartbeat] = []
        self._flush_scheduled = False
        self._hosts: dict[str, HostLiveness] = {}
        #: Suspected hosts that later resumed beating.
        self.false_suspicions = 0

    def liveness(self, hostname: str) -> HostLiveness | None:
        """*hostname*'s liveness record (``None`` when not watched)."""
        return self._hosts.get(hostname)

    def liveness_snapshot(self) -> list[dict]:
        """JSON-safe per-host beat/suspicion counters (empty when
        heartbeat detection is off) — the feed the telemetry plane's
        estimators derive heartbeat-loss rates from."""
        return [
            {
                "host": record.hostname,
                "beats": record.beats,
                "suspicions": record.suspicions,
                "suspected": record.suspected,
                "last_beat": record.last_beat,
            }
            for record in sorted(self._hosts.values(), key=lambda r: r.hostname)
        ]

    # -- registration --------------------------------------------------------

    def track(
        self,
        job_id: str,
        activity: str,
        hostname: str,
        *,
        workflow_id: str = "",
        trace: Any = None,
        on_verdict: Callable[[AttemptOutcome], None] | None = None,
    ) -> None:
        """Begin tracking a submitted attempt (state ``INACTIVE``).

        *on_verdict* is called with the attempt's terminal
        :class:`AttemptOutcome`, exactly once, right after that outcome is
        narrated on the bus — never for ``task.active``, never once the
        attempt is forgotten.  It is how the verdict reaches the tracker
        of the attempt and nobody else.

        *workflow_id* names the attempt's workflow instance on a
        multiplexed host; every outcome record carries it.

        *trace* is the attempt's causal context
        (:class:`repro.obs.tracectx.TraceContext`-shaped, duck-typed to
        avoid an obs import); its ids travel on every published
        :class:`AttemptOutcome` so consumers can link the attempt back to
        the recovery decision that spawned it.
        """
        if job_id in self._attempts:
            raise DetectionError(f"job {job_id!r} is already tracked")
        attempt = self._attempts[job_id] = _Attempt(
            job_id, activity, hostname, on_verdict, workflow_id
        )
        if trace is not None:
            attempt.trace_id = getattr(trace, "trace_id", "") or ""
            attempt.span_id = getattr(trace, "span_id", "") or ""
            attempt.parent_id = getattr(trace, "parent_id", "") or ""
        # Watching a host starts its timeout now, as if it had just beaten.
        if self.heartbeat_timeout is not None and hostname not in self._hosts:
            self._hosts[hostname] = HostLiveness(
                hostname=hostname, last_beat=self._reactor.now(), last_seq=-1
            )

    def forget(self, job_id: str) -> None:
        """Stop tracking (used when cancelling sibling replicas)."""
        self._attempts.pop(job_id, None)

    def submission_rejected(self, job_id: str, activity: str, hostname: str,
                            reason: str) -> None:
        """Record a submission that never started (host down, unknown
        executable): INACTIVE -> FAILED.  For a job nobody tracked this
        only narrates: there is no one to hand the verdict to."""
        if job_id not in self._attempts:
            self.track(job_id, activity, hostname)
        attempt = self._attempts[job_id]
        self._finish(attempt, TaskState.FAILED, reason=reason)

    # -- message input ---------------------------------------------------------

    def deliver(self, msg: Message) -> None:
        """Feed one message from the network / executor into the detector.

        Dispatch is on the message's exact type: any other type, a
        subclass of a message type included, is a :class:`DetectionError`."""
        kind = type(msg)
        if kind is not Heartbeat:
            on_message = _ON_ATTEMPT_MESSAGE.get(kind)
            if on_message is None:
                raise DetectionError(f"unhandled message type: {kind.__name__}")
            attempt = self._attempts.get(msg.job_id)  # type: ignore[union-attr]
            if attempt is not None:  # else late or unknown: the network is async
                on_message(self, attempt, msg)
            return
        self.heartbeats_observed += 1
        if self.heartbeat_timeout is None:
            return
        self._pending_beats.append(msg)  # type: ignore[arg-type]
        if not self.batch_heartbeats:
            self._observe_beats()
        elif not self._flush_scheduled:
            self._flush_scheduled = True
            self._reactor.call_soon(self._observe_beats)

    def _on_task_start(self, attempt: _Attempt, _msg: TaskStart) -> None:
        if attempt.state is TaskState.INACTIVE:
            attempt.state = TaskState.ACTIVE
            if self._bus.wants(TASK_ACTIVE):
                self._bus.publish(TASK_ACTIVE, self._outcome(attempt, "task-start"))

    def _on_checkpoint(self, attempt: _Attempt, msg: CheckpointNotice) -> None:
        attempt.checkpoint_flag = msg.flag
        attempt.checkpoint_progress = msg.progress

    def _on_task_end(self, attempt: _Attempt, msg: TaskEnd) -> None:
        attempt.saw_task_end = True
        attempt.result = msg.result

    def _on_exception(self, attempt: _Attempt, msg: ExceptionNotice) -> None:
        attempt.exception = msg.exception
        if attempt.state is TaskState.INACTIVE:
            attempt.state = TaskState.ACTIVE
        self._finish(attempt, TaskState.EXCEPTION, reason="exception-notice")

    def _observe_beats(self) -> None:
        """Fold the buffered heartbeats into the host table — at once
        without ``batch_heartbeats``, else once per reactor turn.

        Each beat touches its host's record in place — the observation
        time, the sequence number, the beat count — so a batch costs one
        clock read and no allocation beyond a new host's record.  A
        suspected host is revoked at its first beat in the batch, so the
        records, ``false_suspicions`` and the order of recovery
        publications do not depend on how the beats were batched."""
        self._flush_scheduled = False
        beats, self._pending_beats = self._pending_beats, []
        now = self._reactor.now()
        hosts = self._hosts
        for beat in beats:
            hostname = beat.hostname
            record = hosts.get(hostname)
            if record is None:
                hosts[hostname] = HostLiveness(
                    hostname=hostname, last_beat=now, last_seq=beat.seq, beats=1
                )
                continue
            record.last_beat = now
            record.last_seq = beat.seq
            record.beats += 1
            if record.suspected:
                record.suspected = False
                self.false_suspicions += 1
                self._bus.publish(HOST_RECOVERED, hostname)

    def _sweep(self) -> None:
        """Suspect every host silent past the timeout — narrate it, then
        fail the host's live attempts — and sweep again in ``timeout / 2``."""
        timeout = self.heartbeat_timeout
        now = self._reactor.now()
        live = self._attempts
        # Snapshots: failing an attempt synchronously starts recovery (a
        # retry on another host watches that host mid-sweep), and can
        # cancel (forget) or conclude siblings and track new attempts, so
        # each is failed only if it is still the tracked attempt of its job.
        for record in list(self._hosts.values()):
            if record.suspected or now - record.last_beat <= timeout:
                continue
            record.suspected = True
            record.suspicions += 1
            hostname = record.hostname
            self._bus.publish(HOST_SUSPECTED, hostname)
            for attempt in list(live.values()):
                if attempt.hostname == hostname and live.get(attempt.job_id) is attempt:
                    if attempt.state is TaskState.INACTIVE:
                        attempt.state = TaskState.ACTIVE
                    self._finish(attempt, TaskState.FAILED, reason="host-suspected")
        if self._sweep_handle is not None:  # else stopped while it swept
            self._sweep_handle = self._reactor.call_later(timeout / 2, self._sweep)

    # -- determination rules ---------------------------------------------------

    def _on_done(self, attempt: _Attempt, msg: Done) -> None:
        if attempt.state is TaskState.INACTIVE:
            attempt.state = TaskState.ACTIVE
        if attempt.saw_task_end and msg.exit_code == 0 and not msg.host_crashed:
            self._finish(attempt, TaskState.DONE, reason="done-with-taskend")
        else:
            reason = (
                "host-crashed"
                if msg.host_crashed
                else "done-without-taskend"
                if not attempt.saw_task_end
                else f"nonzero-exit({msg.exit_code})"
            )
            self._finish(attempt, TaskState.FAILED, reason=reason)

    def _finish(self, attempt: _Attempt, state: TaskState, *, reason: str) -> None:
        if (attempt.state, state) not in LEGAL_TRANSITIONS:
            raise DetectionError(
                f"task {attempt.activity!r}: illegal transition "
                f"{attempt.state.value} -> {state.value}"
            )
        attempt.state = state
        # The verdict is final: stop tracking before anyone reacts to it.
        self._attempts.pop(attempt.job_id, None)
        outcome = self._outcome(attempt, reason)
        # Narrate, then steer: observers see the verdict before any of the
        # recovery and navigation it causes.
        topic = _TOPIC_FOR_VERDICT[state]
        if self._bus.wants(topic):
            self._bus.publish(topic, outcome)
        if attempt.on_verdict is not None:
            attempt.on_verdict(outcome)

    def _outcome(self, attempt: _Attempt, reason: str) -> AttemptOutcome:
        return _tuple_new(
            AttemptOutcome,
            (
                attempt.job_id,
                attempt.activity,
                attempt.state,
                attempt.hostname,
                attempt.exception,
                attempt.checkpoint_flag,
                attempt.checkpoint_progress,
                attempt.result,
                reason,
                self._reactor.now(),
                attempt.workflow_id,
                attempt.trace_id,
                attempt.span_id,
                attempt.parent_id,
            ),
        )

    # -- queries ------------------------------------------------------------------

    def state_of(self, job_id: str) -> TaskState | None:
        """State of a live attempt; ``None`` once it has its verdict (or
        was never tracked)."""
        attempt = self._attempts.get(job_id)
        return attempt.state if attempt else None

    def checkpoint_flag(self, job_id: str) -> str | None:
        """Last checkpoint flag a live attempt reported."""
        attempt = self._attempts.get(job_id)
        return attempt.checkpoint_flag if attempt else None

    @property
    def live_attempts(self) -> int:
        """Attempts tracked and still without a verdict."""
        return len(self._attempts)


_AttemptHandler = Callable[[FailureDetector, _Attempt, Any], None]

#: Exact message type → what the detector does with it for a live attempt.
_ON_ATTEMPT_MESSAGE: dict[type, _AttemptHandler] = {
    TaskStart: FailureDetector._on_task_start,
    CheckpointNotice: FailureDetector._on_checkpoint,
    TaskEnd: FailureDetector._on_task_end,
    ExceptionNotice: FailureDetector._on_exception,
    Done: FailureDetector._on_done,
}
