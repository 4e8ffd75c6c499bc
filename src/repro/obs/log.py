"""One log per bus and one fold over it: what the telemetry plane pays per
event, and nothing else.

An :class:`EventLog` is its bus's single tap.  A publish costs one append
of one record — ``(seq, sim, wall, topic, payload)``: a sequence number,
the simulation clock and ``time.perf_counter`` read at the publish, the
topic, and the payload — kept as given, since what the stack publishes is
immutable (a minted ``NamedTuple`` per topic, a hostname); only a plain
dict, which only a foreign publisher or an ``obs.*`` topic brings, is
copied shallowly.  Everything the plane knows is derived
from the records later (DESIGN.md §12): *views* (journal, event list,
spans, trace queries) render the retained records on demand
(:func:`expand`); what is *sampled* (metrics, tracker status, estimator
counts) is folded from the records not folded yet, in log order, by the
log's one :class:`Fold` — one pass per slice, one topic lookup per record,
off one table of running instances.

:meth:`EventLog.fold` runs it: the collector calls it at the start
of every tick, every read accessor of a consumer before it answers, and
the log itself once as many records wait as its ring holds — a record is
never dropped unfolded.  What a fold publishes (``obs.drift.*``,
``obs.alert.*``) is appended like any other event and folded in the same
call.  Only log order and the stamps taken at append go into a fold, so
*when* it runs shows nowhere but in where those publications land in the
journal — at most one collector interval after their cause.

A consumer (:class:`LogConsumer`) is attached for the life of its bus: it
joins the log once and never leaves, and what it renders is what the log's
ring still holds — the one retention rule.

Only the thread that appended last folds; a read from any other (the HTTP
server's) answers from the state the last fold left, under
:attr:`EventLog.lock`.  What cannot wait for a fold — the flight
recorder's spill line — hooks the append itself (:attr:`EventLog.spills`).
"""

from __future__ import annotations

from collections import deque
from functools import cache
from itertools import islice
from threading import RLock, get_ident
from time import perf_counter
from typing import Any, Callable, ContextManager
from weakref import WeakKeyDictionary, ref

from ..core.records import FrozenRecord
from ..errors import GridWFSError
from ..events import EventBus

__all__ = ["AttachError", "EventLog", "Fold", "LogConsumer", "LogRecord", "expand"]

#: ``(seq, sim, wall, topic, payload)`` — a plain tuple: the cheapest thing
#: to build per publish and to unpack per fold.
LogRecord = tuple[int, float, float, str, Any]

#: AttemptOutcome attributes copied into a journal entry when present.
_OUTCOME_FIELDS = (
    "job_id",
    "activity",
    "hostname",
    "reason",
    "at",
    "workflow_id",
    "trace_id",
    "span_id",
    "parent_id",
)


def _json_safe(value: Any) -> Any:
    """Coerce one payload value to something ``json.dumps`` accepts."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)) and not isinstance(value, FrozenRecord):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    name = getattr(value, "name", None)
    if isinstance(name, str):  # UserException and friends
        return name
    return repr(value)


#: Fields a minted payload leaves out of its journal entry when ``None``:
#: an untraced publish's ids, an unscoped coordinator's instance.
_ABSENT_WHEN_NONE = ("trace_id", "span_id", "parent_id", "workflow_id")


def expand(record: LogRecord) -> dict[str, Any]:
    """One record → the flat JSON-safe entry every view is made of, when
    a view is read (or in the spill writer), never in the append.  Dict
    payloads flatten into the entry, AttemptOutcome-shaped payloads are
    read duck-typed, a topic's own minted payload renders its fields in
    order, anything else degrades to ``repr`` — and a payload that breaks
    on the way becomes an entry complaining about itself
    (``recorder_error``) instead of an exception."""
    seq, _sim, _wall, topic, payload = record
    entry: dict[str, Any] = {"seq": seq, "topic": topic}
    try:
        if isinstance(payload, dict):
            for key, value in payload.items():
                entry[str(key)] = _json_safe(value)
        elif hasattr(payload, "job_id"):
            for field_name in _OUTCOME_FIELDS:
                value = getattr(payload, field_name, None)
                if value not in (None, ""):
                    entry[field_name] = _json_safe(value)
            exception = getattr(payload, "exception", None)
            if exception is not None:
                entry["exception"] = _json_safe(exception)
        elif payload is not None:
            kind = _kinds().get(topic)
            if kind is not None and kind[0] >= _ADMITTED and type(payload) is kind[1]:
                for key, value in zip(payload._fields, payload):
                    if value is not None or key not in _ABSENT_WHEN_NONE:
                        entry[key] = _json_safe(value)
            else:
                entry["payload"] = _json_safe(payload)
    except Exception as exc:  # a broken payload journals its own complaint
        entry["recorder_error"] = repr(exc)
    return entry


#: ``AttemptOutcome.state`` — the ``<state>`` of the ``task.<state>`` topic
#: it is published on — → the attempt's outcome label ("" while it is
#: still running).  The detector's ``TaskState`` is a ``str`` enum, so its
#: members find their plain-string keys here without an import.
ATTEMPT_OUTCOME = {
    "active": "",
    "done": "done",
    "failed": "failed",
    "exception": "exception",
}

#: Failure-detector reasons that count as a *host* failure (as opposed to
#: a task's own nonzero exit, which says nothing about the host's MTTF).
_HOST_FAILURE_REASONS = ("host-crashed", "host-suspected")

#: What :class:`Fold` does with a record, by its topic (:func:`_kinds`):
#: an attempt's outcome, a host's liveness, the engine's narration, and —
#: from ``_RESOLVED`` on — a recovery decision.
(
    _ATTEMPT,
    _SUSPECTED,
    _RECOVERED,
    _ADMITTED,
    _LAUNCHED,
    _COMPLETED,
    _CANCELLED,
    _FINISHED,
    _RESOLVED,
    _RETRY,
    _RESTART,
    _WIN,
    _EXHAUSTED,
) = range(13)


@cache
def _kinds() -> dict[str, tuple[int, type, str]]:
    """Every topic the fold reads → its kind, the payload type its
    publisher declares for it, and (for ``task.*``) the attempt's outcome
    label.  Built on first use, from the publishers' own declarations:
    they import :mod:`repro.obs` themselves."""
    from ..detection import detector
    from ..engine import engine, host, recovery

    attempt = detector.AttemptOutcome
    kinds = {
        detector.TASK_ACTIVE: (_ATTEMPT, attempt, ""),
        detector.TASK_DONE: (_ATTEMPT, attempt, "done"),
        detector.TASK_FAILED: (_ATTEMPT, attempt, "failed"),
        detector.TASK_EXCEPTION: (_ATTEMPT, attempt, "exception"),
        detector.HOST_SUSPECTED: (_SUSPECTED, str, ""),
        detector.HOST_RECOVERED: (_RECOVERED, str, ""),
    }
    narrated = {
        host.ENGINE_WORKFLOW_ADMITTED: _ADMITTED,
        engine.ENGINE_NODE_LAUNCHED: _LAUNCHED,
        engine.ENGINE_NODE_COMPLETED: _COMPLETED,
        engine.ENGINE_NODE_CANCELLED: _CANCELLED,
        engine.ENGINE_WORKFLOW_FINISHED: _FINISHED,
        recovery.RECOVERY_RESOLVED: _RESOLVED,
        recovery.RECOVERY_RETRY: _RETRY,
        recovery.RECOVERY_CHECKPOINT_RESTART: _RESTART,
        recovery.RECOVERY_REPLICATION_WIN: _WIN,
        recovery.RECOVERY_EXHAUSTED: _EXHAUSTED,
    }
    payloads = {**host.PAYLOADS, **engine.PAYLOADS, **recovery.PAYLOADS}
    for topic, kind in narrated.items():
        kinds[topic] = (kind, payloads[topic], "")
    return kinds


class _Instance:
    """One running workflow instance as a fold keeps it: its
    specification's name, the status dict the tracker serves for it (None
    in a fold without a tracker) and its open attempts, activity → job →
    ``sim_start`` (a node's resolution ends the ones it cancelled)."""

    __slots__ = ("workflow", "status", "attempts")

    def __init__(self, workflow, status, attempts) -> None:
        self.workflow: str = workflow
        self.status: dict[str, Any] | None = status
        self.attempts: dict[str, dict[str, float]] = attempts


class Fold:
    """One pass over a slice of the log for everything that is sampled:
    the observer's metric families, the tracker's status and the
    estimators' counts, for whichever of the three has joined.  A record is
    decoded once — one lookup of its topic in :attr:`kinds`, then its
    payload's fields read off the type its publisher declared (a payload of
    any other type is skipped: its journal entry still shows it), one look
    into :attr:`instances`, the table of running instances by
    ``workflow_id`` ("" for a classic single-instance run), where an entry
    is made by the instance's first launch or attempt and goes when its
    workflow finishes.  One per :class:`EventLog`, created with it.
    Nothing here is rendered: spans are a view
    (:func:`~repro.obs.observer.spans_of`)."""

    __slots__ = ("observer", "tracker", "estimators", "instances", "kinds")

    def __init__(self) -> None:
        self.observer: Any = None
        self.tracker: Any = None
        self.estimators: Any = None
        self.instances: dict[str, _Instance] = {}
        self.kinds = _kinds()

    def __call__(self, records: list[LogRecord]) -> None:
        observer, tracker, suite = self.observer, self.tracker, self.estimators
        if observer is tracker is suite is None:
            return  # nothing joined: the table stays empty, open to a join
        instances = self.instances
        kinds = self.kinds
        # With a tracker every entry carries its status (a consumer joins
        # while the table is empty only).
        tracked = tracker is not None
        status_of = tracker._entry if tracked else None
        status: Any = None
        for _seq, sim, _wall, topic, payload in records:
            kind = kinds.get(topic)
            if kind is None:
                continue
            code, declared, outcome = kind
            if type(payload) is not declared:
                continue
            if code == _ATTEMPT:
                job = payload.job_id
                activity = payload.activity
                wfid = payload.workflow_id
                entry = instances.get(wfid)
                if not outcome:  # the attempt starts
                    if entry is None:
                        status = status_of(wfid) if tracked else None
                        entry = instances[wfid] = _Instance("", status, {})
                    jobs = entry.attempts.get(activity)
                    if jobs is None:
                        jobs = entry.attempts[activity] = {}
                    jobs[job] = sim
                    if tracked:
                        attempts = entry.status["attempts"]
                        attempts["total"] += 1
                        attempts["in_flight"] += 1
                    continue
                # A terminal outcome — maybe of an attempt nobody saw start
                # (an instant crash): zero seconds, and not in flight.
                workflow, started = "", None
                if entry is not None:
                    workflow = entry.workflow
                    jobs = entry.attempts.get(activity)
                    if jobs is not None:
                        started = jobs.pop(job, None)
                if observer is not None:
                    observer._task_attempts.labels(activity, outcome, workflow).inc()
                    observer._task_attempt_seconds.labels(activity).observe(
                        0.0 if started is None else sim - started
                    )
                if tracked:
                    status = entry.status if entry is not None else status_of(wfid)
                    attempts = status["attempts"]
                    attempts[outcome] = attempts.get(outcome, 0) + 1
                    if started is not None:
                        attempts["in_flight"] -= 1
                if suite is not None:
                    suite.activity(workflow, activity).record(outcome)
                    if outcome == "failed" and payload.reason in _HOST_FAILURE_REASONS:
                        hostname = payload.hostname
                        if hostname:
                            suite.record_host_failure(hostname, float(payload.at))
                continue
            if code >= _RESOLVED:  # a recovery decision
                wfid = payload.workflow_id or ""
                entry = instances.get(wfid)
                activity = payload.activity
                if tracked:
                    status = entry.status if entry is not None else status_of(wfid)
                    status["last_recovery"] = (topic, payload)
                if observer is None:
                    pass
                elif code == _RESOLVED:
                    observer._tries_per_resolution.labels(
                        activity, payload.state
                    ).observe(float(payload.tries or 0))
                elif code == _RETRY:
                    workflow = entry.workflow if entry is not None else ""
                    observer._retries.labels(activity, workflow).inc()
                    observer._retry_delay.labels(activity).observe(
                        float(payload.delay or 0.0)
                    )
                elif code == _RESTART:
                    observer._checkpoint_restarts.labels(activity).inc()
                elif code == _WIN:
                    observer._replication_wins.labels(activity, payload.host).inc()
                else:
                    observer._slots_exhausted.labels(activity).inc()
                continue
            if code < _ADMITTED:  # a host's liveness
                if suite is not None:
                    if code == _SUSPECTED:
                        suite.host(payload).record_suspected(sim)
                    else:
                        suite.host(payload).record_recovered(sim)
                continue
            # The engine's narration.
            wfid = payload.workflow_id
            entry = instances.get(wfid)
            workflow = payload.workflow
            if tracked:
                status = entry.status if entry is not None else status_of(wfid)
                if workflow:
                    status["workflow"] = workflow
                if code == _ADMITTED:
                    if status["nodes_launched"] == 0 and status["phase"] == "running":
                        status["phase"] = "admitted"
                    continue
                if not status["trace_id"]:
                    trace = payload.trace_id
                    if trace:
                        status["trace_id"] = trace
            if code == _LAUNCHED:
                if entry is None:
                    entry = instances[wfid] = _Instance(workflow, status, {})
                entry.workflow = workflow
                if observer is not None:
                    observer._nodes_launched.labels(workflow).inc()
                if tracked:
                    if status["phase"] != "running":  # admitted, or run again
                        status["phase"] = "running"
                        tracker._finished.pop(wfid, None)
                    status["nodes_launched"] += 1
                    status["running_nodes"][payload.node] = None
            elif code == _COMPLETED or code == _CANCELLED:
                # What the node left running was cancelled and forgotten:
                # no terminal ``task.*`` event follows.
                node = payload.node
                cancelled = len(entry.attempts.pop(node, ())) if entry is not None else 0
                if observer is not None:
                    completions = observer._node_completions
                    if code == _CANCELLED:
                        completions.labels("cancelled", workflow).inc()
                    else:
                        completions.labels(payload.status, workflow).inc()
                        tries = payload.tries
                        if tries:
                            observer._task_tries.labels(node).observe(float(tries))
                if tracked:
                    status["nodes_completed"] += 1
                    status["running_nodes"].pop(node, None)
                    if cancelled:
                        tracker._cancelled(status, cancelled)
            elif code == _FINISHED:
                # Engine reuse starts this instance's next run with fresh
                # bookkeeping; sibling instances are untouched.
                instances.pop(wfid, None)
                if observer is not None:
                    observer._workflow_runs.labels(payload.status, workflow).inc()
                if tracked:
                    cancelled = 0
                    if entry is not None:
                        cancelled = sum(map(len, entry.attempts.values()))
                    tracker._finish(wfid, status, payload, cancelled)


def _no_clock() -> float:
    return 0.0


#: The log of each bus that has one — weakly both ways: a log lives while
#: its bus taps it or a consumer holds it, never because this table does.
_LOGS: "WeakKeyDictionary[EventBus, ref[EventLog]]" = WeakKeyDictionary()


class AttachError(GridWFSError):
    """A consumer asked to read a bus it cannot read for that bus's life."""


class EventLog:
    """The bounded, append-only record of one bus (see the module text)."""

    def __init__(self, clock: Callable[[], float] | None, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: Held by a fold from its first record to its last.
        self.lock = RLock()
        #: Records appended so far (the next record's sequence number).
        self.seq = 0
        #: Called with every record as it is appended; must not raise.
        self.spills: list[Callable[[LogRecord], None]] = []
        #: The one fold: what is sampled, computed slice by slice.
        self.sampled = Fold()
        self._clock = clock or _no_clock
        #: Folded records, oldest first (the newest *capacity* of them),
        #: and the records appended since the last fold.
        self._ring: deque[LogRecord] = deque(maxlen=capacity)
        self._pending: list[LogRecord] = []
        self._owner = get_ident()
        self._folding = False

    @classmethod
    def on(
        cls,
        bus: EventBus,
        *,
        clock: Callable[[], float] | None = None,
        capacity: int | None = None,
    ) -> "EventLog":
        """The log of *bus*, created on first use — with *capacity*
        (65 536 records unless given) if this call creates it; *clock* (the
        reactor's virtual ``now``) is the first one a caller brings."""
        found = _LOGS.get(bus)
        log = found() if found is not None else None
        if log is None:
            log = cls(clock, capacity or 65_536)
            _LOGS[bus] = ref(log)
        elif clock is not None and log._clock is _no_clock:
            log._clock = clock
        return log

    def _append(self, topic: str, payload: Any) -> None:
        """The bus's tap: everything the plane does inside a publish."""
        if type(payload) is dict:  # a foreign publisher's, or an ``obs.*`` topic's
            payload = dict(payload)  # guards against post-publish mutation
        record = (self.seq, self._clock(), perf_counter(), topic, payload)
        self.seq += 1
        pending = self._pending
        pending.append(record)
        self._owner = get_ident()
        for spill in self.spills:
            spill(record)
        if len(pending) >= self.capacity:
            self.fold()

    def fold(self) -> None:
        """Run :attr:`sampled` over the records appended since the last
        time, then retain them.  A no-op with nothing waiting, inside a
        running fold, and on any thread but the appending one."""
        if not self._pending or self._folding or get_ident() != self._owner:
            return
        with self.lock:
            self._folding = True
            try:
                # A fold may publish; what it appends is folded here too.
                while self._pending:
                    records, self._pending = self._pending, []
                    self.sampled(records)
                    self._ring.extend(records)
            finally:
                self._folding = False

    def records(self, since: int = 0) -> list[LogRecord]:
        """The retained records numbered *since* or later, oldest first."""
        self.fold()
        with self.lock:
            ring = self._ring
            skip = since - ring[0][0] if ring else 0
            return list(islice(ring, skip, None)) if skip > 0 else list(ring)


class LogConsumer:
    """Base of everything that reads a bus through its :class:`EventLog`,
    attached for the life of that bus: a view (the flight recorder) reads
    :meth:`_records`; a kind the log's :class:`Fold` computes names its
    slot there (``_slot``) and reads its state back inside
    ``with self._synced():``.  Every consumer takes its bus when it is
    built and attaches to it there."""

    _bus: EventBus | None = None
    _log: EventLog
    #: What the consumer asks of a log it has to create; the first record
    #: it reads.
    _clock: Callable[[], float] | None = None
    _since = 0
    #: The attribute of :class:`Fold` this kind of consumer fills ("" for
    #: a view).
    _slot = ""

    def attach_bus(self, bus: EventBus):
        """Consume what *bus* publishes from here on, for the bus's life.

        Attaching to *bus* again is a no-op.  :class:`AttachError` refuses
        another bus, and — for a kind the fold computes — a second consumer
        of that kind on *bus*, or a join while the fold's table holds
        running instances, whose beginnings this consumer never saw."""
        if self._bus is bus:
            return self
        if self._bus is not None:
            name = type(self).__name__
            raise AttachError(f"{name} reads another bus for that bus's life")
        log = EventLog.on(bus, clock=self._clock)
        log.fold()  # what waits is not this consumer's to see
        if self._slot:
            fold = log.sampled
            if getattr(fold, self._slot) is not None:
                raise AttachError(f"this bus's log already folds a {self._slot}")
            if fold.instances:
                raise AttachError(
                    f"a {self._slot} cannot join while the fold's table holds "
                    f"{len(fold.instances)} running instance(s)"
                )
            setattr(fold, self._slot, self)
        bus.add_tap(log._append)  # idempotent: the bus taps its log once
        self._bus, self._log, self._since = bus, log, log.seq
        return self

    def sync(self) -> None:
        """Fold what was published since the last fold (a no-op on any
        thread but the publishing one)."""
        self._log.fold()

    def _synced(self) -> ContextManager[Any]:
        """``with self._synced():`` brackets one read of the state: what
        waits is folded first, and no other thread folds inside it."""
        self._log.fold()
        return self._log.lock

    def _records(self) -> list[LogRecord]:
        """The retained records published since this consumer attached."""
        return self._log.records(self._since)
