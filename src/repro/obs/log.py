"""One log per bus and one fold over it: what the telemetry plane pays per
event, and nothing else.

An :class:`EventLog` is its bus's single tap.  A publish costs one append
of one record — ``(seq, sim, wall, topic, payload)``: a sequence number,
the simulation clock and ``time.perf_counter`` read at the publish, the
topic, and one snapshot of the payload (a dict is copied shallowly,
anything else kept by reference).  Everything the plane knows is derived
from the records later (DESIGN.md §12): *views* (journal, event list,
spans, trace queries) render the retained records on demand
(:func:`expand`); what is *sampled* (metrics, tracker status, estimator
counts) is folded from the records not folded yet, in log order, by the
log's one :class:`Fold` — one pass per slice, off one table of running
instances.

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
from contextlib import nullcontext
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


def expand(record: LogRecord) -> dict[str, Any]:
    """One record → the flat JSON-safe entry every view is made of, when
    a view is read (or in the spill writer), never in the append.  Dict
    payloads flatten into the entry, AttemptOutcome-shaped payloads are
    read duck-typed, anything else degrades to ``repr`` — and a payload
    that breaks on the way becomes an entry complaining about itself
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
            entry["payload"] = _json_safe(payload)
    except Exception as exc:  # a broken payload journals its own complaint
        entry["recorder_error"] = repr(exc)
    return entry


#: ``AttemptOutcome.state`` → the attempt's outcome label ("" while it is
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
    decoded once — one topic dispatch, one payload read, one look into
    :attr:`instances`, the table of running instances by ``workflow_id``
    ("" for a classic single-instance run), where an entry is made by the
    instance's first launch or attempt and goes when its workflow finishes.
    One per :class:`EventLog`, created with it.  Nothing here is rendered:
    spans are a view (:func:`~repro.obs.observer.spans_of`)."""

    __slots__ = ("observer", "tracker", "estimators", "instances")

    def __init__(self) -> None:
        self.observer: Any = None
        self.tracker: Any = None
        self.estimators: Any = None
        self.instances: dict[str, _Instance] = {}

    def __call__(self, records: list[LogRecord]) -> None:
        observer, tracker, suite = self.observer, self.tracker, self.estimators
        if observer is tracker is suite is None:
            return  # nothing joined: the table stays empty, open to a join
        instances = self.instances
        # With a tracker every entry carries its status (a consumer joins
        # while the table is empty only).
        tracked = tracker is not None
        status_of = tracker._entry if tracked else None
        status: Any = None
        for _seq, sim, _wall, topic, payload in records:
            if topic.startswith("task."):  # an AttemptOutcome, duck-typed
                outcome = ATTEMPT_OUTCOME.get(getattr(payload, "state", None))
                if outcome is None:
                    continue
                job = getattr(payload, "job_id", "")
                activity = payload.activity
                wfid = getattr(payload, "workflow_id", "") or ""
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
                        hostname = str(payload.hostname or "")
                        if hostname:
                            at = getattr(payload, "at", None)
                            suite.record_host_failure(
                                hostname, float(at) if at is not None else sim
                            )
                continue
            engine = topic.startswith("engine.")
            if not engine and not topic.startswith("recovery."):
                if suite is not None and topic.startswith("detector.host_"):
                    if topic == "detector.host_suspected":
                        suite.host(str(payload)).record_suspected(sim)
                    elif topic == "detector.host_recovered":
                        suite.host(str(payload)).record_recovered(sim)
                continue
            if not isinstance(payload, dict):
                continue
            wfid = payload.get("workflow_id", "") or ""
            entry = instances.get(wfid)
            if tracked:
                status = entry.status if entry is not None else status_of(wfid)
            if not engine:
                activity = payload.get("activity", "")
                if tracked:
                    status["last_recovery"] = {
                        "action": topic,
                        "activity": str(activity),
                        "at": float(payload.get("at") or 0.0),
                        "span_id": str(payload.get("span_id") or ""),
                    }
                if observer is None:
                    pass
                elif topic == "recovery.resolved":
                    observer._tries_per_resolution.labels(
                        activity, payload.get("state", "")
                    ).observe(float(payload.get("tries", 0) or 0))
                elif topic == "recovery.retry":
                    workflow = entry.workflow if entry is not None else ""
                    observer._retries.labels(activity, workflow).inc()
                    observer._retry_delay.labels(activity).observe(
                        float(payload.get("delay", 0.0) or 0.0)
                    )
                elif topic == "recovery.checkpoint_restart":
                    observer._checkpoint_restarts.labels(activity).inc()
                elif topic == "recovery.replication_win":
                    observer._replication_wins.labels(
                        activity, payload.get("host", "")
                    ).inc()
                elif topic == "recovery.exhausted":
                    observer._slots_exhausted.labels(activity).inc()
                continue
            workflow = payload.get("workflow", "")
            node = payload.get("node")
            if tracked:
                if workflow:
                    status["workflow"] = str(workflow)
                if not status["trace_id"]:
                    trace = payload.get("trace_id")
                    if trace:
                        status["trace_id"] = str(trace)
            if topic == "engine.node_launched":
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
                    status["running_nodes"][str(node)] = None
            elif topic in ("engine.node_completed", "engine.node_cancelled"):
                # What the node left running was cancelled and forgotten:
                # no terminal ``task.*`` event follows.
                cancelled = len(entry.attempts.pop(node, ())) if entry is not None else 0
                if observer is not None:
                    observer._node_completions.labels(
                        payload.get("status", "cancelled"), workflow
                    ).inc()
                    tries = payload.get("tries")
                    if tries:
                        observer._task_tries.labels(node).observe(float(tries))
                if tracked:
                    status["nodes_completed"] += 1
                    status["running_nodes"].pop(str(node), None)
                    if cancelled:
                        tracker._cancelled(status, cancelled)
            elif topic == "engine.workflow_finished":
                # Engine reuse starts this instance's next run with fresh
                # bookkeeping; sibling instances are untouched.
                instances.pop(wfid, None)
                if observer is not None:
                    observer._workflow_runs.labels(
                        payload.get("status", ""), workflow
                    ).inc()
                if tracked:
                    cancelled = 0
                    if entry is not None:
                        cancelled = sum(map(len, entry.attempts.values()))
                    tracker._finish(wfid, status, payload, cancelled)
            elif topic == "engine.workflow_admitted" and tracked:
                if status["nodes_launched"] == 0 and status["phase"] == "running":
                    status["phase"] = "admitted"


def _no_clock() -> float:
    return 0.0


#: What an unattached consumer reads under: nothing folds into it.
_UNATTACHED = nullcontext()

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
        if type(payload) is dict:
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
    ``with self._synced():``."""

    _bus: EventBus | None = None
    _log: EventLog | None = None
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
        if self._log is not None:
            self._log.fold()

    def _synced(self) -> ContextManager[Any]:
        """``with self._synced():`` brackets one read of the state: what
        waits is folded first, and no other thread folds inside it."""
        self.sync()
        return self._log.lock if self._log is not None else _UNATTACHED

    def _records(self) -> list[LogRecord]:
        """The retained records published since this consumer attached."""
        log = self._log
        return log.records(self._since) if log is not None else []
