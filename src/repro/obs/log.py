"""One log per bus: what the telemetry plane pays per event, and nothing else.

An :class:`EventLog` is its bus's single tap.  A publish costs one append
of one record — ``(seq, sim, wall, topic, payload)``: a sequence number,
the simulation clock and ``time.perf_counter`` read at the publish, the
topic, and one snapshot of the payload (a dict is copied shallowly,
anything else kept by reference).  Everything the plane knows is derived
from the records later (DESIGN.md §12): *views* (journal, event list,
spans, trace queries) render the retained records on demand
(:func:`expand`); what is *sampled* (metrics, tracker status, estimator
counts) is folded from the records not folded yet, in log order, by one
pass per slice (:class:`~repro.obs.observer.Fold`).

:meth:`EventLog.fold` runs the folds: the collector calls it at the start
of every tick, every read accessor of a consumer before it answers, and
the log itself once as many records wait as its ring holds — a record is
never dropped unfolded.  What a fold publishes (``obs.drift.*``,
``obs.alert.*``) is appended like any other event and folded in the same
call.  Only log order and the stamps taken at append go into a fold, so
*when* it runs shows nowhere but in where those publications land in the
journal — at most one collector interval after their cause.

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

from ..events import EventBus

__all__ = ["EventLog", "LogConsumer", "LogRecord", "expand"]

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
    if isinstance(value, (list, tuple)):
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


def _no_clock() -> float:
    return 0.0


#: What a detached consumer reads under: nothing folds into it any more.
_DETACHED = nullcontext()

#: The log of each bus that has one — weakly both ways: a log lives while
#: its bus taps it or a consumer holds it, never because this table does.
_LOGS: "WeakKeyDictionary[EventBus, ref[EventLog]]" = WeakKeyDictionary()


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
        self._clock = clock or _no_clock
        #: Folded records, oldest first (the newest *capacity* of them),
        #: and the records appended since the last fold.
        self._ring: deque[LogRecord] = deque(maxlen=capacity)
        self._pending: list[LogRecord] = []
        self._owner = get_ident()
        self._folding = False
        self._consumers: list["LogConsumer"] = []
        #: What a fold runs over each slice of records, in joining order.
        self.folds: list[Callable[[list[LogRecord]], None]] = []

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
        """Run :attr:`folds` over the records appended since the last
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
                    for fold in self.folds:
                        fold(records)
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
    """Base of everything that reads a bus through its :class:`EventLog`:
    one that renders records reads :meth:`_records`; one whose state is
    folded (:class:`~repro.obs.observer.FoldedConsumer`) reads it back
    inside ``with self._synced():``."""

    _bus: EventBus | None = None
    _log: EventLog | None = None
    #: What the consumer asks of a log it has to create; the first record
    #: of this attachment; what earlier attachments left readable.
    _clock: Callable[[], float] | None = None
    _capacity: int | None = None
    _since = 0
    _kept: list[LogRecord] | tuple[()] = ()

    def attach_bus(self, bus: EventBus):
        """Consume what *bus* publishes from here on (idempotent per bus;
        another bus replaces the first)."""
        if self._log is not None:
            if self._bus is bus:
                return self
            self.detach()
        self._bus = bus
        self._log = log = EventLog.on(bus, clock=self._clock, capacity=self._capacity)
        log.fold()  # what waits is not this consumer's to see
        if not log._consumers:
            bus.add_tap(log._append)
        log._consumers.append(self)
        self._since = log.seq
        return self

    def detach(self) -> None:
        """Stop consuming (idempotent; everything stays readable); the
        last consumer to leave takes the tap off the bus."""
        log = self._log
        if log is not None:
            self._kept = self._records()  # folded up to here
            self._log = None
            log._consumers.remove(self)
            if not log._consumers:
                self._bus.remove_tap(log._append)  # type: ignore[union-attr]

    @property
    def attached(self) -> bool:
        return self._log is not None

    def sync(self) -> None:
        """Fold what was published since the last fold (a no-op on any
        thread but the publishing one)."""
        if self._log is not None:
            self._log.fold()

    def _synced(self) -> ContextManager[Any]:
        """``with self._synced():`` brackets one read of the state: what
        waits is folded first, and no other thread folds inside it."""
        self.sync()
        return self._log.lock if self._log is not None else _DETACHED

    def _records(self) -> list[LogRecord]:
        """The retained records of this consumer's attachments."""
        log = self._log
        return [*self._kept, *(log.records(self._since) if log is not None else ())]
