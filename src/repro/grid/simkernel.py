"""Discrete-event simulation kernel.

This is the substrate that replaces the paper's real Grid deployment: hosts,
networks, jobs, heartbeats and the workflow engine itself all schedule
callbacks on a single virtual clock.  Events at equal times fire in FIFO
scheduling order, which — combined with seeded RNG streams
(:mod:`repro.grid.random`) — makes every simulation run exactly
reproducible.

The kernel is deliberately minimal: a priority queue of ``(time, seq)``
ordered events.  Higher-level process patterns (periodic heartbeats,
alternating up/down host lifecycles) are built on top of it in
:mod:`repro.grid.host` and friends.

Hot-path notes (this kernel executes tens of thousands of events per
engine-level Monte-Carlo point — the ledger's ``mc_engine`` workload,
``benchmarks/ledger/run.py --workload mc_engine``):

* timers due later live in the shared :class:`repro.timerheap.TimerHeap`
  (entries that are their own handles, lazy cancellation, counter-driven
  in-place compaction) — the same structure backing the wall-clock
  :class:`repro.reactor.RealTimeReactor`, so the two cannot drift apart;
* most events are not timers but zero-delay hops (a message's delivery
  turn, a posted callback).  Those join the **same-instant lane**, a FIFO
  deque: an append and a popleft, not a push to the top of the heap and a
  pop.  Every lane entry is due *now* and the lane is sorted by ``seq``,
  so the next event is the lane's head unless the heap's head is also due
  now with a smaller ``seq`` — the ``(when, seq)`` order of one heap
  holding both;
* an owner that fires one timer after another (a job's steps, a periodic
  task) keeps one entry and re-arms it in place (:meth:`SimKernel.rearm`);
* one drain loop (:meth:`run_until_done`) pops inline, and :meth:`step`,
  :meth:`run` and :meth:`run_until` are a predicate or a deadline on it;
  :meth:`schedule` pushes inline, so an event costs one Python frame
  beyond its callback.

:class:`SimReactor` adapts the kernel to the :class:`repro.reactor.Reactor`
interface so the workflow engine can run unmodified inside the simulation.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import chain
from typing import Callable

from ..reactor import Reactor
from ..timerheap import CALLBACK as _CALLBACK
from ..timerheap import FIRED as _FIRED
from ..timerheap import SEQ as _SEQ
from ..timerheap import WHEN as _WHEN
from ..timerheap import TimerHandle, TimerHeap

__all__ = ["SimKernel", "SimReactor", "PeriodicTask"]

#: A completion predicate that never holds (``bool()`` is ``False``), asked
#: without a Python frame.
_never = bool


class SimKernel:
    """Virtual-time event loop.

    >>> k = SimKernel()
    >>> fired = []
    >>> _ = k.schedule(5.0, lambda: fired.append(k.now()))
    >>> k.run()  # the number of events it fired
    1
    >>> fired
    [5.0]
    """

    def __init__(self) -> None:
        self._timers = timers = TimerHeap()
        #: Entries due at the current instant, in ``seq`` order.
        self._lane: deque[list] = deque()
        # How an entry is cancelled where it sits (bound once; no cycle:
        # the heap does not refer back to the kernel).
        self._cancel_queued = timers.cancel
        self._cancel_in_lane = timers.cancel_unqueued
        self.reset()

    # -- clock ---------------------------------------------------------------

    def now(self) -> float:
        """Current virtual time (seconds)."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far (diagnostics)."""
        return self._events_processed

    @property
    def _heap(self) -> list[list]:
        """The underlying heap list (compaction diagnostics and tests)."""
        return self._timers.heap

    def pending(self) -> int:
        """Number of queued, non-cancelled events."""
        return self._timers.live_count() + sum(
            1 for e in self._lane if e[_CALLBACK] is not None
        )

    def stats(self) -> dict[str, int]:
        """Kernel-health counters for the observability scrapers: work done
        (``events_processed``), timer churn (``timers_scheduled`` /
        ``timers_cancelled``) and lazy-cancellation pressure
        (``compactions``), plus the live queue depth (``pending``)."""
        timers = self._timers
        return {
            "events_processed": self._events_processed,
            "timers_scheduled": timers.scheduled_total,
            "timers_cancelled": timers.cancelled_total,
            "compactions": timers.compactions,
            "pending": self.pending(),
        }

    def reset(self) -> None:
        """Return to the just-constructed state: clock at zero, empty
        queue, sequence counter restarted (so a reused kernel reproduces a
        fresh one's FIFO tie-breaking exactly).

        Every entry still queued is marked fired first, so a handle from
        before the reset is disowned: its ``cancel()`` is a no-op, whoever
        holds it, and counts nothing against the next run."""
        lane = self._lane
        for entry in chain(self._timers.heap, lane):
            entry[_CALLBACK] = _FIRED
        self._timers.clear()
        lane.clear()
        self._now = 0.0
        self._events_processed = 0

    # -- scheduling ------------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Run *callback* ``delay`` virtual seconds from now."""
        if not delay >= 0:
            raise ValueError(f"cannot schedule in the past (delay={delay!r})")
        timers = self._timers
        seq = timers.next_seq
        timers.next_seq = seq + 1
        if delay:
            entry = TimerHandle(
                (self._now + delay, seq, callback, self._cancel_queued)
            )
            heappush(timers.heap, entry)
        else:
            # A fresh seq is the newest issued: the lane stays sorted.
            entry = TimerHandle((self._now, seq, callback, self._cancel_in_lane))
            self._lane.append(entry)
        return entry

    def reserve(self, count: int) -> int:
        """Take the next *count* sequence numbers and return the first: one
        timer re-armed on them (:meth:`rearm`) keeps the tie-breaks, and
        ``timers_scheduled``, of *count* timers scheduled now."""
        timers = self._timers
        first = timers.next_seq
        timers.next_seq = first + count
        return first

    def rearm(
        self,
        handle: TimerHandle,
        callback: Callable[[], None],
        when: float,
        seq: int | None = None,
    ) -> None:
        """Queue a fired timer's entry again, in place, for absolute time
        *when*.  *callback* is what the handle carried while pending
        (``handle.callback``), so whatever wrapped it on its way through
        :meth:`schedule` keeps seeing it run; *seq* is a number from
        :meth:`reserve`, else the next one, as for a fresh ``schedule``."""
        if handle[_CALLBACK] is not _FIRED:
            raise ValueError("only a timer that has fired can be re-armed")
        now = self._now
        if not when >= now:
            raise ValueError(f"cannot schedule in the past (when={when!r})")
        timers = self._timers
        if seq is None:
            seq = timers.next_seq
            timers.next_seq = seq + 1
        lane = self._lane
        # A reserved seq may be older than the lane's tail: such an entry
        # goes to the heap even when due now, or the lane is no longer sorted.
        if when == now and (not lane or lane[-1][_SEQ] < seq):
            handle[:] = (when, seq, callback, self._cancel_in_lane)
            lane.append(handle)
        else:
            handle[:] = (when, seq, callback, self._cancel_queued)
            heappush(timers.heap, handle)

    # -- execution -------------------------------------------------------------
    #
    # One loop, :meth:`run_until_done`, pops events; the others are a
    # predicate or a deadline on it.  It picks the lane's head, unless the
    # heap's head is due now with a smaller seq (heap entries are never due
    # earlier than now, so ``heap[0] < lane[0]`` says exactly that).  The
    # clock only moves when the lane is empty.

    def step(self) -> bool:
        """Process the single next event.  Returns ``False`` when idle."""
        target = self._events_processed + 1
        self.run_until_done(lambda: self._events_processed >= target)
        return self._events_processed >= target

    def run(self, *, max_events: int | None = None) -> int:
        """Run until the event queue drains.

        *max_events* guards against runaway simulations (periodic processes
        that never stop); when exceeded a ``RuntimeError`` is raised.
        Returns the number of events processed by this call.
        """
        start = self._events_processed
        if max_events is None:
            self.run_until_done(_never)
        else:
            limit = start + max_events
            self.run_until_done(lambda: self._events_processed > limit)
            if self._events_processed > limit:
                raise RuntimeError(
                    f"simulation exceeded max_events={max_events} "
                    f"(virtual time {self._now:.3f})"
                )
        return self._events_processed - start

    def run_until(self, when: float) -> int:
        """Run events with timestamps ``<= when``; advance the clock to *when*.

        Events scheduled exactly at *when* do fire.  Returns the number of
        events processed.
        """
        if when < self._now:
            return 0  # everything queued is due now or later
        start = self._events_processed
        self.run_until_done(_never, when)
        self._now = max(self._now, when)
        return self._events_processed - start

    def run_until_done(
        self, is_done: Callable[[], bool], deadline: float | None = None
    ) -> None:
        """Run events one at a time until ``is_done()`` holds (it is asked
        before every pop), the queue drains, or the next event is due after
        *deadline*.  Events due exactly at *deadline* fire; one due later
        stays queued and the clock stops at *deadline*, as in
        :meth:`run_until`."""
        timers = self._timers
        heap = timers.heap
        lane = self._lane
        popleft = lane.popleft
        if deadline is None:
            deadline = float("inf")
        while (lane or heap) and not is_done():
            if lane and not (heap and heap[0] < lane[0]):
                entry = popleft()
                callback = entry[_CALLBACK]
                if callback is None:
                    continue
            else:
                head = heap[0]
                if head[_CALLBACK] is None:
                    heappop(heap)
                    timers.note_popped_cancelled()
                    continue
                if head[_WHEN] > deadline:
                    self._now = max(self._now, deadline)
                    return
                entry = heappop(heap)
                callback = entry[_CALLBACK]
                self._now = entry[_WHEN]
            entry[_CALLBACK] = _FIRED
            callback()
            self._events_processed += 1


class PeriodicTask:
    """A repeating simulation callback (heartbeats, monitors).

    The callback runs every *period* seconds starting ``start_delay`` from
    creation, until :meth:`stop` is called.
    """

    def __init__(
        self,
        kernel: SimKernel,
        period: float,
        callback: Callable[[], None],
        *,
        start_delay: float | None = None,
    ) -> None:
        if not period > 0:
            raise ValueError(f"period must be positive, got {period!r}")
        self._kernel = kernel
        self._period = period
        self._callback = callback
        self._stopped = False
        self._handle = kernel.schedule(
            period if start_delay is None else start_delay, self._tick
        )
        #: ``_tick`` as the kernel accepted it: what every re-arm hands back.
        self._armed = self._handle.callback

    def _tick(self) -> None:
        if self._stopped:
            return
        self._callback()
        if not self._stopped:
            kernel = self._kernel
            kernel.rearm(self._handle, self._armed, kernel.now() + self._period)

    def stop(self) -> None:
        """Cancel the task; the callback will not run again."""
        self._stopped = True
        self._handle.cancel()
        self._armed = None  # a reference back to this task through _tick


class SimReactor(Reactor):
    """Adapt a :class:`SimKernel` to the engine's :class:`Reactor` interface.

    ``post`` degenerates to a zero-delay timer: inside the simulation there
    is exactly one thread, so no locking is needed.
    """

    def __init__(self, kernel: SimKernel | None = None) -> None:
        self.kernel = kernel if kernel is not None else SimKernel()
        # The kernel's own method, so a clock read is one frame.
        self.now = self.kernel.now

    def now(self) -> float:
        return self.kernel.now()

    def call_later(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        return self.kernel.schedule(delay, callback)

    def post(self, callback: Callable[[], None]) -> None:
        self.kernel.schedule(0.0, callback)

    def run_until_idle(self, timeout: float | None = None) -> None:
        if timeout is None:
            self.kernel.run()
        else:
            self.kernel.run_until(self.kernel.now() + timeout)

    def run_until_complete(self, is_done, timeout: float | None = None) -> bool:
        """Exact loop: process events one at a time until the predicate
        holds, the queue drains, or virtual *timeout* elapses."""
        kernel = self.kernel
        kernel.run_until_done(
            is_done, None if timeout is None else kernel.now() + timeout
        )
        return bool(is_done())
