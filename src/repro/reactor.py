"""Reactor abstraction: one engine, two notions of time.

The paper's prototype runs its workflow engine against real Grid resources in
wall-clock time; its evaluation runs against a simulator in virtual time.  We
keep a single engine implementation by programming it against a ``Reactor``
interface:

* :class:`SimReactor` wraps the discrete-event kernel
  (:class:`repro.grid.simkernel.SimKernel`) — timers fire in virtual time and
  a whole experiment with thousands of simulated seconds runs in
  microseconds.
* :class:`RealTimeReactor` schedules timers on wall-clock time and is used by
  the :class:`repro.engine.executors.LocalExecutor` path that executes real
  Python callables on threads.

Both reactors are *driven* (not threaded): callers pump them with
:meth:`Reactor.run_until_idle` or :meth:`Reactor.run_for`.  The real-time
reactor additionally accepts thread-safe wakeups via :meth:`Reactor.post` so
worker threads can hand results back to the engine thread.

Both reactors store pending timers in the shared
:class:`~repro.timerheap.TimerHeap` (lazy cancellation, counter-driven
in-place compaction) and hand out its one handle type,
:class:`~repro.timerheap.TimerHandle`, so cancel-heavy workloads behave
identically in simulated and wall-clock time.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from typing import Callable

from .timerheap import WHEN, TimerHandle, TimerHeap

__all__ = ["Reactor", "RealTimeReactor", "TimerHandle"]


class Reactor(ABC):
    """Scheduling interface shared by simulated and real-time execution."""

    @abstractmethod
    def now(self) -> float:
        """Current reactor time in seconds."""

    @abstractmethod
    def call_later(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Schedule *callback* to run ``delay`` seconds from :meth:`now`."""

    @abstractmethod
    def post(self, callback: Callable[[], None]) -> None:
        """Enqueue *callback* to run as soon as possible (thread-safe where
        the reactor supports threads)."""

    @abstractmethod
    def run_until_idle(self, timeout: float | None = None) -> None:
        """Run pending work until no timers or posted callbacks remain.

        *timeout* bounds the amount of **reactor time** consumed (virtual
        time for simulation, wall-clock for real time).
        """

    def call_soon(self, callback: Callable[[], None]) -> TimerHandle:
        """Schedule *callback* at the current time (after pending events)."""
        return self.call_later(0.0, callback)

    @abstractmethod
    def run_until_complete(
        self,
        is_done: Callable[[], bool],
        timeout: float | None = None,
    ) -> bool:
        """Pump the reactor until ``is_done()`` holds; returns its final
        value.  Stops early when the reactor goes idle or *timeout* reactor
        seconds elapse (background periodic work — heartbeats, host failure
        processes — can keep a reactor busy forever, so completion is the
        caller's predicate, not queue emptiness)."""


class RealTimeReactor(Reactor):
    """Wall-clock reactor for running workflows over the local executor.

    Timers are kept in a :class:`~repro.timerheap.TimerHeap` keyed by
    ``time.monotonic()``; posted callbacks arrive through a
    condition-guarded queue so worker threads can wake the reactor.  The
    loop runs on whichever thread calls :meth:`run_until_idle` — typically
    the thread that started the engine.
    """

    def __init__(self) -> None:
        self._timers = TimerHeap()
        self._posted: list[Callable[[], None]] = []
        self._cond = threading.Condition()
        self._origin = time.monotonic()
        #: Set by :meth:`stop` to abandon :meth:`run_until_idle` early.
        self._stopped = False
        #: Number of outstanding "keepalive" tokens.  While positive, the
        #: reactor considers itself busy even with no timers queued —
        #: executors hold a token per in-flight job so the loop waits for
        #: worker threads to post completions.
        self._keepalives = 0

    # -- Reactor API -------------------------------------------------------

    def now(self) -> float:
        return time.monotonic() - self._origin

    def call_later(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        if not delay >= 0:
            raise ValueError(f"delay must be >= 0, got {delay!r}")
        with self._cond:
            handle = self._timers.push(
                self.now() + delay, callback, self._cancel_timer
            )
            self._cond.notify()
        return handle

    def post(self, callback: Callable[[], None]) -> None:
        with self._cond:
            self._posted.append(callback)
            self._cond.notify()

    def run_until_idle(self, timeout: float | None = None) -> None:
        deadline = None if timeout is None else self.now() + timeout
        while True:
            with self._cond:
                if self._stopped:
                    self._stopped = False
                    return
                callbacks = self._posted
                self._posted = []
            for cb in callbacks:
                cb()
            if callbacks:
                continue  # re-check posted queue before sleeping
            callback = self._pop_due()
            if callback is not None:
                callback()
                continue
            with self._cond:
                if (
                    not self._posted
                    and not self._timers.heap
                    and self._keepalives == 0
                ):
                    return
                wait = self._next_wait(deadline)
                if wait is not None and wait <= 0:
                    if deadline is not None and self.now() >= deadline:
                        return
                    continue
                self._cond.wait(timeout=wait)
            if deadline is not None and self.now() >= deadline:
                return

    def run_until_complete(
        self,
        is_done: Callable[[], bool],
        timeout: float | None = None,
    ) -> bool:
        # Pumped in bounded slices: a worker thread's post can complete the
        # predicate at any moment.
        deadline = None if timeout is None else self.now() + timeout
        while not is_done():
            if deadline is not None and self.now() >= deadline:
                break
            slice_timeout = 0.05
            if deadline is not None:
                slice_timeout = min(slice_timeout, max(0.0, deadline - self.now()))
            self.run_until_idle(timeout=slice_timeout)
            if not self._has_work() and not is_done():
                break  # idle without completion: give up rather than spin
        return is_done()

    # -- real-time extras --------------------------------------------------

    def stop(self) -> None:
        """Make the current (or next) :meth:`run_until_idle` return."""
        with self._cond:
            self._stopped = True
            self._cond.notify()

    def acquire_keepalive(self) -> None:
        with self._cond:
            self._keepalives += 1

    def release_keepalive(self) -> None:
        with self._cond:
            self._keepalives = max(0, self._keepalives - 1)
            self._cond.notify()

    # -- internals ---------------------------------------------------------

    def _has_work(self) -> bool:
        with self._cond:
            return (
                bool(self._posted)
                or self._timers.live_count() > 0
                or self._keepalives > 0
            )

    def _cancel_timer(self, entry: list) -> None:
        # Worker threads cancel too, and cancelling may compact the heap
        # in place.
        with self._cond:
            self._timers.cancel(entry)

    def _pop_due(self) -> Callable[[], None] | None:
        """The callback of the next due live timer, or ``None``."""
        with self._cond:
            return self._timers.pop_due(self.now())

    def _next_wait(self, deadline: float | None) -> float | None:
        """Seconds to sleep before the next interesting moment (caller holds
        the condition lock)."""
        candidates: list[float] = []
        head = self._timers.peek_live()
        if head is not None:
            candidates.append(head[WHEN] - self.now())
        if deadline is not None:
            candidates.append(deadline - self.now())
        if not candidates:
            return None
        return max(0.0, min(candidates))
