"""Reference models of the scheduling mechanics PR 17 replaced.

``src/`` no longer contains either; they live here so the tests can hold
the same-instant lane and the one-timer job to exact equivalence (the
``EagerStore`` / ``ListRing`` pattern of the telemetry tests):

* :class:`HeapKernel` — the pure-heap kernel: *every* entry, zero-delay
  hops included, goes through one ``(when, seq)`` heap;
* :class:`EagerJobProcess` — the eager ``JobProcess.begin``: every step of
  the plan is scheduled up front, each with its own handle, and a finish
  walks them all.

``reserve`` / ``rearm`` exist on the reference kernel too — as plain heap
pushes — so one program can run on both kernels.
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import Any, Callable

from repro.errors import CheckpointError
from repro.grid.behaviors import PlanContext
from repro.grid.gram import JobProcess

_FIRED: Any = object()


class HeapHandle:
    def __init__(self, entry: list) -> None:
        self._entry = entry
        self.callback = entry[2]

    def cancel(self) -> None:
        entry = self._entry
        if entry[2] is not None and entry[2] is not _FIRED:
            entry[2] = None

    @property
    def cancelled(self) -> bool:
        return self._entry[2] is None

    @property
    def when(self) -> float:
        return self._entry[0]


class HeapKernel:
    """One heap of ``[when, seq, callback]`` entries, popped in order."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._now = 0.0
        self._heap: list[list] = []
        self._next_seq = 0
        self.events_processed = 0

    def now(self) -> float:
        return self._now

    def pending(self) -> int:
        return sum(1 for e in self._heap if e[2] is not None)

    def stats(self) -> dict[str, int]:
        return {
            "events_processed": self.events_processed,
            "timers_scheduled": self._next_seq,
            "pending": self.pending(),
        }

    # -- scheduling ------------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None]) -> HeapHandle:
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay!r})")
        entry = [self._now + delay, self._next_seq, callback]
        self._next_seq += 1
        heapq.heappush(self._heap, entry)
        return HeapHandle(entry)

    def schedule_at(self, when: float, callback: Callable[[], None]) -> HeapHandle:
        return self.schedule(when - self._now, callback)

    def reserve(self, count: int) -> int:
        first = self._next_seq
        self._next_seq += count
        return first

    def rearm(self, handle: HeapHandle, callback, when: float, seq=None) -> None:
        assert handle._entry[2] is _FIRED and when >= self._now
        if seq is None:
            seq = self.reserve(1)
        handle._entry[:] = [when, seq, callback]
        heapq.heappush(self._heap, handle._entry)

    # -- execution -------------------------------------------------------------

    def _pop_live(self, limit: float = float("inf")) -> list | None:
        heap = self._heap
        while heap:
            if heap[0][2] is None:
                heapq.heappop(heap)
            elif heap[0][0] > limit:
                return None
            else:
                return heapq.heappop(heap)
        return None

    def _fire(self, entry: list) -> None:
        callback = entry[2]
        self._now = entry[0]
        entry[2] = _FIRED
        callback()
        self.events_processed += 1

    def step(self) -> bool:
        entry = self._pop_live()
        if entry is None:
            return False
        self._fire(entry)
        return True

    def run(self, *, max_events: int | None = None) -> int:
        processed = 0
        while self.step():
            processed += 1
            if max_events is not None and processed > max_events:
                raise RuntimeError(f"simulation exceeded max_events={max_events}")
        return processed

    def run_until(self, when: float) -> int:
        processed = 0
        while (entry := self._pop_live(when)) is not None:
            self._fire(entry)
            processed += 1
        self._now = max(self._now, when)
        return processed

    def run_until_done(self, is_done, deadline: float | None = None) -> None:
        if deadline is None:
            deadline = float("inf")
        while self.pending() and not is_done() and self._now < deadline:
            self.step()


class EagerJobProcess(JobProcess):
    """``JobProcess`` with the parent commit's ``begin``: one timer, one
    handle and one ``partial`` per step, all pushed before the first
    fires; stopping cancels every one of them, fired or not."""

    _handles: tuple = ()

    def begin(self) -> None:
        self.record.status = "running"
        service = self.service
        request = self.request
        spec = self.host.spec
        checkpoint_state: dict[str, Any] | None = None
        if request.checkpoint_flag:
            try:
                checkpoint_state = service.store.load(request.checkpoint_flag)
            except CheckpointError:
                checkpoint_state = None
        ctx = PlanContext(
            activity=request.activity,
            job_id=self.job_id,
            host=spec,
            attempt=self.record.attempt,
            streams=service.streams,
            checkpoint_state=checkpoint_state,
        )
        schedule = service.kernel.schedule
        self._handles = [
            schedule(step.offset / spec.speed, partial(self._execute, step))
            for step in self.behavior.plan(ctx)
        ]

    def _stop(self) -> None:
        self._finished = True
        for handle in self._handles:
            handle.cancel()
