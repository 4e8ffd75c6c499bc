"""Span-based tracing stamped in both simulation and wall-clock time.

A span is one named interval — a workflow run, a node's execution, a task
attempt, a backoff wait — with arbitrary labels.  Every span carries *two*
clocks:

* ``sim_start`` / ``sim_end`` — the reactor's virtual time, the clock the
  paper's completion-time results are measured on.  Exports (Chrome
  ``trace_event``, Perfetto) are laid out on this axis so a trace of a
  simulated run reads like a timeline of the simulated Grid, not of the
  host CPU;
* ``wall_start`` / ``wall_end`` — ``time.perf_counter`` at record time,
  for profiling the *simulator itself* (how long did this Monte-Carlo
  shard take to execute?).

Spans are recorded into a bounded ring buffer (old spans fall off the
back), so a long campaign cannot grow memory without bound.  Two usage
styles:

* the ``with recorder.span("mc.shard", technique=...)`` context manager,
  which nests lexically (parent = innermost open span on this stack);
* explicit :meth:`SpanRecorder.begin` / :meth:`SpanRecorder.end` for
  event-driven spans whose open/close arrive as bus callbacks (many task
  attempts are in flight at once, so lexical nesting cannot express
  them) — the caller passes ``parent=`` explicitly.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = ["Span", "SpanRecorder"]


@dataclass(slots=True)
class Span:
    """One recorded interval; ``sim_end is None`` while still open."""

    id: int
    name: str
    sim_start: float
    wall_start: float
    labels: dict[str, Any] = field(default_factory=dict)
    parent: int | None = None
    sim_end: float | None = None
    wall_end: float | None = None

    @property
    def open(self) -> bool:
        return self.sim_end is None

    @property
    def sim_duration(self) -> float:
        """Virtual seconds covered (0.0 while open)."""
        return 0.0 if self.sim_end is None else self.sim_end - self.sim_start

    @property
    def wall_duration(self) -> float:
        return 0.0 if self.wall_end is None else self.wall_end - self.wall_start


class _SpanContext:
    """Context manager wrapping one recorder-stack span."""

    __slots__ = ("_recorder", "_name", "_labels", "_span")

    def __init__(self, recorder: "SpanRecorder", name: str, labels: dict) -> None:
        self._recorder = recorder
        self._name = name
        self._labels = labels

    def __enter__(self) -> Span:
        self._span = self._recorder._begin_stacked(self._name, self._labels)
        return self._span

    def __exit__(self, *exc_info: object) -> None:
        self._recorder._end_stacked(self._span)


class SpanRecorder:
    """Bounded recorder of :class:`Span` objects over a virtual clock.

    *clock* supplies simulation time; a recorder without one stamps
    ``sim=0.0``, and one fed from an event log reads none (:meth:`record`).
    """

    def __init__(
        self,
        *,
        clock: Callable[[], float] | None = None,
        capacity: int = 65536,
    ) -> None:
        self.clock = clock
        self._ring: deque[Span] = deque(maxlen=capacity)
        self._stack: list[Span] = []
        self._ids = itertools.count(1)

    def _now(self) -> float:
        clock = self.clock
        return clock() if clock is not None else 0.0

    # -- explicit open/close (event-driven spans) ----------------------------

    def begin(
        self, name: str, *, parent: int | None = None, **labels: Any
    ) -> Span:
        """Open a span; the caller keeps the handle and ends it later."""
        return self.open(name, labels, parent)

    def open(
        self, name: str, labels: dict[str, Any], parent: int | None = None
    ) -> Span:
        """:meth:`begin` for a caller that has its labels in a dict already:
        the span takes ownership of *labels* (no copy), so the caller must
        not reuse the dict."""
        return self.record(name, labels, parent, self._now(), time.perf_counter())

    def record(
        self,
        name: str,
        labels: dict[str, Any],
        parent: int | None,
        sim: float,
        wall: float,
    ) -> Span:
        """:meth:`open` at stamps taken earlier (the span owns *labels*);
        whoever ends it writes ``sim_end`` / ``wall_end`` the same way."""
        span = Span(next(self._ids), name, sim, wall, labels, parent)
        self._ring.append(span)
        return span

    def end(self, span: Span) -> Span:
        """Close *span* at the current sim/wall time (idempotent)."""
        if span.sim_end is not None:
            return span
        span.sim_end = self._now()
        span.wall_end = time.perf_counter()
        return span

    def instant(self, name: str, *, parent: int | None = None, **labels: Any) -> Span:
        """A zero-duration marker span."""
        return self.end(self.open(name, labels, parent))

    def interval(
        self,
        name: str,
        sim_start: float,
        sim_end: float,
        *,
        parent: int | None = None,
        **labels: Any,
    ) -> Span:
        """Record an interval whose bounds are already known (e.g. a
        scheduled backoff wait: the delay is decided upfront, so the span
        can be closed at creation with a *future* sim end)."""
        wall = time.perf_counter()
        span = Span(
            id=next(self._ids),
            name=name,
            sim_start=sim_start,
            wall_start=wall,
            labels=labels,
            parent=parent,
            sim_end=sim_end,
            wall_end=wall,
        )
        self._ring.append(span)
        return span

    # -- lexical nesting -----------------------------------------------------

    def span(self, name: str, **labels: Any) -> _SpanContext:
        """``with recorder.span("mc.point", technique=t):`` — parent is the
        innermost open ``with`` span."""
        return _SpanContext(self, name, labels)

    def _begin_stacked(self, name: str, labels: dict) -> Span:
        parent = self._stack[-1].id if self._stack else None
        # The context object keeps its labels and may be entered again.
        span = self.open(name, dict(labels), parent)
        self._stack.append(span)
        return span

    def _end_stacked(self, span: Span) -> None:
        self.end(span)
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # pragma: no cover - defensive
            self._stack.remove(span)

    # -- queries -------------------------------------------------------------

    @property
    def spans(self) -> list[Span]:
        """Recorded spans, oldest first (bounded by the ring capacity)."""
        return list(self._ring)

    def closed(self) -> Iterator[Span]:
        return (s for s in self._ring if s.sim_end is not None)

    def named(self, name: str) -> list[Span]:
        return [s for s in self._ring if s.name == name]

    def clear(self) -> None:
        self._ring.clear()
        self._stack.clear()
