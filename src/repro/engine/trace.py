"""Structured execution traces.

:class:`EngineTrace` is the query layer over :class:`repro.obs.observer.
RunObserver` — the single recording path for engine lifecycle events,
detector attempt outcomes and recovery decisions, itself a view of
the bus's event log (:mod:`repro.obs.log`).  It adds the
trace-shaped helpers (counting topics, per-node views, attempt lists, a
rendered timeline) that tests and debugging sessions want, on top of the
observer's events, spans and metrics.  Useful for debugging recovery
behaviour ("why did this retry happen at t=42?"), for assertions in tests,
and for feeding external monitoring via :mod:`repro.obs.export`.

Usage::

    engine = WorkflowEngine(wf, grid, reactor=grid.reactor)
    trace = EngineTrace.attach(engine)
    engine.run()
    print(trace.render())
    assert trace.count("task.failed") == 2

A trace is attached for the life of its bus (attaching it again is a
no-op, another bus is refused), and the recording survives
:meth:`WorkflowEngine.reset`: the engine holds no bus subscription of its
own, so one trace observes an entire engine-reuse loop, every run of it.
"""

from __future__ import annotations

from ..detection.detector import TASK_DONE, TASK_EXCEPTION, TASK_FAILED
from ..obs.observer import RecordedEvent, RunObserver

__all__ = ["EngineTrace"]


class EngineTrace(RunObserver):
    """A :class:`RunObserver` with trace-style query helpers."""

    # -- queries ----------------------------------------------------------------

    def count(self, topic: str) -> int:
        """Number of recorded events with exactly this topic."""
        return sum(1 for record in self._observed() if record[3] == topic)

    def for_node(self, name: str) -> list[RecordedEvent]:
        """All events concerning one node/activity."""
        return [
            e
            for e in self.events
            if e.detail.get("node") == name or e.detail.get("activity") == name
        ]

    def attempts(self, activity: str) -> list[RecordedEvent]:
        """Terminal detector outcomes for one activity, in order."""
        terminal = {TASK_DONE, TASK_FAILED, TASK_EXCEPTION}
        return [
            e
            for e in self.events
            if e.topic in terminal and e.detail.get("activity") == activity
        ]

    def render(self) -> str:
        """The full trace, one line per event, time-ordered."""
        ordered = sorted(self.events, key=lambda e: (e.at, e.topic))
        return "\n".join(str(e) for e in ordered)
