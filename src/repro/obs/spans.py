"""Spans stamped in both simulation and wall-clock time.

A span is one named interval — a workflow run, a node's execution, a task
attempt, a backoff wait — with arbitrary labels.  Every span carries *two*
clocks:

* ``sim_start`` / ``sim_end`` — the reactor's virtual time, the clock the
  paper's completion-time results are measured on.  Exports (Chrome
  ``trace_event``, Perfetto) are laid out on this axis so a trace of a
  simulated run reads like a timeline of the simulated Grid, not of the
  host CPU;
* ``wall_start`` / ``wall_end`` — ``time.perf_counter`` at publish time,
  for profiling the *simulator itself*.

Spans are a view of the bus's event log: :func:`repro.obs.observer.
spans_of` builds them from the records the log still holds when
:attr:`RunObserver.spans` is read — both stamps come off the record — and
nothing keeps them afterwards.  Many task attempts are in flight at once,
so a span names its parent explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["Span"]


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

