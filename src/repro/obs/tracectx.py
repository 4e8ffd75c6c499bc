"""Causal trace context: link every attempt to the decision that spawned it.

The paper's central loop — detect a failure, consult the declared policy,
recover — leaves a causal chain behind at runtime: a task attempt crashes,
the detector publishes a verdict, the recovery coordinator makes a
decision (retry / checkpoint restart / replica win), and that
decision spawns the next attempt.  Without identifiers the chain is only
implicit in event ordering; with them, any consumer (the flight recorder's
post-mortem timeline, the Chrome-trace flow arrows, the ``repro inspect``
CLI) can walk from a retry back to the exact detector event that triggered
it.

:class:`TraceContext` is the stamp: ``trace_id`` names one causal tree
(one workflow run), ``span_id`` names this hop, ``parent_id`` points at
the hop that caused it.  :class:`Tracer` allocates contexts from plain
counters — **deterministically**, because the whole stack runs inside a
seeded discrete-event simulation whose outputs are asserted bit-identical
across execution modes; random ids would survive that, but deterministic
ids make recordings diffable too.

Tracing is opt-in per runtime (``EngineRuntime.tracer``): an
uninstrumented engine carries ``tracer=None`` and pays one ``is None``
check per publish site, nothing more — its payloads' id fields are
``None`` (what the enabled plane costs is the ledger's
``obs.overhead_ratio`` row, ``benchmarks/ledger``).
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["TraceContext", "Tracer", "UNTRACED"]


class TraceContext(NamedTuple):
    """One hop in a causal chain.

    ``trace_id`` is shared by every hop of one workflow run; ``span_id``
    is unique within the allocating :class:`Tracer`; ``parent_id`` is the
    causing hop's ``span_id`` (``None`` for a root).

    A ``NamedTuple`` rather than a dataclass: contexts are minted on the
    traced hot path (one per attempt and per recovery decision), and tuple
    construction is what keeps the enabled path inside the benchmark's
    overhead ceiling.
    """

    trace_id: str
    span_id: str
    parent_id: str | None = None


#: The ``(trace_id, span_id, parent_id)`` a payload carries when tracing is
#: off: a publish site mints ``(*fields, *(ctx or UNTRACED))``, and the
#: journal entry leaves all three out.
UNTRACED: tuple[None, None, None] = (None, None, None)

#: Bypasses the generated ``TraceContext.__new__`` (which re-binds
#: defaults per call) on the minting hot path.
_tuple_new = tuple.__new__


class Tracer:
    """Deterministic allocator of :class:`TraceContext` chains.

    One tracer per :class:`~repro.engine.engine.EngineRuntime`: a
    multiplexed host's N instances share the allocator (span ids are
    globally unique on the bus) while each run gets its own ``trace_id``.
    """

    __slots__ = ("_next_trace", "_next_span")

    def __init__(self) -> None:
        self._next_trace = 0
        self._next_span = 0

    def root(self, name: str = "") -> TraceContext:
        """Open a new causal tree (one workflow run).

        *name* seeds the trace id (typically the ``workflow_id`` or the
        specification name); a run counter keeps repeated runs of the same
        instance — the engine-reuse Monte-Carlo loop — distinguishable.
        """
        self._next_trace += 1
        span = self._next_span = self._next_span + 1
        label = name if name else "run"
        return _tuple_new(
            TraceContext, (f"{label}#{self._next_trace}", f"s{span}", None)
        )

    def child(self, parent: TraceContext) -> TraceContext:
        """A hop caused by *parent*, in the same trace."""
        span = self._next_span = self._next_span + 1
        return _tuple_new(TraceContext, (parent[0], f"s{span}", parent[1]))

    @property
    def spans_allocated(self) -> int:
        return self._next_span
