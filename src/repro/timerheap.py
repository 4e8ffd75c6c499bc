"""Shared timer heap with lazy cancellation and counter-driven compaction.

Both reactors — the wall-clock :class:`repro.reactor.RealTimeReactor` and
the virtual-time :class:`repro.grid.simkernel.SimKernel` — keep their
pending timers in the same data structure so the two scheduling paths
cannot drift apart:

* an entry is a ``[when, seq, callback, cancel]`` list, so heap sift
  comparisons run entirely in C (list comparison stops at ``seq``, which is
  unique, and never reaches the callback) — and the entry *is* the handle
  the caller gets back (:class:`TimerHandle`, a ``list`` subclass built by
  one C-level call): one object per timer, not an entry plus a wrapper;
* ``cancel`` cancels the entry where it currently sits:
  :meth:`TimerHeap.cancel` in the heap (behind the real-time reactor's
  lock there), :meth:`TimerHeap.cancel_unqueued` in a queue of the
  owner's own (the simulation kernel's same-instant lane);
* cancellation is lazy — ``callback`` is replaced by ``None`` and the entry
  is dropped when popped; when cancelled entries pile up the heap is
  compacted in place so pathological cancel-heavy workloads (heartbeat
  monitors, timer churn) stay O(live events);
* an entry that is popped to run has its ``callback`` replaced by
  :data:`FIRED` first, so cancelling a timer that already ran is a no-op:
  it is neither counted nor allowed to trigger a compaction of a heap
  that holds no cancelled entry (and the entry lets go of its callback);
* compaction rebuilds the list *in place* (``heap[:] = ...``) because the
  kernel's drain loop holds a local reference to it.

Owners that pop entries inline (the simulation kernel's drain loop) must
call :meth:`TimerHeap.note_popped_cancelled` whenever they pop an entry
whose callback is ``None``, keeping the cancellation counter honest, and
must store :data:`FIRED` in the callback slot of every entry they run.
The kernel also builds and pushes its entries inline (then ``next_seq +=
1``): one frame less on every scheduled event.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

__all__ = [
    "TimerHandle",
    "TimerHeap",
    "WHEN",
    "SEQ",
    "CALLBACK",
    "CANCEL",
    "FIRED",
    "COMPACT_MIN_CANCELLED",
]

# Entry slots: [when, seq, callback, cancel]; callback is None once
# cancelled and FIRED once the entry has been popped to run.
WHEN, SEQ, CALLBACK, CANCEL = 0, 1, 2, 3

#: Occupies the callback slot of an entry whose timer has run.
FIRED: Any = object()

#: Compact the heap when at least this many entries are cancelled *and* they
#: outnumber the live ones (amortises the rebuild over many cancellations).
COMPACT_MIN_CANCELLED = 64


class TimerHandle(list):
    """A scheduled timer: the queue entry itself, ``TimerHandle((when,
    seq, callback, cancel))``, with the caller-facing operations on it."""

    __slots__ = ()

    # Entries are identities, not values (``seq`` is unique per owner).
    __hash__ = object.__hash__

    def cancel(self) -> None:
        """Prevent the timer's callback from running.  Idempotent; a no-op
        once the timer has fired."""
        self[CANCEL](self)

    @property
    def cancelled(self) -> bool:
        return self[CALLBACK] is None

    @property
    def when(self) -> float:
        """Absolute owner time at which the timer fires."""
        return self[WHEN]

    @property
    def callback(self) -> Any:
        """What will run, while the timer is pending: the callable its
        scheduler accepted (a shim around ``schedule`` may have wrapped
        it), which an owner that re-arms the timer hands back."""
        return self[CALLBACK]

    def __repr__(self) -> str:
        return f"<TimerHandle when={self[WHEN]!r} seq={self[SEQ]!r}>"


class TimerHeap:
    """A min-heap of :class:`TimerHandle` entries.

    Not thread-safe on its own; concurrent owners (the real-time reactor)
    must serialise every call, including :meth:`cancel` — compaction
    mutates the heap list.
    """

    __slots__ = (
        "heap",
        "next_seq",
        "_cancelled",
        "compactions",
        "cancelled_total",
    )

    def __init__(self) -> None:
        #: The underlying heap list.  Owners may read it directly for a hot
        #: drain loop; apart from the kernel's inline push, mutation goes
        #: through the methods below.
        self.heap: list[list] = []
        self.clear()

    def __len__(self) -> int:
        return len(self.heap)

    # -- scheduling --------------------------------------------------------

    def push(
        self,
        when: float,
        callback: Callable[[], None],
        cancel: Callable[[list], None] | None = None,
    ) -> TimerHandle:
        """Queue *callback* at absolute time *when*; returns the entry.
        An owner driven from several threads passes a *cancel* that holds
        its lock around :meth:`cancel`."""
        entry = TimerHandle((when, self.next_seq, callback, cancel or self.cancel))
        self.next_seq += 1
        heapq.heappush(self.heap, entry)
        return entry

    # -- cancellation ------------------------------------------------------

    def cancel(self, entry: list) -> None:
        """Cancel *entry*'s callback.  Idempotent, and a no-op for an
        entry that already ran; may compact the heap."""
        callback = entry[CALLBACK]
        if callback is not None and callback is not FIRED:
            entry[CALLBACK] = None
            self.note_cancelled()

    def cancel_unqueued(self, entry: list) -> None:
        """:meth:`cancel` for an entry the owner holds outside the heap:
        counted as a cancellation, but no pressure to compact a heap it
        is not in."""
        callback = entry[CALLBACK]
        if callback is not None and callback is not FIRED:
            entry[CALLBACK] = None
            self.cancelled_total += 1

    def note_cancelled(self) -> None:
        """Record one external cancellation (entry already nulled out)."""
        self._cancelled += 1
        self.cancelled_total += 1
        if (
            self._cancelled >= COMPACT_MIN_CANCELLED
            and self._cancelled * 2 >= len(self.heap)
        ):
            self.compact()

    def note_popped_cancelled(self) -> None:
        """Record that the owner popped an already-cancelled entry."""
        if self._cancelled:
            self._cancelled -= 1

    def compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place (a drain loop
        holds a local reference to the heap list, so its identity must be
        preserved)."""
        self.heap[:] = [e for e in self.heap if e[CALLBACK] is not None]
        heapq.heapify(self.heap)
        self._cancelled = 0
        self.compactions += 1

    # -- queries -----------------------------------------------------------

    @property
    def scheduled_total(self) -> int:
        """Total entries ever pushed (the sequence counter)."""
        return self.next_seq

    def live_count(self) -> int:
        """Number of queued, non-cancelled entries."""
        return sum(1 for e in self.heap if e[CALLBACK] is not None)

    def peek_live(self) -> list | None:
        """The next live entry without removing it (drops cancelled heads)."""
        heap = self.heap
        while heap:
            if heap[0][CALLBACK] is None:
                heapq.heappop(heap)
                self.note_popped_cancelled()
                continue
            return heap[0]
        return None

    def pop_due(self, now: float) -> Callable[[], None] | None:
        """Remove the next live entry with ``when <= now``, mark it fired
        and return its callback for the caller to run."""
        head = self.peek_live()
        if head is not None and head[WHEN] <= now:
            entry = heapq.heappop(self.heap)
            callback = entry[CALLBACK]
            entry[CALLBACK] = FIRED
            return callback
        return None

    # -- lifecycle ---------------------------------------------------------

    def clear(self) -> None:
        """Forget every entry and restart the sequence counter (so a reused
        heap reproduces a fresh one's FIFO tie-breaking exactly)."""
        self.heap.clear()
        #: Sequence number the next pushed entry takes (FIFO tie-break).
        self.next_seq = 0
        self._cancelled = 0
        #: Monotonic observability counters: compaction passes performed
        #: and total cancellations ever recorded.  Unlike ``_cancelled``
        #: (live pending-cancel count, reset by compaction) these survive
        #: :meth:`compact`; only :meth:`clear` rewinds them.
        self.compactions = 0
        self.cancelled_total = 0
