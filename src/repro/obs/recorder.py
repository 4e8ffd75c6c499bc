"""Flight recorder: a bounded journal of every bus event, for post-mortems.

A failure-handling framework is judged in the moments *after* something
went wrong — and by then the interesting events have already happened.
:class:`FlightRecorder` is the journal view of the bus's
:class:`~repro.obs.log.EventLog`: every publish made since it was attached,
bounded in memory by the log's ring, optionally spilled to a JSON-lines
file **as each event is appended** so a crash loses nothing.  ``repro
inspect`` (:mod:`repro.obs.postmortem`) rebuilds a causally-linked
per-workflow timeline from either source.

Entries are the plain JSON-safe dicts :func:`~repro.obs.log.expand` builds
from the published payload contract.  The recorder never imports engine
types and never raises into a publish: a broken payload becomes a journal
entry complaining about itself rather than a crashed run.
"""

from __future__ import annotations

import json
from typing import IO, Any

from ..events import EventBus
from .log import LogConsumer, LogRecord, expand

__all__ = ["FlightRecorder", "JOURNAL_VERSION"]

#: Stamped into every spill file header line so ``repro inspect`` can
#: refuse recordings from an incompatible future layout.
JOURNAL_VERSION = 1


class FlightRecorder(LogConsumer):
    """The journal of every publish on *bus*, optionally spilling to disk.

    In memory the journal is what the bus's log still holds (oldest entries
    are overwritten; :meth:`stats` counts the overwrites).  *spill_path*
    streams every entry to a JSON-lines file as it is appended, so the
    on-disk journal is complete even when the ring has wrapped — and even
    if the process dies mid-run, modulo OS buffering.
    """

    def __init__(self, bus: EventBus, *, spill_path: str | None = None) -> None:
        self._spilled = 0
        self.spill_path = spill_path
        self._spill: IO[str] | None = None
        self.attach_bus(bus)
        if spill_path is not None:
            self._spill = open(spill_path, "w", encoding="utf-8")
            self._spill.write(json.dumps({"journal_version": JOURNAL_VERSION}) + "\n")
            self._log.spills.append(self._write)

    def close(self) -> None:
        """Stop spilling and close the spill file, if any (the journal
        stays readable: it is a view of the log)."""
        if self._spill is not None:
            self._log.spills.remove(self._write)
            self._spill.close()
            self._spill = None

    def __enter__(self) -> "FlightRecorder":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # -- recording -----------------------------------------------------------

    def _write(self, record: LogRecord) -> None:
        """One record's spill line, written at append, not at the next
        fold: a complete on-disk journal is worth the expansion per event."""
        try:
            line = json.dumps(expand(record))
        except Exception as exc:  # never crash the publishing hot path
            line = json.dumps(
                {"seq": record[0], "topic": record[3], "recorder_error": repr(exc)}
            )
        self._spill.write(line + "\n")  # type: ignore[union-attr]
        self._spilled += 1

    # -- reading -------------------------------------------------------------

    @property
    def entries(self) -> list[dict[str, Any]]:
        """The journal as JSON-safe entries, oldest first (what the log
        still holds)."""
        return [expand(record) for record in self._records()]

    def stats(self) -> dict[str, int]:
        recorded = self._log.seq - self._since
        retained = len(self._records())
        return {
            "recorded": recorded,
            "retained": retained,
            "overwritten": recorded - retained,
            "spilled": self._spilled,
        }
