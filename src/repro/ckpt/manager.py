"""Framework-side checkpoint bookkeeping.

Section 4.3: "Upon receipt of the checkpoint notification from a task, the
framework marks the task as checkpoint-enabled, and saves the checkpoint
flag being delivered piggybacked on the notification message.  Hence, when
the task crash failure is detected and retrying is specified, the framework
retries the task from the checkpointed state by sending back the checkpoint
flag."

:class:`CheckpointManager` is exactly that bookkeeping: per-activity latest
flag, checkpoint-enabled marking, and garbage collection on success.  It is
deliberately independent of the storage substrate — flags are opaque.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["CheckpointManager", "CheckpointRecord"]


class CheckpointRecord(NamedTuple):
    """Latest known checkpoint for one activity: a ``NamedTuple``, replaced
    (never edited) by the next :meth:`CheckpointManager.record`."""

    activity: str
    flag: str
    progress: float = 0.0
    #: Time the flag was recorded (reactor seconds), for diagnostics.
    recorded_at: float = 0.0
    #: Causal span id of the attempt that produced this flag (see
    #: :mod:`repro.obs.tracectx`); "" when tracing is off.  A restart
    #: submission republishes it, so a post-mortem timeline can tie the
    #: restarted attempt to the attempt whose checkpoint it resumed from.
    source_span: str = ""


_tuple_new = tuple.__new__


class CheckpointManager:
    """Tracks which activities are checkpoint-enabled and their last flag."""

    def __init__(self) -> None:
        self._records: dict[str, CheckpointRecord] = {}

    def record(
        self,
        activity: str,
        flag: str,
        *,
        progress: float = 0.0,
        at: float = 0.0,
        source_span: str = "",
    ) -> None:
        """Store the newest flag for *activity* (marks it checkpoint-enabled)."""
        self._records[activity] = _tuple_new(
            CheckpointRecord, (activity, flag, progress, at, source_span)
        )

    def is_checkpoint_enabled(self, activity: str) -> bool:
        return activity in self._records

    def flag_for(self, activity: str) -> str | None:
        """Flag to send back on a retry, or None for a from-scratch start."""
        record = self._records.get(activity)
        return record.flag if record else None

    def progress_of(self, activity: str) -> float:
        record = self._records.get(activity)
        return record.progress if record else 0.0

    def source_span_of(self, activity: str) -> str:
        """Causal span id of the attempt that saved the current flag."""
        record = self._records.get(activity)
        return record.source_span if record else ""

    def clear(self, activity: str) -> None:
        """Forget the activity's flag (after success, or to force a cold
        restart)."""
        self._records.pop(activity, None)

    def clear_prefix(self, prefix: str) -> int:
        """Forget every record whose key starts with *prefix*.

        Multiplexed engines share one manager but key their flags with a
        per-instance scope; an instance resetting or finishing clears its
        own records without touching its siblings'.  Returns the number of
        records removed.
        """
        stale = [key for key in self._records if key.startswith(prefix)]
        for key in stale:
            del self._records[key]
        return len(stale)

    def snapshot(self) -> dict[str, dict]:
        """Serialisable view, embedded in engine checkpoints."""
        return {
            a: {"flag": r.flag, "progress": r.progress, "recorded_at": r.recorded_at}
            for a, r in self._records.items()
        }

    @classmethod
    def restore(cls, snapshot: dict[str, dict]) -> "CheckpointManager":
        mgr = cls()
        for activity, data in snapshot.items():
            mgr.record(
                activity,
                data["flag"],
                progress=float(data.get("progress", 0.0)),
                at=float(data.get("recorded_at", 0.0)),
            )
        return mgr
