"""Checkpoint storage substrate.

Stand-in for the paper's standalone checkpoint libraries (Libckpt, the
Condor checkpoint library): a keyed store of opaque checkpoint payloads.
Tasks write checkpoints under a key; the key travels to the framework as the
*checkpoint flag* piggybacked on the Checkpoint notification, and comes back
on restart so the task can resume.

Two implementations share one interface:

* :class:`MemoryCheckpointStore` — in-process dict, used inside the
  simulation (checkpoint I/O cost is modelled by the task behaviour's
  ``overhead``/``recovery_time`` parameters, not by real I/O);
* :class:`FileCheckpointStore` — JSON files in a directory, used by the
  local executor so checkpoints survive engine restarts.
"""

from __future__ import annotations

import json
import re
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Any

from ..errors import CheckpointError

__all__ = ["CheckpointStore", "MemoryCheckpointStore", "FileCheckpointStore"]


class CheckpointStore(ABC):
    """Keyed storage of checkpoint payloads (JSON-serialisable dicts)."""

    @abstractmethod
    def save(self, key: str, state: dict[str, Any]) -> None:
        """Persist *state* under *key*, overwriting any previous version."""

    @abstractmethod
    def load(self, key: str) -> dict[str, Any]:
        """Return the payload saved under *key*.

        Raises :class:`CheckpointError` when the key is unknown — a lost
        checkpoint is a recoverable condition (restart from the beginning),
        so callers should catch this.
        """

    @abstractmethod
    def delete(self, key: str) -> None:
        """Drop *key* if present: GRAM drops every key a workflow's jobs
        wrote when it ends (:meth:`repro.grid.gram.GramService.release`)."""

    @abstractmethod
    def keys(self) -> list[str]:
        """All stored keys (diagnostics)."""

    def contains(self, key: str) -> bool:
        try:
            self.load(key)
            return True
        except CheckpointError:
            return False

    def clear(self) -> None:
        """Drop every stored checkpoint (used when a simulated grid is
        reset between Monte-Carlo runs).  Stores that cannot be wiped
        wholesale may leave this unimplemented."""
        raise CheckpointError(
            f"{type(self).__name__} does not support clear()"
        )


class MemoryCheckpointStore(CheckpointStore):
    """Dict-backed store used by the simulated Grid."""

    def __init__(self) -> None:
        self._data: dict[str, dict[str, Any]] = {}
        #: Write counter (used by overhead-accounting tests).
        self.writes = 0

    def save(self, key: str, state: dict[str, Any]) -> None:
        if not key:
            raise CheckpointError("checkpoint key must be non-empty")
        self._data[key] = dict(state)
        self.writes += 1

    def load(self, key: str) -> dict[str, Any]:
        try:
            return dict(self._data[key])
        except KeyError:
            raise CheckpointError(f"no checkpoint stored under {key!r}") from None

    def delete(self, key: str) -> None:
        self._data.pop(key, None)

    def keys(self) -> list[str]:
        return sorted(self._data)

    def clear(self) -> None:
        self._data.clear()
        self.writes = 0


_SAFE_KEY = re.compile(r"[^A-Za-z0-9._-]")


class FileCheckpointStore(CheckpointStore):
    """Directory-of-JSON-files store for real (wall-clock) execution."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        if not key:
            raise CheckpointError("checkpoint key must be non-empty")
        return self.directory / (_SAFE_KEY.sub("_", key) + ".ckpt.json")

    def save(self, key: str, state: dict[str, Any]) -> None:
        path = self._path(key)
        tmp = path.with_suffix(".tmp")
        try:
            tmp.write_text(json.dumps(state, sort_keys=True))
            tmp.replace(path)  # atomic on POSIX: no torn checkpoints
        except (OSError, TypeError) as exc:
            raise CheckpointError(f"cannot save checkpoint {key!r}: {exc}") from exc

    def load(self, key: str) -> dict[str, Any]:
        path = self._path(key)
        try:
            return json.loads(path.read_text())
        except FileNotFoundError:
            raise CheckpointError(f"no checkpoint stored under {key!r}") from None
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"cannot load checkpoint {key!r}: {exc}") from exc

    def delete(self, key: str) -> None:
        try:
            self._path(key).unlink()
        except FileNotFoundError:
            pass

    def keys(self) -> list[str]:
        return sorted(p.name[: -len(".ckpt.json")] for p in self.directory.glob("*.ckpt.json"))
