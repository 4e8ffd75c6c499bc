"""Data catalog.

Second directory service of Figure 7: maps logical data names to physical
replicas.  Workflow inputs/outputs reference logical names; the broker
resolves them to a replica co-located with (or nearest to) the execution
host.  Replica bookkeeping also supports the cleanup-after-failure pattern
of Section 5.1 (an alternative task that "cleans up the partially
transferred data"): partial replicas are registered as ``complete=False``
and can be enumerated and retracted.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CatalogError

__all__ = ["DataReplica", "DataCatalog"]


@dataclass(frozen=True)
class DataReplica:
    """One physical copy of a logical data item."""

    logical_name: str
    hostname: str
    path: str
    size_gb: float = 0.0
    complete: bool = True

    def __post_init__(self) -> None:
        if not self.logical_name or not self.hostname or not self.path:
            raise CatalogError(
                "data replica requires logical_name, hostname and path"
            )
        if self.size_gb < 0:
            raise CatalogError(f"size_gb must be >= 0, got {self.size_gb!r}")


class DataCatalog:
    """Registry of logical→physical data mappings."""

    def __init__(self) -> None:
        self._replicas: dict[str, list[DataReplica]] = {}

    def register(self, replica: DataReplica) -> None:
        self._replicas.setdefault(replica.logical_name, []).append(replica)

    def retract(self, logical_name: str, hostname: str, path: str) -> bool:
        """Remove one replica record; returns True if something was removed."""
        replicas = self._replicas.get(logical_name, [])
        keep = [
            r for r in replicas if not (r.hostname == hostname and r.path == path)
        ]
        removed = len(keep) != len(replicas)
        if keep:
            self._replicas[logical_name] = keep
        else:
            self._replicas.pop(logical_name, None)
        return removed

    def replicas_of(self, logical_name: str, *, complete_only: bool = True) -> list[DataReplica]:
        replicas = self._replicas.get(logical_name, [])
        if complete_only:
            replicas = [r for r in replicas if r.complete]
        return list(replicas)

    def partial_replicas(self) -> list[DataReplica]:
        """All incomplete replicas (candidates for failure cleanup)."""
        return [
            r
            for replicas in self._replicas.values()
            for r in replicas
            if not r.complete
        ]
