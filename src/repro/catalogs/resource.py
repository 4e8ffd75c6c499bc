"""Resource catalog with matchmaking queries.

Third directory service of Figure 7.  Holds :class:`ResourceSpec` records
and answers broker queries: attribute constraints (minimum disk/memory,
reliability floor), tag membership, and ranked selection.  This is the
directory the paper's engine would consult when the workflow specification
does not pin a task to explicit hosts (the paper notes that option was "not
implemented yet" in their prototype — we implement it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from ..errors import CatalogError, NoResourceError
from ..grid.resource import ResourceSpec

__all__ = ["ResourceQuery", "ResourceCatalog"]


@dataclass(frozen=True)
class ResourceQuery:
    """Declarative constraints for resource matchmaking.

    Any field left at its default does not constrain the match.  ``rank``
    orders surviving candidates (higher is better); the default prefers
    more reliable, faster hosts.
    """

    min_disk_gb: float = 0.0
    min_memory_gb: float = 0.0
    min_mttf: float = 0.0
    max_mean_downtime: float = math.inf
    require_tags: frozenset[str] = field(default_factory=frozenset)
    exclude_hosts: frozenset[str] = field(default_factory=frozenset)

    def admits(self, spec: ResourceSpec) -> bool:
        return (
            spec.disk_gb >= self.min_disk_gb
            and spec.memory_gb >= self.min_memory_gb
            and spec.mttf >= self.min_mttf
            and spec.mean_downtime <= self.max_mean_downtime
            and self.require_tags <= spec.tags
            and spec.hostname not in self.exclude_hosts
        )


def _default_rank(spec: ResourceSpec) -> float:
    """Prefer reliable, fast hosts; finite values keep the sort total."""
    mttf_term = 1e9 if spec.reliable else spec.mttf
    return mttf_term * spec.speed - spec.mean_downtime


class ResourceCatalog:
    """Registry of Grid resources plus matchmaking."""

    def __init__(self) -> None:
        self._specs: dict[str, ResourceSpec] = {}

    def register(self, spec: ResourceSpec) -> None:
        if spec.hostname in self._specs:
            raise CatalogError(f"duplicate resource: {spec.hostname!r}")
        self._specs[spec.hostname] = spec

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, hostname: str) -> bool:
        return hostname in self._specs

    def get(self, hostname: str) -> ResourceSpec:
        try:
            return self._specs[hostname]
        except KeyError:
            raise CatalogError(f"unknown resource: {hostname!r}") from None

    def all(self) -> list[ResourceSpec]:
        return sorted(self._specs.values(), key=lambda s: s.hostname)

    # -- matchmaking --------------------------------------------------------

    def match(
        self,
        query: ResourceQuery | None = None,
        *,
        rank: Callable[[ResourceSpec], float] | None = None,
    ) -> list[ResourceSpec]:
        """All resources admitted by *query*, best-ranked first."""
        query = query or ResourceQuery()
        ranker = rank or _default_rank
        admitted = [s for s in self._specs.values() if query.admits(s)]
        return sorted(admitted, key=ranker, reverse=True)

    def select(
        self,
        query: ResourceQuery | None = None,
        *,
        rank: Callable[[ResourceSpec], float] | None = None,
    ) -> ResourceSpec:
        """Best single match; raises :class:`NoResourceError` when empty."""
        matches = self.match(query, rank=rank)
        if not matches:
            raise NoResourceError(f"no resource satisfies {query!r}")
        return matches[0]
