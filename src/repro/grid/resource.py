"""Grid resource descriptions.

A :class:`ResourceSpec` describes one Grid host the way the paper's resource
catalog would: coordinates (hostname, job service), capacity attributes
(CPU speed factor, disk, memory), reliability parameters (MTTF and mean
downtime — the knobs of the evaluation), and free-form tags used by broker
queries ("condor-pool", "volunteer", ...).

These specs configure both the simulation (each spec instantiates a
:class:`repro.grid.host.Host`) and the resource catalog
(:mod:`repro.catalogs.resource`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["ResourceSpec", "RELIABLE", "UNRELIABLE"]


@dataclass(frozen=True)
class ResourceSpec:
    """Static description of one Grid resource.

    Attributes
    ----------
    hostname:
        Unique host identifier (e.g. ``"bolas.isi.edu"``).
    service:
        Job submission service name (the WPDL ``service='jobmanager'``).
    speed:
        Relative CPU speed; a task with nominal duration ``d`` runs for
        ``d / speed`` on this host.
    disk_gb / memory_gb:
        Capacity attributes used for matchmaking (e.g. the paper's
        "restart it on a machine with significantly more disk space").
    mttf:
        Mean time to failure in seconds; ``inf`` marks a reliable host
        whose failure process never fires.
    mean_downtime:
        Mean repair time after a crash (exponential, per the paper).
    heartbeat_period:
        Interval between liveness beacons from this host's generic server.
    slots:
        Maximum simultaneously running jobs (the jobmanager's execution
        slots); further submissions queue FIFO until a slot frees.
        ``None`` (default) models an uncontended host with no admission
        limit — the assumption behind the paper's completion-time models.
    tags:
        Free-form labels for broker queries.
    """

    hostname: str
    service: str = "jobmanager"
    speed: float = 1.0
    disk_gb: float = 100.0
    memory_gb: float = 8.0
    mttf: float = math.inf
    mean_downtime: float = 0.0
    heartbeat_period: float = 1.0
    slots: int | None = None
    tags: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not self.hostname:
            raise ValueError("hostname must be non-empty")
        if not self.speed > 0:
            raise ValueError(f"speed must be positive, got {self.speed!r}")
        if not self.mttf > 0:
            raise ValueError(f"mttf must be positive, got {self.mttf!r}")
        if not self.mean_downtime >= 0:
            raise ValueError(
                f"mean_downtime must be >= 0, got {self.mean_downtime!r}"
            )
        if not self.heartbeat_period > 0:
            raise ValueError(
                f"heartbeat_period must be positive, got {self.heartbeat_period!r}"
            )
        if self.slots is not None and not self.slots >= 1:
            raise ValueError(f"slots must be >= 1 or None, got {self.slots!r}")

    @property
    def reliable(self) -> bool:
        """True when the host never fails (infinite MTTF)."""
        return math.isinf(self.mttf)

    @property
    def failure_rate(self) -> float:
        """λ = 1/MTTF (0 for reliable hosts)."""
        return 0.0 if self.reliable else 1.0 / self.mttf


def RELIABLE(hostname: str, **kwargs) -> ResourceSpec:
    """A host that never crashes (e.g. a well-run Condor pool node)."""
    kwargs.setdefault("tags", frozenset({"reliable"}))
    return ResourceSpec(hostname=hostname, mttf=math.inf, **kwargs)


def UNRELIABLE(hostname: str, mttf: float, mean_downtime: float = 0.0, **kwargs) -> ResourceSpec:
    """A volunteer-grade host with finite MTTF."""
    kwargs.setdefault("tags", frozenset({"volunteer"}))
    return ResourceSpec(
        hostname=hostname, mttf=mttf, mean_downtime=mean_downtime, **kwargs
    )
