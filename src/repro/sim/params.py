"""Simulation parameters of the paper's evaluation (Section 8.1).

One dataclass collects the symbols used throughout Section 8, with the same
names and semantics:

====  =======================================================================
F     failure-free execution time of the task
λ     failure rate (Poisson arrivals); MTTF = 1/λ, TTF ~ Exp(MTTF)
D     mean downtime after a failure (exponential)
C     average checkpoint overhead (constant)
a     uninterrupted execution time between checkpoints, a = F/K
R     recovery time to restore a checkpointed state
N     number of replicas
p     probability that one of FU's K checks raises its exception (Fig. 13)
SR    duration of the alternative task that handles it (Fig. 13)
====  =======================================================================

The paper's headline configuration (Figures 10–12) is ``F=30, K=20, C=R=0.5,
N=3`` with MTTF swept over [10, 100] and D over {0, F, 5F, 10F} —
:data:`PAPER_BASELINE` captures it.  Checkpoint latency L is deliberately
not modelled, following the paper ("by assuming that a task is halted
during checkpointing we do not consider this parameter").

Figure 13 (Section 8.2) reads the same fields for its Fast_Unreliable_Task:
FU is F, its checks are K (one every a), each failing with probability p,
and a passed check's checkpoint costs C and a resume from it R — the paper
sets both to 0.  Its model has no host failures, so its cells keep
``mttf=inf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..errors import SimulationError

__all__ = ["SimulationParams", "PAPER_BASELINE", "PAPER_MTTF_SWEEP", "PAPER_DOWNTIMES"]


@dataclass(frozen=True)
class SimulationParams:
    """Parameters for one expected-completion-time experiment."""

    #: Failure-free execution time (the paper fixes F = 30).
    failure_free_time: float = 30.0
    #: Mean time to failure; ``inf`` disables failures.
    mttf: float = math.inf
    #: Mean downtime following a failure.
    downtime: float = 0.0
    #: Repair-time distribution: "exponential" (the paper's assumption) or
    #: "fixed" (deterministic repair of exactly ``downtime`` seconds) —
    #: used by the robustness ablation; expected completion times depend on
    #: downtime only through its mean, so results should be insensitive.
    downtime_distribution: str = "exponential"
    #: Average checkpoint overhead C.
    checkpoint_overhead: float = 0.5
    #: Recovery time R.
    recovery_time: float = 0.5
    #: Number of checkpoints K (the paper uses 20).
    checkpoints: int = 20
    #: Number of replicas N (the paper uses 3).
    replicas: int = 3
    #: Base wait before a retry (the ``backoff_retry`` technique only; the
    #: paper's plain retrying resubmits immediately).
    retry_interval: float = 1.0
    #: Multiplier applied to the wait on each successive retry.
    backoff_factor: float = 2.0
    #: Cap on the grown retry wait (``None`` leaves it unbounded).
    max_retry_interval: float | None = 8.0
    #: Probability p that one of FU's checks raises its user-defined
    #: exception (Figure 13's techniques only).
    exception_probability: float = 0.0
    #: Duration SR of Figure 6's alternative task (paper: 150).
    alternative_time: float = 150.0
    #: Monte-Carlo sample count (the paper found 100 000 sufficient).
    runs: int = 100_000
    seed: int = 20030623

    def __post_init__(self) -> None:
        if self.failure_free_time <= 0:
            raise SimulationError(
                f"failure_free_time must be positive, got {self.failure_free_time!r}"
            )
        if self.mttf <= 0:
            raise SimulationError(f"mttf must be positive, got {self.mttf!r}")
        if self.downtime < 0:
            raise SimulationError(f"downtime must be >= 0, got {self.downtime!r}")
        if self.downtime_distribution not in ("exponential", "fixed"):
            raise SimulationError(
                "downtime_distribution must be 'exponential' or 'fixed', "
                f"got {self.downtime_distribution!r}"
            )
        if self.checkpoint_overhead < 0 or self.recovery_time < 0:
            raise SimulationError("C and R must be >= 0")
        if self.checkpoints < 1:
            raise SimulationError(
                f"checkpoints must be >= 1, got {self.checkpoints!r}"
            )
        if self.replicas < 1:
            raise SimulationError(f"replicas must be >= 1, got {self.replicas!r}")
        if self.retry_interval < 0:
            raise SimulationError(
                f"retry_interval must be >= 0, got {self.retry_interval!r}"
            )
        if self.backoff_factor < 1.0:
            raise SimulationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor!r}"
            )
        if self.max_retry_interval is not None and self.max_retry_interval <= 0:
            raise SimulationError(
                "max_retry_interval must be positive or None, "
                f"got {self.max_retry_interval!r}"
            )
        if not 0.0 <= self.exception_probability <= 1.0:
            raise SimulationError(
                "exception_probability must be in [0, 1], "
                f"got {self.exception_probability!r}"
            )
        if self.alternative_time <= 0:
            raise SimulationError(
                f"alternative_time must be positive, got {self.alternative_time!r}"
            )
        if self.runs < 1:
            raise SimulationError(f"runs must be >= 1, got {self.runs!r}")

    # -- derived quantities -----------------------------------------------------

    @property
    def failure_rate(self) -> float:
        """λ = 1/MTTF (0 when failures are disabled)."""
        return 0.0 if math.isinf(self.mttf) else 1.0 / self.mttf

    @property
    def segment_length(self) -> float:
        """a = F/K, the uninterrupted time between checkpoints."""
        return self.failure_free_time / self.checkpoints

    # -- sweeps ----------------------------------------------------------------------

    def with_mttf(self, mttf: float) -> "SimulationParams":
        return replace(self, mttf=mttf)

    def with_downtime(self, downtime: float) -> "SimulationParams":
        return replace(self, downtime=downtime)

    def with_runs(self, runs: int) -> "SimulationParams":
        return replace(self, runs=runs)


#: Figures 10–12 configuration: F=30, K=20, C=R=0.5, N=3, D=0.
PAPER_BASELINE = SimulationParams()

#: The MTTF axis of Figures 8 and 10–12.
PAPER_MTTF_SWEEP = tuple(range(10, 101, 10))

#: Figure 11's downtime panels: 0, F, 5F, 10F.
PAPER_DOWNTIMES = (0.0, 30.0, 150.0, 300.0)
