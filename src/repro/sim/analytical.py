"""Closed-form expected completion times from the fault-tolerance literature.

The paper validates its simulator against two analytical models (Figures 8
and 9); we implement both, extended with the downtime term D used in the
later experiments:

* **Retrying** (program without checkpointing, Duda [7] / Figure 8)::

      E[T] = (1/λ + D) · (e^{λF} − 1)

  With D = 0 this is the paper's ``(e^{λF} − 1)/λ``.  Derivation: a run
  succeeds iff no failure arrives within F (probability ``e^{−λF}``); the
  expected number of failures before success is ``e^{λF} − 1``, each
  costing the truncated time-to-failure plus downtime, and the expected
  *total* working time (truncated failures + the final full run) telescopes
  to ``(e^{λF} − 1)/λ``.

* **Checkpointing** (program with K checkpoints, Duda [7] / Plank [23] /
  Figure 9)::

      E[T] = (F/a) · (C + (C + R + D + 1/λ) · (e^{λa} − 1)),   a = F/K

  Each of the K segments pays its checkpoint write C; each failure within a
  segment costs the lost work (truncated TTF), the downtime D, the recovery
  R, *and* the segment's (lost) checkpoint overhead C — the accounting that
  reproduces the paper's Figure 9 curve exactly.  As λ→0 the expression
  tends to F + K·C, the failure-free cost of checkpointing.

No closed form is used for replication (the min of N dependent-on-nothing
retry processes); the Monte-Carlo samplers cover it.

Figure 13's strategies (FU's K checks, one every a, each failing with
probability p; ``q = (1−p)^K`` is the chance that an attempt passes them
all, and ``L = Σᵢ i·a·(1−p)^{i−1}·p`` the time an attempt spends before its
first failed check, zero when none fails)::

    exception_retrying       E[T] = L/q + F
    exception_checkpointing  E[T] = (F + (K−1)·p·R)/(1−p) + K·C
    alternative_task         E[T] = L + (1−q)·SR + q·F

Both masking strategies diverge as p → 1 (retrying faster); the handler is
bounded by a + SR, which it reaches at p = 1 (156 in the paper).
"""

from __future__ import annotations

import math

from ..errors import SimulationError
from .params import SimulationParams
from .samplers import _EXCEPTION_TECHNIQUES, _without_host_failures

__all__ = [
    "retry_expected_time",
    "checkpoint_expected_time",
    "expected_time",
    "optimal_checkpoint_count",
    "young_interval",
]


def retry_expected_time(
    failure_free_time: float,
    failure_rate: float,
    *,
    downtime: float = 0.0,
) -> float:
    """E[T] for restart-from-scratch recovery."""
    _check(failure_free_time, failure_rate, downtime)
    if failure_rate == 0.0:
        return failure_free_time
    lam = failure_rate
    growth = math.expm1(lam * failure_free_time)  # e^{λF} − 1, accurately
    return (1.0 / lam + downtime) * growth


def checkpoint_expected_time(
    failure_free_time: float,
    failure_rate: float,
    *,
    checkpoint_overhead: float,
    recovery_time: float,
    checkpoints: int,
    downtime: float = 0.0,
) -> float:
    """E[T] for equidistant-checkpoint recovery (K segments of a = F/K)."""
    _check(failure_free_time, failure_rate, downtime)
    if checkpoints < 1:
        raise SimulationError(f"checkpoints must be >= 1, got {checkpoints!r}")
    if checkpoint_overhead < 0 or recovery_time < 0:
        raise SimulationError("C and R must be >= 0")
    segment = failure_free_time / checkpoints
    if failure_rate == 0.0:
        return failure_free_time + checkpoints * checkpoint_overhead
    lam = failure_rate
    growth = math.expm1(lam * segment)
    per_segment = checkpoint_overhead + (
        checkpoint_overhead + recovery_time + downtime + 1.0 / lam
    ) * growth
    return checkpoints * per_segment


def _exception_expected_time(params: SimulationParams, technique: str) -> float:
    """E[T] of one of Figure 13's strategies (see the module docstring)."""
    _without_host_failures(technique, params)
    p, K, a = params.exception_probability, params.checkpoints, params.segment_length
    F = params.failure_free_time
    q = (1.0 - p) ** K
    lost = sum(i * a * (1.0 - p) ** (i - 1) * p for i in range(1, K + 1))
    if technique == "alternative_task":
        return lost + (1.0 - q) * params.alternative_time + q * F
    if technique == "exception_retrying":
        # q underflows to 0 before p reaches 1: it never completes either.
        return math.inf if q == 0.0 else lost / q + F
    if p == 1.0:
        return math.inf
    resumes = (K - 1) * p * params.recovery_time
    return (F + resumes) / (1.0 - p) + K * params.checkpoint_overhead


def expected_time(params: SimulationParams, technique: str) -> float:
    """Analytical E[T] for *technique*: 'retrying', 'checkpointing' or one
    of Figure 13's three."""
    if technique in _EXCEPTION_TECHNIQUES:
        return _exception_expected_time(params, technique)
    if technique == "retrying":
        return retry_expected_time(
            params.failure_free_time,
            params.failure_rate,
            downtime=params.downtime,
        )
    if technique == "checkpointing":
        return checkpoint_expected_time(
            params.failure_free_time,
            params.failure_rate,
            checkpoint_overhead=params.checkpoint_overhead,
            recovery_time=params.recovery_time,
            checkpoints=params.checkpoints,
            downtime=params.downtime,
        )
    raise SimulationError(
        f"no analytical model for technique {technique!r} "
        "(replication has no closed form; use the samplers)"
    )


def optimal_checkpoint_count(
    params: SimulationParams, *, search_up_to: int = 200
) -> int:
    """K minimising the analytical checkpointing E[T] (used by the
    checkpoint-interval ablation).  Brute force over [1, search_up_to] —
    the objective is unimodal in K, but brute force is cheap and obvious."""
    best_k, best_t = 1, math.inf
    for k in range(1, search_up_to + 1):
        t = checkpoint_expected_time(
            params.failure_free_time,
            params.failure_rate,
            checkpoint_overhead=params.checkpoint_overhead,
            recovery_time=params.recovery_time,
            checkpoints=k,
            downtime=params.downtime,
        )
        if t < best_t:
            best_k, best_t = k, t
    return best_k


def young_interval(checkpoint_overhead: float, failure_rate: float) -> float:
    """Young's classic first-order optimum for the checkpoint interval.

    Young (1974) showed that for small λ·a the expected-time-optimal
    interval between checkpoints is approximately ``a* = sqrt(2C/λ)``.
    The checkpoint-interval ablation uses this as an independent check on
    the brute-force optimum from :func:`optimal_checkpoint_count`: the two
    should agree whenever λ·a* ≪ 1 (reliable regime) and diverge as the
    failure rate grows and the first-order expansion breaks down.
    """
    if checkpoint_overhead <= 0:
        raise SimulationError(
            f"checkpoint_overhead must be positive, got {checkpoint_overhead!r}"
        )
    if failure_rate <= 0:
        raise SimulationError(
            f"failure_rate must be positive, got {failure_rate!r}"
        )
    return math.sqrt(2.0 * checkpoint_overhead / failure_rate)


def _check(failure_free_time: float, failure_rate: float, downtime: float) -> None:
    if failure_free_time <= 0:
        raise SimulationError(
            f"failure_free_time must be positive, got {failure_free_time!r}"
        )
    if failure_rate < 0:
        raise SimulationError(f"failure_rate must be >= 0, got {failure_rate!r}")
    if downtime < 0:
        raise SimulationError(f"downtime must be >= 0, got {downtime!r}")
