"""Vectorised Monte-Carlo samplers for the recovery techniques.

These reproduce the paper's standalone completion-time simulation
(Section 8.1) with NumPy-vectorised sampling — 100 000 runs per point, the
count the paper found sufficient, complete in milliseconds.

Per-technique semantics (exactly the assumptions behind the analytical
models of :mod:`repro.sim.analytical`, so Figures 8–9's validation holds):

* **Retrying** — the task needs F uninterrupted time units; failures arrive
  Poisson(λ); each failure costs the work done so far plus an exponential
  downtime of mean D; restart from scratch.
* **Checkpointing** — F splits into K segments of a = F/K; each completed
  segment pays the checkpoint overhead C; a failure within a segment costs
  the truncated work, the (lost) checkpoint C, the recovery R and the
  downtime D, then the segment restarts.  Failures during the checkpoint
  write itself are folded into the per-failure C charge (Duda's model).
* **Replication** — N independent retry processes on distinct machines; the
  task completes when the first replica does (min of N samples).
* **Replication w/ checkpointing** — min of N independent checkpointing
  processes.
* **Backoff retrying** — retrying, but the *n*-th resubmission waits
  ``retry_interval * backoff_factor**(n-1)`` (capped at
  ``max_retry_interval``) before starting.  Failures are memoryless, so
  the wait never changes an attempt's success probability — it is pure
  additive idle time, read off the very policy the engine retries under
  (:func:`technique_policy`).

Figure 13's workflow-level strategies (Section 8.2) are techniques too.
FU runs F in K segments of a, each ending in a check that raises its
user-defined exception with probability p; there are no host failures.

* **Exception retrying** — FU masks the exception like a crash and
  restarts from scratch until every check passes.
* **Exception checkpointing** — FU checkpoints (cost C) after every passed
  check and resumes from the last one (cost R) after an exception.
* **Alternative task** — the handler of Figure 6: the first exception
  abandons FU and SR runs instead.

Every sampler returns the full vector of per-run completion times so
callers can compute any statistic (the figures use the mean).

:data:`TECHNIQUES` stays the paper's four (Figure 10 sweeps depend on it);
:data:`EXTENDED_TECHNIQUES` appends ``backoff_retry``.  Neither lists
Figure 13's three, which :func:`sample_technique` accepts by name.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.policy import FailurePolicy
from ..errors import SimulationError
from .params import SimulationParams

__all__ = [
    "sample_retry",
    "sample_backoff_retry",
    "sample_checkpointing",
    "sample_replication",
    "sample_replication_checkpointing",
    "sample_technique",
    "technique_policy",
    "TECHNIQUES",
    "EXTENDED_TECHNIQUES",
    "SAMPLERS_VERSION",
]

#: Version tag of the sampling semantics, part of every
#: :mod:`repro.sim.cache` key.  Bump whenever *any* change alters the draw
#: sequence of a sampler or of the engine-level path (RNG layout, event
#: ordering, technique semantics) — every cached vector then goes stale at
#: once instead of silently serving pre-change samples.
SAMPLERS_VERSION = 1

#: Public technique names, in the paper's Figure 10 order.
TECHNIQUES = (
    "retrying",
    "checkpointing",
    "replication",
    "replication_checkpointing",
)

#: The paper's four plus this repo's backoff-retry extension.
EXTENDED_TECHNIQUES = TECHNIQUES + ("backoff_retry",)

#: Figure 13's strategies, in its legend's order.
_EXCEPTION_TECHNIQUES = (
    "exception_retrying",
    "exception_checkpointing",
    "alternative_task",
)

_MAX_ROUNDS = 10_000_000  # runaway guard for pathological λF


def technique_policy(technique: str, params: SimulationParams) -> FailurePolicy:
    """The task-level policy that encodes *technique* in WPDL terms: what
    :func:`~repro.sim.engine_mc.build_technique_workflow` hands the engine,
    and where :func:`sample_backoff_retry` reads its waits — one schedule
    for both by construction.  Checkpointing needs no attribute (a task
    announces itself, Section 4.3), so it shares retrying's policy.
    Figure 13's masking strategies retry FU's exception as if it were a
    crash; the alternative task leaves it to the workflow level."""
    if technique.startswith("exception_"):
        return FailurePolicy(max_tries=None, retry_on_exception=True)
    if technique == "alternative_task":
        return FailurePolicy()
    if technique.startswith("replication"):
        return FailurePolicy.replica(max_tries=None)
    if technique == "backoff_retry":
        return FailurePolicy.backoff_retrying(
            None,
            interval=params.retry_interval,
            backoff_factor=params.backoff_factor,
            max_interval=params.max_retry_interval,
        )
    return FailurePolicy.retrying(None)


def _downtime_draws(
    params: SimulationParams, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Per-failure repair times under the configured distribution.

    Always an ndarray of length *size* — the degenerate distributions
    (``downtime == 0`` and ``"fixed"``) used to return bare scalars, which
    broadcast identically in the samplers but broke any caller indexing or
    concatenating the draws.  Neither degenerate branch consumes RNG state,
    so the draw sequence (and every sample vector) is unchanged.
    """
    if params.downtime == 0:
        return np.zeros(size)
    if params.downtime_distribution == "fixed":
        return np.full(size, params.downtime)
    return rng.exponential(params.downtime, size=size)


def _rng(params: SimulationParams, salt: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=params.seed, spawn_key=(salt,))
    )


def sample_retry(
    params: SimulationParams,
    *,
    rng: np.random.Generator | None = None,
    runs: int | None = None,
) -> np.ndarray:
    """Per-run completion times under restart-from-scratch recovery."""
    runs = params.runs if runs is None else runs
    rng = rng if rng is not None else _rng(params, 1)
    F = params.failure_free_time
    lam = params.failure_rate
    if lam == 0.0:
        return np.full(runs, F)
    total = np.zeros(runs)
    alive = np.arange(runs)
    mttf = 1.0 / lam
    rounds = 0
    while alive.size:
        rounds += 1
        if rounds > _MAX_ROUNDS:  # pragma: no cover - parameter sanity guard
            raise SimulationError(
                f"retry sampling did not converge (λF = {lam * F:.3f})"
            )
        ttf = rng.exponential(mttf, size=alive.size)
        succeeded = ttf >= F
        total[alive[succeeded]] += F
        failed = alive[~succeeded]
        if failed.size:
            lost = ttf[~succeeded]
            down = _downtime_draws(params, rng, failed.size)
            total[failed] += lost + down
        alive = failed
    return total


def sample_backoff_retry(
    params: SimulationParams,
    *,
    rng: np.random.Generator | None = None,
    runs: int | None = None,
) -> np.ndarray:
    """Per-run completion times under restart-from-scratch recovery with
    exponential backoff between resubmissions.

    Identical to :func:`sample_retry` except that the *n*-th resubmission
    adds the deterministic wait :meth:`FailurePolicy.retry_delay` of the
    technique's own policy — the number the engine waits, not a second
    formula that agrees with it.
    """
    runs = params.runs if runs is None else runs
    rng = rng if rng is not None else _rng(params, 5)
    F = params.failure_free_time
    lam = params.failure_rate
    if lam == 0.0:
        return np.full(runs, F)
    policy = technique_policy("backoff_retry", params)
    total = np.zeros(runs)
    alive = np.arange(runs)
    mttf = 1.0 / lam
    rounds = 0
    while alive.size:
        rounds += 1
        if rounds > _MAX_ROUNDS:  # pragma: no cover - parameter sanity guard
            raise SimulationError(
                f"backoff retry sampling did not converge (λF = {lam * F:.3f})"
            )
        ttf = rng.exponential(mttf, size=alive.size)
        succeeded = ttf >= F
        total[alive[succeeded]] += F
        failed = alive[~succeeded]
        if failed.size:
            lost = ttf[~succeeded]
            down = _downtime_draws(params, rng, failed.size)
            # Every run failing in round n waits the same n-th retry delay.
            total[failed] += lost + down + policy.retry_delay(rounds)
        alive = failed
    return total


def sample_checkpointing(
    params: SimulationParams,
    *,
    rng: np.random.Generator | None = None,
    runs: int | None = None,
) -> np.ndarray:
    """Per-run completion times under K-checkpoint recovery.

    Sampling strategy (exact, fully vectorised): per run, the number of
    failures in each segment is geometric (each attempt survives the
    segment with probability ``e^{−λa}``); each failure contributes a
    TTF truncated to [0, a), a downtime draw, and the fixed C + R charge;
    each segment contributes a + C on top.
    """
    runs = params.runs if runs is None else runs
    rng = rng if rng is not None else _rng(params, 2)
    F = params.failure_free_time
    K = params.checkpoints
    C = params.checkpoint_overhead
    R = params.recovery_time
    lam = params.failure_rate
    if lam == 0.0:
        return np.full(runs, F + K * C)
    a = F / K
    p_survive = math.exp(-lam * a)
    # rng.geometric counts trials to first success (>= 1); failures = n - 1.
    failures_per_segment = rng.geometric(p_survive, size=(runs, K)) - 1
    failures_per_run = failures_per_segment.sum(axis=1)
    total = np.full(runs, F + K * C, dtype=float)
    n_failures = int(failures_per_run.sum())
    if n_failures:
        # Truncated-exponential lost work, via inverse CDF on [0, a).
        u = rng.random(n_failures)
        lost = -np.log1p(-u * (1.0 - p_survive)) / lam
        down = _downtime_draws(params, rng, n_failures)
        per_failure = lost + down + C + R
        # Sum each run's slice of the flat failure array.
        boundaries = np.concatenate(([0], np.cumsum(failures_per_run)))
        sums = np.add.reduceat(
            per_failure, boundaries[:-1].clip(max=n_failures - 1)
        )
        # reduceat misbehaves for zero-length slices: patch them to zero.
        lengths = failures_per_run
        sums = np.where(lengths > 0, sums, 0.0)
        total += sums
    return total


def sample_replication(
    params: SimulationParams,
    *,
    rng: np.random.Generator | None = None,
    runs: int | None = None,
) -> np.ndarray:
    """Min-of-N independent retry processes (each on its own machine)."""
    runs = params.runs if runs is None else runs
    rng = rng if rng is not None else _rng(params, 3)
    N = params.replicas
    flat = sample_retry(params, rng=rng, runs=runs * N)
    return flat.reshape(runs, N).min(axis=1)


def sample_replication_checkpointing(
    params: SimulationParams,
    *,
    rng: np.random.Generator | None = None,
    runs: int | None = None,
) -> np.ndarray:
    """Min-of-N independent checkpointing processes."""
    runs = params.runs if runs is None else runs
    rng = rng if rng is not None else _rng(params, 4)
    N = params.replicas
    flat = sample_checkpointing(params, rng=rng, runs=runs * N)
    return flat.reshape(runs, N).min(axis=1)


def _exception_retrying(
    params: SimulationParams,
    *,
    rng: np.random.Generator | None = None,
    runs: int | None = None,
) -> np.ndarray:
    """Per-run completion times when FU restarts from scratch.

    Exact in O(runs × K) for any p < 1: the failed attempts before the
    first success are geometric with success ``q = (1−p)^K``, and given
    their count, where each one failed is categorical, so the time they
    lose is one multinomial draw over the check positions.  (A loop over
    attempts is O(1/q) and intractable beyond p ≈ 0.8.)
    """
    runs = params.runs if runs is None else runs
    rng = rng if rng is not None else _rng(params, 6)
    p, K = params.exception_probability, params.checkpoints
    F = params.failure_free_time
    if p == 0.0:
        return np.full(runs, F)
    q = (1.0 - p) ** K
    if q == 0.0:
        raise SimulationError(
            f"p={p} underflows the success probability; the run would "
            "effectively never complete"
        )
    failures = rng.geometric(q, size=runs) - 1
    # Where a failed attempt fails: check i with P ∝ (1−p)^{i−1}·p.
    odds = (1.0 - p) ** np.arange(K) * p
    counts = rng.multinomial(failures, odds / odds.sum())
    return params.segment_length * (counts @ np.arange(1, K + 1)) + F


def _exception_checkpointing(
    params: SimulationParams,
    *,
    rng: np.random.Generator | None = None,
    runs: int | None = None,
) -> np.ndarray:
    """Per-run completion times when FU resumes from its last checkpoint.

    Each segment is tried until its check passes (geometric, success
    1−p), each try costing a; every passed check writes a checkpoint (C),
    and every retry of segments 2..K resumes from one (R) — exactly what
    :class:`~repro.grid.behaviors.ExceptionProneTask` charges.
    """
    runs = params.runs if runs is None else runs
    rng = rng if rng is not None else _rng(params, 7)
    p, K = params.exception_probability, params.checkpoints
    C = params.checkpoint_overhead
    if p == 0.0:
        return np.full(runs, params.failure_free_time + K * C)
    tries = rng.geometric(1.0 - p, size=(runs, K))
    resumes = (tries[:, 1:] - 1).sum(axis=1)
    return (
        tries.sum(axis=1) * params.segment_length
        + K * C
        + resumes * params.recovery_time
    )


def _alternative_task(
    params: SimulationParams,
    *,
    rng: np.random.Generator | None = None,
    runs: int | None = None,
) -> np.ndarray:
    """Per-run completion times with Figure 6's exception handler: FU's
    first failed check (check i at i·a) hands over to SR."""
    runs = params.runs if runs is None else runs
    rng = rng if rng is not None else _rng(params, 8)
    fails = rng.random((runs, params.checkpoints)) < params.exception_probability
    first = np.where(fails.any(axis=1), fails.argmax(axis=1) + 1, 0)
    return np.where(
        first == 0,
        params.failure_free_time,
        first * params.segment_length + params.alternative_time,
    )


_SAMPLERS = {
    "retrying": sample_retry,
    "checkpointing": sample_checkpointing,
    "replication": sample_replication,
    "replication_checkpointing": sample_replication_checkpointing,
    "backoff_retry": sample_backoff_retry,
    "exception_retrying": _exception_retrying,
    "exception_checkpointing": _exception_checkpointing,
    "alternative_task": _alternative_task,
}


def _without_host_failures(technique: str, params: SimulationParams) -> None:
    """Refuse a Figure-13 cell on failing hosts: its model has none."""
    if technique in _EXCEPTION_TECHNIQUES and params.failure_rate:
        raise SimulationError(
            f"{technique!r} models no host failures: its cells need "
            f"mttf=inf, got {params.mttf!r}"
        )


def _check_cell(technique: str, params: SimulationParams) -> None:
    """Refuse what no sampler or engine run can complete: an unknown
    technique, a Figure-13 cell with host failures, and a masking strategy
    at p = 1 (every attempt raises)."""
    if technique not in _SAMPLERS:
        raise SimulationError(
            f"unknown technique {technique!r}; "
            f"expected one of {tuple(_SAMPLERS)}"
        )
    _without_host_failures(technique, params)
    if technique.startswith("exception_") and params.exception_probability == 1.0:
        raise SimulationError(
            f"{technique!r} never completes at exception_probability=1"
        )


def sample_technique(
    technique: str,
    params: SimulationParams,
    *,
    rng: np.random.Generator | None = None,
    runs: int | None = None,
) -> np.ndarray:
    """Dispatch by technique name (:data:`EXTENDED_TECHNIQUES` and
    Figure 13's three)."""
    _check_cell(technique, params)
    return _SAMPLERS[technique](params, rng=rng, runs=runs)
