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

:func:`sample_technique` is the one entry point: it returns the full
vector of per-run completion times so callers can compute any statistic
(the figures use the mean).

What a call holds is O(runs) values plus the draws it keeps, never a
(runs, K) matrix: the K-wide kernels (checkpointing, alone or replicated,
and Figure 13's three) draw their per-run × per-segment values a row
block of ``_BLOCK_DRAWS`` at a time (:func:`_row_blocks`) and reduce each
block before drawing the next.  A ``Generator`` fills in C order, so the
blocks are the same numbers in the same order as one call over every row
and the vectors do not depend on the block size.  Only checkpointing's
per-failure charges are kept whole, since every uniform is drawn before
any downtime.

:data:`TECHNIQUES` stays the paper's four (Figure 10 sweeps depend on it);
:data:`EXTENDED_TECHNIQUES` appends ``backoff_retry``.  Neither lists
Figure 13's three, which :func:`sample_technique` accepts by name.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

import numpy as np

from ..core.policy import FailurePolicy
from ..errors import SimulationError
from .params import SimulationParams

__all__ = [
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

#: Technique → RNG salt.  A sampler's own stream is
#: ``spawn_key=(salt,)`` (picked by :func:`sample_technique`); the adaptive
#: pipeline's batches use ``spawn_key=(salt, batch_index)`` and therefore
#: never collide with it.
_SALTS = {
    "retrying": 1,
    "checkpointing": 2,
    "replication": 3,
    "replication_checkpointing": 4,
    "backoff_retry": 5,
    "exception_retrying": 6,
    "exception_checkpointing": 7,
    "alternative_task": 8,
}

_MAX_ROUNDS = 10_000_000  # runaway guard for pathological λF

#: Values a K-wide kernel draws per row block (:func:`_row_blocks`):
#: 1 024 rows at the paper's K = 20.  EXPERIMENTS.md § "What a sampler
#: kernel holds" has the measured table it was chosen from.
_BLOCK_DRAWS = 20_480


def technique_policy(technique: str, params: SimulationParams) -> FailurePolicy:
    """The task-level policy that encodes *technique* in WPDL terms: what
    :func:`~repro.sim.engine_mc.build_technique_workflow` hands the engine,
    and where the ``backoff_retry`` sampler reads its waits — one schedule
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


def _row_blocks(rng: np.random.Generator, rows: int, width: int):
    """``(start, stop)`` of each block of rows a kernel drawing *width*
    values per row takes from *rng* at once: ``_BLOCK_DRAWS`` values a
    block, so what a kernel holds does not grow with K.

    A ``Generator`` is one sequential stream, so row blocks draw the same
    numbers in the same order as one call over every row.  A duck-typed
    generator (:class:`~repro.sim.adaptive.AntitheticGenerator` mirrors
    within each call) gets every row in one block.
    """
    step = max(1, rows)
    if isinstance(rng, np.random.Generator):
        step = max(1, _BLOCK_DRAWS // width)
    for start in range(0, rows, step):
        yield start, min(start + step, rows)


def _rng(params: SimulationParams, salt: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=params.seed, spawn_key=(salt,))
    )


def _retry(
    params: SimulationParams,
    *,
    rng: np.random.Generator,
    runs: int | None = None,
    technique: str = "retrying",
) -> np.ndarray:
    """Per-run completion times under restart-from-scratch recovery.

    The *n*-th resubmission adds the deterministic wait
    :meth:`FailurePolicy.retry_delay` of *technique*'s own policy — the
    number the engine waits, not a second formula that agrees with it.
    It is 0 for plain retrying (no interval), exponential backoff for
    ``backoff_retry``.
    """
    runs = params.runs if runs is None else runs
    F = params.failure_free_time
    lam = params.failure_rate
    if lam == 0.0:
        return np.full(runs, F)
    policy = technique_policy(technique, params)
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
        failed = ttf < F
        alive = alive[failed]
        if alive.size:
            lost = ttf[failed]  # a copy: summed into in place
            lost += _downtime_draws(params, rng, alive.size)
            # Every run failing in round n waits the same n-th retry delay;
            # lost >= +0.0, so skipping a zero delay changes no bit.
            delay = policy.retry_delay(rounds)
            if delay:
                lost += delay
            total[alive] += lost
    # Each run's lost work, then F: the order the sum was always taken in.
    total += F
    return total


def _checkpointing(
    params: SimulationParams,
    *,
    rng: np.random.Generator,
    runs: int | None = None,
) -> np.ndarray:
    """Per-run completion times under K-checkpoint recovery.

    Sampling strategy (exact, fully vectorised): per run, the number of
    failures in each segment is geometric (each attempt survives the
    segment with probability ``e^{−λa}``); each failure contributes a
    TTF truncated to [0, a), a downtime draw, and the fixed C + R charge;
    each segment contributes a + C on top.  The (runs, K) geometric
    matrix and the downtimes are drawn a row block at a time.
    """
    runs = params.runs if runs is None else runs
    F = params.failure_free_time
    K = params.checkpoints
    C = params.checkpoint_overhead
    R = params.recovery_time
    lam = params.failure_rate
    if lam == 0.0:
        return np.full(runs, F + K * C)
    a = F / K
    p_survive = math.exp(-lam * a)
    blocks = list(_row_blocks(rng, runs, K))
    # rng.geometric counts trials to first success (>= 1); failures = n - 1,
    # summed per run as Σn − K (exact in int64).
    failures_per_run = np.empty(runs, dtype=np.int64)
    for r0, r1 in blocks:
        tries = rng.geometric(p_survive, size=(r1 - r0, K))
        tries.sum(axis=1, out=failures_per_run[r0:r1])
    failures_per_run -= K
    total = np.full(runs, F + K * C, dtype=float)
    n_failures = int(failures_per_run.sum())
    if n_failures:
        # Truncated-exponential lost work, via inverse CDF on [0, a), in
        # the uniforms' own storage: (−u)·q = u·(−q) and −x/λ = x/(−λ) bit
        # for bit.  Every uniform is drawn before any downtime.
        per_failure = rng.random(n_failures)
        np.multiply(per_failure, -(1.0 - p_survive), out=per_failure)
        np.log1p(per_failure, out=per_failure)
        np.divide(per_failure, -lam, out=per_failure)
        # Where each run's slice of the flat failure array starts.
        starts = np.cumsum(failures_per_run)
        starts -= failures_per_run
        for r0, r1 in blocks:
            s0 = int(starts[r0])
            s1 = int(starts[r1 - 1] + failures_per_run[r1 - 1])
            if s0 == s1:
                continue
            own = per_failure[s0:s1]
            own += _downtime_draws(params, rng, s1 - s0)
            own += C
            own += R
            # Sum each run's slice.  The next block's first start closes
            # this block's last slice; the last block has none.  Starts are
            # clipped to the array as the one reduceat over every run
            # clipped them: when the vector ends in zero-failure runs, the
            # last run before them with two or more failures loses its
            # last failure's charge.  The pinned vectors keep that.
            view = per_failure[s0 : s1 + 1]
            index = starts[r0 : r1 + 1] - s0
            np.minimum(index, view.size - 1, out=index)
            sums = np.add.reduceat(view, index)[: r1 - r0]
            # reduceat misbehaves for zero-length slices: patch them to zero.
            total[r0:r1] += np.where(failures_per_run[r0:r1] > 0, sums, 0.0)
    return total


def _min_of_replicas(
    sampler: Callable[..., np.ndarray],
    params: SimulationParams,
    *,
    rng: np.random.Generator,
    runs: int | None = None,
) -> np.ndarray:
    """Min-of-N independent *sampler* processes (each on its own machine):
    replication over retrying or over checkpointing."""
    runs = params.runs if runs is None else runs
    N = params.replicas
    flat = sampler(params, rng=rng, runs=runs * N)
    return flat.reshape(runs, N).min(axis=1)


def _exception_retrying(
    params: SimulationParams,
    *,
    rng: np.random.Generator,
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
    failures = rng.geometric(q, size=runs)
    failures -= 1
    # Where a failed attempt fails: check i with P ∝ (1−p)^{i−1}·p.
    odds = (1.0 - p) ** np.arange(K) * p
    pvals = odds / odds.sum()
    checks = np.arange(1, K + 1)
    out = np.empty(runs)
    for r0, r1 in _row_blocks(rng, runs, K):
        counts = rng.multinomial(failures[r0:r1], pvals)
        out[r0:r1] = params.segment_length * (counts @ checks) + F
    return out


def _exception_checkpointing(
    params: SimulationParams,
    *,
    rng: np.random.Generator,
    runs: int | None = None,
) -> np.ndarray:
    """Per-run completion times when FU resumes from its last checkpoint.

    Each segment is tried until its check passes (geometric, success
    1−p), each try costing a; every passed check writes a checkpoint (C),
    and every retry of segments 2..K resumes from one (R) — exactly what
    :class:`~repro.grid.behaviors.ExceptionProneTask` charges.
    """
    runs = params.runs if runs is None else runs
    p, K = params.exception_probability, params.checkpoints
    C = params.checkpoint_overhead
    if p == 0.0:
        return np.full(runs, params.failure_free_time + K * C)
    out = np.empty(runs)
    for r0, r1 in _row_blocks(rng, runs, K):
        tries = rng.geometric(1.0 - p, size=(r1 - r0, K))
        resumes = (tries[:, 1:] - 1).sum(axis=1)
        out[r0:r1] = (
            tries.sum(axis=1) * params.segment_length
            + K * C
            + resumes * params.recovery_time
        )
    return out


def _alternative_task(
    params: SimulationParams,
    *,
    rng: np.random.Generator,
    runs: int | None = None,
) -> np.ndarray:
    """Per-run completion times with Figure 6's exception handler: FU's
    first failed check (check i at i·a) hands over to SR."""
    runs = params.runs if runs is None else runs
    K = params.checkpoints
    out = np.empty(runs)
    for r0, r1 in _row_blocks(rng, runs, K):
        fails = rng.random((r1 - r0, K)) < params.exception_probability
        first = np.where(fails.any(axis=1), fails.argmax(axis=1) + 1, 0)
        out[r0:r1] = np.where(
            first == 0,
            params.failure_free_time,
            first * params.segment_length + params.alternative_time,
        )
    return out


_SAMPLERS = {
    "retrying": _retry,
    "checkpointing": _checkpointing,
    "replication": partial(_min_of_replicas, _retry),
    "replication_checkpointing": partial(_min_of_replicas, _checkpointing),
    "backoff_retry": partial(_retry, technique="backoff_retry"),
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
    if rng is None:
        rng = _rng(params, _SALTS[technique])
    return _SAMPLERS[technique](params, rng=rng, runs=runs)
