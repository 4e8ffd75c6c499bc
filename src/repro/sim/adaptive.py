"""The sampling pipeline: adaptive, variance-reduced Monte-Carlo.

Every estimate in :mod:`repro.sim` is one call of :func:`estimate_cells`
— **plan** (per cell: draw source, RNG streams, batch schedule, cache
key), **execute** (one round loop holding the only cache lookup/store
site and the only pool fan-out), **summarise** (one
:class:`CellEstimate` per cell).  :func:`evaluate_grid`,
:func:`adaptive_samples`, :func:`~repro.sim.runner.sweep_mttf`,
:func:`~repro.sim.runner.sweep` and
:func:`~repro.sim.engine_mc.engine_samples` only build the cell list and
reshape the result.

The paper's standard experiment (E[T] vs MTTF per technique, Figures
10–12) spends an identical fixed run budget on every (technique, MTTF,
downtime) cell even though the confidence-interval width varies by orders
of magnitude across the grid: checkpointing at MTTF = 100 is almost
deterministic while plain retrying at MTTF = 10 is heavy-tailed.  A fixed
budget is the pipeline's one-batch schedule; the rest of this module
draws *fewer, smarter* samples:

CI-targeted adaptive stopping
    :class:`CITarget` declares the precision a cell must reach — a
    relative (``rel``) and/or absolute (``abs``) CI half-width — bounded
    by ``min_runs``/``max_runs``.  Cells are sampled in geometric batches
    (``growth`` ×, starting at ``min_runs``) and stop as soon as the
    estimate meets the target, so easy cells cost ``min_runs`` draws
    while only the hardest cells spend the full budget.

Antithetic variates
    :class:`AntitheticGenerator` duck-types the ``Generator`` methods the
    samplers consume (``exponential``/``geometric``/``random``) but
    produces each draw block as *m* fresh uniforms followed by their
    mirrors ``1 − u``, pushed through the inverse CDF.  Every marginal
    draw is exact, so the estimator is unbiased; paired runs are
    negatively correlated, so the pair-mean estimator
    (:func:`pair_means`) has lower variance than i.i.d. sampling and the
    CI target is reached with fewer raw draws.  The delivered
    :class:`~repro.sim.stats.Summary` carries the correlation-aware CI
    and the effective sample size ``ess = Var(x)·n_pairs/Var(pairs)``.

Common random numbers (CRN)
    :class:`CRNGenerator` replays one technique-wide
    :class:`UniformPool` from position zero for every MTTF point,
    scaling through the inverse CDF.  Per-point estimates are unchanged
    in distribution, but *differences* between points — curve shapes and
    :func:`~repro.sim.runner.crossover` estimates — are computed on
    positively correlated noise and are far more stable across the grid.

Everything here is opt-in: with ``variance_reduction=None`` and no CI
target a cell's vector is exactly
:func:`~repro.sim.samplers.sample_technique`'s.  Batch streams
(:func:`_sampler_batch`) and cache keys (:meth:`_CellPlan.cache_key`) are
pure functions of the plan, so estimates are deterministic in their
inputs, independent of the worker count, and cacheable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError
from .cache import SampleCache, resolve_cache
from .parallel import (
    DEFAULT_RUN_TIMEOUT,
    _engine_shard,
    pool_map,
    resolve_jobs,
    shard_bounds,
)
from .params import SimulationParams
from .samplers import (
    _EXCEPTION_TECHNIQUES,
    TECHNIQUES,
    _check_cell,
    sample_technique,
)
from .stats import Summary, summarize, z_value

__all__ = [
    "CITarget",
    "CellEstimate",
    "GridEvaluation",
    "AntitheticGenerator",
    "CRNGenerator",
    "UniformPool",
    "VR_MODES",
    "adaptive_samples",
    "estimate_cells",
    "evaluate_grid",
    "pair_means",
    "resolve_variance_reduction",
]

#: Accepted ``variance_reduction=`` spellings.
VR_MODES = (None, "antithetic", "crn")

#: Technique → RNG salt, matching the single-shot streams hardcoded in
#: :mod:`repro.sim.samplers` (``spawn_key=(salt,)``); adaptive batches use
#: ``spawn_key=(salt, batch_index)`` and therefore never collide.
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

#: Spawn-key tail marking the CRN uniform pool's stream (prime, far from
#: any batch index a realistic schedule reaches).
_CRN_STREAM = 104_729

#: Uniforms drawn per pool extension (amortises generator calls).
_POOL_BLOCK = 1 << 16

#: One below the largest double < 1, the top of ``random``'s [0, 1) range.
_ALMOST_ONE = np.nextafter(1.0, 0.0)


def resolve_variance_reduction(mode: str | None) -> str | None:
    """Normalise a ``variance_reduction=`` argument (None/"antithetic"/
    "crn"; the CLI's ``--antithetic``/``--crn`` map onto it)."""
    if mode is not None and mode not in VR_MODES:
        raise SimulationError(
            f"variance_reduction must be one of {VR_MODES}, got {mode!r}"
        )
    return mode


@dataclass(frozen=True)
class CITarget:
    """Precision contract for one Monte-Carlo estimate.

    Sampling stops at the first geometric batch boundary where the CI
    half-width is at or below ``rel * |mean|`` (when ``rel`` is set) or
    ``abs`` (when set; either criterion suffices), never before
    ``min_runs`` draws and never beyond ``max_runs``.
    """

    #: Relative CI half-width target (half-width / |mean|).
    rel: float | None = 0.01
    #: Absolute CI half-width target (same units as the samples).
    abs: float | None = None
    confidence: float = 0.99
    min_runs: int = 1_000
    max_runs: int = 200_000
    #: Geometric batch growth: after *n* total draws the next batch brings
    #: the total to ``ceil(n * growth)`` (capped at ``max_runs``).
    growth: float = 2.0

    def __post_init__(self) -> None:
        if self.rel is None and self.abs is None:
            raise SimulationError("CITarget needs rel and/or abs set")
        if self.rel is not None and self.rel <= 0:
            raise SimulationError(f"rel must be positive, got {self.rel!r}")
        if self.abs is not None and self.abs <= 0:
            raise SimulationError(f"abs must be positive, got {self.abs!r}")
        if self.min_runs < 2:
            raise SimulationError(
                f"min_runs must be >= 2, got {self.min_runs!r}"
            )
        if self.max_runs < self.min_runs:
            raise SimulationError(
                f"max_runs ({self.max_runs!r}) must be >= min_runs "
                f"({self.min_runs!r})"
            )
        if self.growth <= 1.0:
            raise SimulationError(f"growth must be > 1, got {self.growth!r}")
        z_value(self.confidence)  # validate eagerly

    @classmethod
    def of(cls, value: "CITarget | float | None") -> "CITarget | None":
        """Normalise a ``target_ci=`` argument: ``None`` stays ``None``, a
        bare number is a relative half-width target with the default
        bounds, a :class:`CITarget` passes through."""
        if value is None or isinstance(value, CITarget):
            return value
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return cls(rel=float(value))
        raise SimulationError(
            f"target_ci must be a CITarget, a number or None, "
            f"got {type(value).__name__}"
        )

    def threshold(self, mean: float) -> float:
        """The half-width this estimate must reach, given its mean."""
        candidates = []
        if self.rel is not None:
            candidates.append(self.rel * abs(mean))
        if self.abs is not None:
            candidates.append(self.abs)
        return max(candidates)

    def met(self, summary: Summary) -> bool:
        if summary.ci_halfwidth == 0.0:
            return True
        return summary.ci_halfwidth <= self.threshold(summary.mean)

    def batch_sizes(self) -> list[int]:
        """The geometric batch schedule up to ``max_runs``."""
        return list(self.boundaries_for(self.max_runs))

    def cache_spec(self) -> dict:
        """The fields a CI-targeted cache key covers — deliberately not
        ``max_runs``, so a stored vector that meets the target is a hit
        whatever budget the caller brings."""
        return {
            "rel": self.rel,
            "abs": self.abs,
            "confidence": self.confidence,
            "min_runs": self.min_runs,
            "growth": self.growth,
        }

    def boundaries_for(self, n: int) -> tuple[int, ...]:
        """Reconstruct the batch sizes that produced an *n*-draw vector.

        The schedule depends only on ``min_runs``/``growth`` (both part of
        the cache key); a stored vector's final batch may have been
        truncated at *its* ``max_runs``, which the replay reproduces by
        capping at *n*.
        """
        sizes: list[int] = []
        total = 0
        while total < n:
            nxt = (
                self.min_runs
                if total == 0
                else math.ceil(total * self.growth)
            )
            nxt = min(nxt, n)
            sizes.append(nxt - total)
            total = nxt
        return tuple(sizes)


# -- variance-reduction kernels ------------------------------------------------


def _inverse_geometric(u: np.ndarray, p: float) -> np.ndarray:
    """Inverse-CDF geometric (trials to first success, >= 1), matching
    ``Generator.geometric``'s support."""
    if p >= 1.0:
        return np.ones(u.shape, dtype=np.int64)
    return (np.floor(np.log1p(-u) / math.log1p(-p)) + 1).astype(np.int64)


class _InverseCDFGenerator:
    """Duck-types the ``Generator`` methods the samplers consume
    (``exponential``/``geometric``/``random``) by pushing the subclass's
    uniforms (:meth:`_uniforms`, *n* of them, possibly a view of shared
    storage) through the inverse CDF.  Marginally every draw is exact, so
    any sampler consuming such a generator stays unbiased."""

    def _uniforms(self, n: int) -> np.ndarray:
        raise NotImplementedError

    def _draw(self, size, transform=None) -> np.ndarray:
        """*size* follows numpy: ``None`` a scalar, an int, or a shape."""
        shape = size if isinstance(size, tuple) else ()
        count = int(np.prod(shape, dtype=np.int64)) if shape else int(size or 1)
        values = self._uniforms(count)
        values = values.copy() if transform is None else transform(values)
        if shape:
            return values.reshape(shape)
        return values[0] if size is None else values

    def exponential(self, scale: float = 1.0, size=None) -> np.ndarray:
        return self._draw(size, lambda u: -scale * np.log1p(-u))

    def geometric(self, p: float, size=None) -> np.ndarray:
        return self._draw(size, lambda u: _inverse_geometric(u, p))

    def random(self, size=None) -> np.ndarray:
        return self._draw(size)


class AntitheticGenerator(_InverseCDFGenerator):
    """Antithetic uniform blocks.

    Each draw of *n* values consumes ``ceil(n/2)`` fresh uniforms ``u``
    and appends their mirrors ``1 − u`` (the antithetic second half), then
    applies the requested inverse CDF.  Run *i* of a batch therefore
    pairs with run ``i + ceil(n/2)`` on mirrored noise — the pairing
    :func:`pair_means` exploits.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def _uniforms(self, n: int) -> np.ndarray:
        fresh = (n + 1) // 2
        u = self._rng.random(fresh)
        out = np.concatenate([u, 1.0 - u[: n - fresh]])
        # 1 - 0.0 == 1.0 falls outside random()'s [0, 1) contract; clip
        # rather than bias every transform with an epsilon.
        return np.minimum(out, _ALMOST_ONE, out=out)


class UniformPool:
    """Lazily-extended pool of uniforms shared by every MTTF point of a
    technique under CRN.  Deterministic in its seed: position *i* always
    holds the same uniform, so any two consumers reading from position 0
    see identical noise regardless of how far the other has read."""

    def __init__(self, seed_seq: np.random.SeedSequence) -> None:
        self._rng = np.random.default_rng(seed_seq)
        self._data = np.empty(0)

    @property
    def size(self) -> int:
        return self._data.size

    def take(self, start: int, n: int) -> np.ndarray:
        needed = start + n - self._data.size
        if needed > 0:
            block = self._rng.random(max(needed, _POOL_BLOCK))
            self._data = np.concatenate([self._data, block])
        return self._data[start : start + n]


class CRNGenerator(_InverseCDFGenerator):
    """Replays a shared :class:`UniformPool`.

    Each point of a sweep gets its own cursor starting at 0, so all
    points consume the *same* uniform sequence in call order and differ
    only through the inverse-CDF parameters — positively correlating the
    resulting curves and stabilising their differences.
    """

    def __init__(self, pool: UniformPool) -> None:
        self._pool = pool
        self.cursor = 0

    def _uniforms(self, n: int) -> np.ndarray:
        u = self._pool.take(self.cursor, n)
        self.cursor += n
        return u


def pair_means(samples: np.ndarray) -> np.ndarray:
    """Antithetic pair-mean vector of one batch.

    Pairs element *i* with ``i + ceil(n/2)`` — the mirror layout of
    :class:`AntitheticGenerator` — and keeps an odd batch's unpaired
    middle element as its own singleton, preserving the sample mean
    exactly.
    """
    n = samples.size
    fresh = (n + 1) // 2
    pairs = n - fresh
    out = (samples[:pairs] + samples[fresh:]) / 2.0
    if fresh > pairs:
        out = np.concatenate([out, samples[pairs:fresh]])
    return out


def _vr_summary(
    samples: np.ndarray,
    boundaries: tuple[int, ...],
    mode: str | None,
    confidence: float,
) -> Summary:
    """Variance-reduction-aware summary of a (possibly batched) vector.

    Plain and CRN draws are i.i.d. within a point, so the ordinary
    normal-approximation summary applies.  Antithetic draws are
    negatively correlated in pairs; the estimator is summarised over the
    per-batch pair means, which restores (approximate) independence and
    credits the cancellation to the CI — with the effective sample size
    reporting how many i.i.d. draws the correlation was worth.
    """
    if mode != "antithetic":
        return summarize(samples, confidence=confidence)
    z = z_value(confidence)
    # *boundaries* partition the vector: _CellPlan.estimate derives them
    # from its size.
    batches = np.split(samples, np.cumsum(boundaries)[:-1])
    pm = np.concatenate([pair_means(batch) for batch in batches])
    var_pm = float(pm.var(ddof=1)) if pm.size > 1 else 0.0
    half = z * math.sqrt(var_pm / pm.size) if pm.size > 0 else 0.0
    var_raw = float(samples.var(ddof=1)) if samples.size > 1 else 0.0
    if var_pm > 0.0:
        ess = var_raw * pm.size / var_pm
    else:
        ess = float(samples.size)
    return summarize(samples, confidence=confidence, ci_halfwidth=half, ess=ess)


# -- the sampling pipeline: plan → execute → summarise --------------------------


@dataclass(frozen=True, eq=False)
class CellEstimate:
    """One (technique, params) cell's estimate."""

    technique: str
    params: SimulationParams
    #: Raw per-run completion times actually drawn (or loaded).
    samples: np.ndarray
    #: Variance-reduction-aware summary (CI, effective sample size).
    summary: Summary
    #: Batch sizes in draw order (reconstructs antithetic pairing).
    boundaries: tuple[int, ...]
    #: Whether the CI target was met (False means max_runs exhausted;
    #: always True for a fixed budget).
    converged: bool
    #: Served from the content-addressed cache without drawing.
    cached: bool = False


def _batch_rng(
    params: SimulationParams, technique: str, batch: int
) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(
            entropy=params.seed, spawn_key=(_SALTS[technique], batch)
        )
    )


def _crn_pool(params: SimulationParams, technique: str) -> UniformPool:
    """The technique's CRN pool — seeded independently of MTTF (every
    sweep point shares it) and of any batch stream."""
    return UniformPool(
        np.random.SeedSequence(
            entropy=params.seed, spawn_key=(_SALTS[technique], _CRN_STREAM)
        )
    )


def _sampler_batch(
    technique: str,
    params: SimulationParams,
    mode: str | None,
    batch: int | None,
    size: int,
    crn: CRNGenerator | None,
) -> tuple[np.ndarray, None]:
    """Worker body: one batch of one vectorised-sampler cell.

    The RNG stream is a pure function of the arguments — ``batch=None`` is
    the sampler's own single-shot stream (``spawn_key=(salt,)``), batch
    *b* is ``spawn_key=(salt, b)``, mirrored under ``"antithetic"`` — so
    the batch may be drawn on any worker.  The exception is CRN, whose
    generator (*crn*) carries its pool cursor from batch to batch and
    therefore never leaves the parent process.
    """
    if crn is not None:
        rng = crn
    elif batch is None:
        rng = None
    else:
        rng = _batch_rng(params, technique, batch)
        if mode == "antithetic":
            rng = AntitheticGenerator(rng)
    return sample_technique(technique, params, rng=rng, runs=size), None


@dataclass(frozen=True)
class _CellPlan:
    """Everything that decides one cell's sample vector, fixed before the
    first draw: draw source, RNG streams, batch schedule, cache key and
    stopping rule.  :func:`estimate_cells` builds one per cell and is the
    only consumer."""

    technique: str
    params: SimulationParams
    #: The fixed budget — the one-batch schedule ``[runs]``; unused under
    #: a CI target, whose :meth:`CITarget.batch_sizes` replace it.
    runs: int
    target: CITarget | None
    mode: str | None
    #: ``(base_seed, timeout)`` of an engine cell (run *i* is seeded
    #: :func:`~repro.sim.parallel.seed_for` ``(base_seed, i)``); ``None``
    #: draws from the vectorised sampler.
    engine: tuple[int, float] | None

    def cache_key(self, store: SampleCache) -> str:
        """The cell's content address.

        Kinds: ``"sampler"`` (plain fixed budget — the single-shot
        stream), ``"adaptive"`` (any VR mode and/or CI target — the batch
        streams), ``"engine"`` / ``"engine-adaptive"``.  Under a CI target
        the key is budget-independent: it covers
        :meth:`CITarget.cache_spec` but carries ``runs`` as 0, and
        :meth:`estimate` decides at load time whether a stored vector
        satisfies the caller's budget.  Without one the run count is the
        budget and keys on it.
        """
        target = self.target
        spec = None if target is None else target.cache_spec()
        if self.engine is not None:
            base_seed, timeout = self.engine
            kind = "engine" if target is None else "engine-adaptive"
            extra = {"timeout": timeout}
            if target is not None:
                extra["target"] = spec
        elif target is None and self.mode is None:
            base_seed, kind, extra = self.params.seed, "sampler", None
        else:
            base_seed, kind = self.params.seed, "adaptive"
            extra = {"variance_reduction": self.mode, "target": spec}
        return store.key(
            kind=kind,
            technique=self.technique,
            params=(
                self.params.with_runs(1)
                if kind.endswith("adaptive")
                else self.params
            ),
            runs=self.runs if target is None else 0,
            base_seed=base_seed,
            extra=extra,
        )

    def tasks(
        self,
        batch: int,
        drawn: int,
        jobs: int,
        collect: bool,
        crn: CRNGenerator | None,
    ) -> list[tuple]:
        """The ``(fn, args)`` draw tasks whose results, concatenated in
        order, are batch *batch* — the runs after the *drawn* already
        held.  Each returns ``(samples, metrics snapshot or None)``.

        An engine batch is contiguous in run-index space and splits into
        one index shard per worker; seeds are per index, so a CI-targeted
        vector is always an exact prefix of the fixed-budget vector for
        the same ``base_seed``.  A sampler batch is one task.
        """
        target = self.target
        size = self.runs if target is None else target.batch_sizes()[batch]
        if self.engine is None:
            plain = target is None and self.mode is None
            stream = None if plain else batch
            return [
                (
                    _sampler_batch,
                    (self.technique, self.params, self.mode, stream, size, crn),
                )
            ]
        base_seed, timeout = self.engine
        return [
            (
                _engine_shard,
                (
                    self.technique,
                    self.params,
                    base_seed,
                    drawn + start,
                    drawn + stop,
                    timeout,
                    collect,
                ),
            )
            for start, stop in shard_bounds(size, jobs)
        ]

    def estimate(
        self, samples: np.ndarray, *, cached: bool = False
    ) -> CellEstimate | None:
        """Summarise *samples* and apply the stopping rule: the cell's
        estimate, or ``None`` when the CI target is unmet and the budget
        allows drawing (or, for a cached vector, refining) further."""
        target = self.target
        if target is None:
            boundaries, confidence = (samples.size,), 0.99
        else:
            boundaries = target.boundaries_for(samples.size)
            confidence = target.confidence
        summary = _vr_summary(samples, boundaries, self.mode, confidence)
        converged = target is None or target.met(summary)
        if not converged and samples.size < target.max_runs:
            return None
        return CellEstimate(
            self.technique,
            self.params,
            samples,
            summary,
            boundaries,
            converged,
            cached,
        )


def estimate_cells(
    cells,
    *,
    runs: int | None = None,
    target: "CITarget | float | None" = None,
    variance_reduction: str | None = None,
    engine: bool = False,
    base_seed: int | None = None,
    timeout: float = DEFAULT_RUN_TIMEOUT,
    jobs: int | None = None,
    cache=None,
    metrics=None,
) -> list[CellEstimate]:
    """Estimate E[T] for every ``(technique, params)`` cell — the one
    sampling pipeline behind :func:`~repro.sim.runner.sweep_mttf`,
    :func:`~repro.sim.runner.sweep`, :func:`evaluate_grid`,
    :func:`adaptive_samples`, :func:`~repro.sim.engine_mc.engine_samples`
    and ``repro mc``.

    **Plan.**  Each cell gets a :class:`_CellPlan`: the draw source (the
    vectorised sampler, or with *engine* the full Grid-WFS stack per run,
    seeded from *base_seed* — default ``params.seed`` — under a *timeout*
    virtual-time budget), its RNG streams, its batch schedule — *runs*
    (default ``params.runs``) in one batch, or under *target* geometric
    batches from ``min_runs`` to ``max_runs`` — and its cache key.
    Refused here, before anything is drawn: an unknown technique, a
    Figure-13 cell with a finite MTTF (its model has no host failures), a
    Figure-13 masking cell at p = 1 (it never completes), and variance
    reduction of Figure 13's strategies.

    **Execute.**  Cells found in *cache* whose stored vector satisfies the
    plan are served without drawing.  The rest advance in rounds: round
    *r* draws batch *r* of every still-pending cell as one task list
    fanned over *jobs* workers (:func:`~repro.sim.parallel.pool_map`; in
    process at ``jobs=1``), so the easy bulk of a grid drops out after
    the first round and only the hard tail keeps sampling.  Every batch
    is a pure function of (cell, batch index), so results are
    bit-identical for any worker count — except under CRN, where all
    cells of a technique replay one :class:`UniformPool` through cursors
    that carry across batches, so CRN rounds stay in process whatever
    *jobs* says.  A cell leaves the loop when its target is met or its
    budget spent, and is stored in *cache* at that moment.

    **Summarise.**  Each cell is reported as a :class:`CellEstimate`
    with the variance-reduction-aware :class:`Summary`; estimates come
    back in cell order.

    With neither *target* nor *variance_reduction* a sampler cell's
    vector is exactly :func:`~repro.sim.samplers.sample_technique`'s.
    *metrics* is an optional :class:`~repro.obs.metrics.MetricsRegistry`:
    it counts cache lookups, and engine shards merge their per-run
    histograms and sampler-cache counters into it.
    """
    mode = resolve_variance_reduction(variance_reduction)
    tgt = CITarget.of(target)
    if engine and mode is not None:
        raise SimulationError(
            "variance reduction (--antithetic/--crn) applies to the "
            "vectorised samplers only: the engine path draws no invertible "
            "uniforms to mirror or share"
        )
    plans: list[_CellPlan] = []
    for technique, params in cells:
        _check_cell(technique, params)
        if mode is not None and technique in _EXCEPTION_TECHNIQUES:
            raise SimulationError(
                "variance reduction (--antithetic/--crn) cannot mirror "
                f"{technique!r}: Figure 13's samplers draw i.i.d. only (the "
                "retry sampler's multinomial has no inverse-CDF form)"
            )
        budget = params.runs if runs is None else runs
        if tgt is None and budget < 1:
            raise SimulationError(f"runs must be >= 1, got {budget!r}")
        seed = params.seed if base_seed is None else base_seed
        plans.append(
            _CellPlan(
                technique,
                params,
                budget,
                tgt,
                mode,
                (seed, timeout) if engine else None,
            )
        )
    store = resolve_cache(cache)
    # CRN cursors carry across batches, so CRN rounds stay in process.
    jobs = 1 if mode == "crn" else resolve_jobs(jobs)
    collect = metrics is not None

    estimates: list[CellEstimate | None] = [None] * len(plans)
    #: Still-sampling cell → the chunks drawn so far, in draw order.
    pending: dict[int, list[np.ndarray]] = {}
    crn: dict[int, CRNGenerator] = {}
    pools: dict[tuple[str, int], UniformPool] = {}
    keys = [plan.cache_key(store) for plan in plans] if store is not None else []
    for i, plan in enumerate(plans):
        if store is not None:
            hit = store.load(keys[i])
            if metrics is not None:
                metrics.counter(
                    "mc_disk_cache_hits_total"
                    if hit is not None
                    else "mc_disk_cache_misses_total",
                    help="sample-vector lookups in the on-disk cache",
                    technique=plan.technique,
                ).inc()
            if hit is not None and (
                hit.size == plan.runs
                if tgt is None
                else hit.size >= tgt.min_runs
            ):
                estimates[i] = plan.estimate(hit, cached=True)
        if estimates[i] is not None:
            continue
        pending[i] = []
        if mode == "crn":
            shared = (plan.technique, plan.params.seed)
            if shared not in pools:
                pools[shared] = _crn_pool(plan.params, plan.technique)
            crn[i] = CRNGenerator(pools[shared])

    batch = 0
    while pending:
        tasks: list[tuple] = []
        owners: list[int] = []
        for i, chunks in pending.items():
            drawn = sum(chunk.size for chunk in chunks)
            cell_tasks = plans[i].tasks(batch, drawn, jobs, collect, crn.get(i))
            tasks += cell_tasks
            owners += [i] * len(cell_tasks)
        for i, (chunk, snapshot) in zip(owners, pool_map(tasks, jobs)):
            pending[i].append(chunk)
            if snapshot is not None:
                metrics.merge(snapshot)
        for i, chunks in list(pending.items()):
            samples = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            estimates[i] = plans[i].estimate(samples)
            if estimates[i] is None:
                pending[i] = [samples]
                continue
            del pending[i]
            if store is not None:
                store.store(keys[i], samples)
        batch += 1
    return estimates


def adaptive_samples(
    technique: str,
    params: SimulationParams,
    *,
    target: "CITarget | float | None" = None,
    variance_reduction: str | None = None,
    runs: int | None = None,
    cache=None,
) -> CellEstimate:
    """Adaptively sample one (technique, params) cell.

    With both *target* and *variance_reduction* unset this is the plain
    fixed-budget sampler (bit-identical to
    :func:`~repro.sim.samplers.sample_technique`).  Otherwise draws
    geometric batches under the VR mode until the :class:`CITarget` is
    met (or ``max_runs`` spent); with a *target* the *runs* argument is
    ignored in favour of the target's bounds.
    """
    [estimate] = estimate_cells(
        [(technique, params)],
        target=target,
        variance_reduction=variance_reduction,
        runs=runs,
        cache=cache,
    )
    return estimate


@dataclass(frozen=True, eq=False)
class GridEvaluation:
    """Result of one fused (technique × MTTF) grid evaluation."""

    cells: dict[tuple[str, float], CellEstimate]
    mttfs: tuple[float, ...]
    techniques: tuple[str, ...]

    @property
    def samples_drawn(self) -> int:
        """Raw draws actually sampled this evaluation (cache hits free)."""
        return sum(
            c.samples.size for c in self.cells.values() if not c.cached
        )

    @property
    def samples_used(self) -> int:
        """Raw draws backing the estimates, drawn or loaded."""
        return sum(c.samples.size for c in self.cells.values())

    @property
    def all_converged(self) -> bool:
        return all(c.converged for c in self.cells.values())


def evaluate_grid(
    params: SimulationParams,
    mttfs,
    techniques=TECHNIQUES,
    *,
    target: "CITarget | float | None" = None,
    variance_reduction: str | None = None,
    runs: int | None = None,
    jobs: int | None = None,
    cache=None,
) -> GridEvaluation:
    """Fused evaluation of a (technique × MTTF) grid: one
    :func:`estimate_cells` call over every cell, so each round draws the
    next batch only for the cells that have neither met the CI target nor
    exhausted ``max_runs``, and under CRN all MTTF points of a technique
    share one :class:`UniformPool`, each replaying it from position zero.

    Without a target, every cell draws a single fixed batch of *runs*
    (``params.runs`` when unset) under the VR mode; without a VR mode
    *and* without a target the per-cell vectors are exactly
    :func:`~repro.sim.samplers.sample_technique`'s.
    """
    techniques = tuple(techniques)
    mttfs = tuple(float(m) for m in mttfs)
    keys = [(technique, mttf) for technique in techniques for mttf in mttfs]
    estimates = estimate_cells(
        [(technique, params.with_mttf(mttf)) for technique, mttf in keys],
        target=target,
        variance_reduction=variance_reduction,
        runs=runs,
        jobs=jobs,
        cache=cache,
    )
    return GridEvaluation(
        cells=dict(zip(keys, estimates)), mttfs=mttfs, techniques=techniques
    )
