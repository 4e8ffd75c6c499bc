"""Parallel Monte-Carlo execution layer.

The paper's evaluation rests on Monte-Carlo estimation of expected
completion times (100 000 runs per point), and the engine-level overlay
re-runs the *full* Grid-WFS stack per sample.  This module fans that work
out across a persistent :class:`concurrent.futures.ProcessPoolExecutor`
(:mod:`repro.sim.pool`) while keeping results **bit-identical** to the
sequential loop:

Seed sharding
    Run *i* always uses seed ``base_seed + SEED_STRIDE * i`` — a fixed
    per-index seed stream, independent of how runs are distributed over
    workers.  The run-index space of a batch is chunked into contiguous
    shards (one per worker, :func:`shard_bounds`); each worker fills its
    slice (:func:`_engine_shard`) and the slices concatenate in shard
    order.  Because no run's randomness depends on a neighbour's, the
    concatenation equals the sequential result exactly, for any worker
    count.

One pool map
    :func:`pool_map` is the only place work crosses the process boundary:
    the sampling pipeline (:func:`repro.sim.adaptive.estimate_cells`)
    hands it one round's draw tasks — engine index shards and
    vectorised-sampler cells alike — and gets the results back in task
    order, accepted in completion order
    (:func:`concurrent.futures.as_completed`) so one slow task never
    serialises collection of the others.

Amortised startup
    The executor is a process-wide singleton shared by every call
    (:func:`repro.sim.pool.get_pool`), so fork/import costs are paid once
    per process; workers cache their :class:`EngineSampler` per
    ``(technique, params, timeout)`` (:func:`repro.sim.pool.worker_sampler`),
    so the workflow/grid/behavior world is built once per configuration,
    not once per shard.

Worker-side failures
    Engine runs can fail (e.g. a virtual-time budget is exceeded).  Raw
    exceptions crossing the process boundary lose their chained context, so
    workers wrap any failure in a :class:`repro.errors.SimulationError`
    whose message carries the technique, run index and seed — enough to
    replay the failing run locally with
    :func:`repro.sim.engine_mc.run_engine_once`.

Single-worker calls (``jobs=1``, the default) bypass the pool entirely and
run every task in process, so the sequential path has zero multiprocessing
overhead.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Sequence
from concurrent.futures import as_completed
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from ..errors import SimulationError
from .params import SimulationParams
from .pool import get_pool, sampler_cache_info, shutdown_pool, worker_sampler

__all__ = [
    "SEED_STRIDE",
    "DEFAULT_RUN_TIMEOUT",
    "seed_for",
    "shard_bounds",
    "resolve_jobs",
    "pool_map",
]

#: Per-run seed stride (prime, so run seeds never collide with the small
#: offsets other components derive from the root seed).
SEED_STRIDE = 7919

#: Default virtual-time budget for one engine run.
DEFAULT_RUN_TIMEOUT = 10_000_000.0


def seed_for(base_seed: int, index: int) -> int:
    """Seed of Monte-Carlo run *index* — fixed per index, independent of
    how runs are sharded across workers."""
    return base_seed + SEED_STRIDE * index


def shard_bounds(runs: int, shards: int) -> list[tuple[int, int]]:
    """Split ``[0, runs)`` into at most *shards* contiguous ``(start, stop)``
    ranges whose sizes differ by at most one.  Empty ranges are omitted
    (``runs < shards`` yields one range per run)."""
    if runs < 0:
        raise SimulationError(f"runs must be >= 0, got {runs!r}")
    if shards < 1:
        raise SimulationError(f"shards must be >= 1, got {shards!r}")
    shards = min(shards, runs) or 1
    base, extra = divmod(runs, shards)
    bounds = []
    start = 0
    for i in range(shards):
        stop = start + base + (1 if i < extra else 0)
        if stop > start:
            bounds.append((start, stop))
        start = stop
    return bounds


def _available_cores() -> int:
    """Cores this process may actually run on: the scheduling affinity
    mask where the platform exposes it (cgroup/taskset-limited boxes
    advertise fewer cores than ``os.cpu_count``), else ``os.cpu_count``."""
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - platform quirk
            pass
    return os.cpu_count() or 1


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs``-style worker count.

    Precedence, highest first:

    1. an explicit integer argument — 1 means sequential, 0 or any
       negative value means "every available core", anything else is
       taken literally;
    2. with ``jobs=None``, the ``REPRO_JOBS`` environment variable,
       interpreted by the same rules — the fleet-wide default for tools
       that don't expose a flag;
    3. otherwise 1 (sequential).

    "Every available core" is the scheduling-affinity count
    (``os.sched_getaffinity``) where the platform provides it, so
    container CPU limits are respected; ``os.cpu_count`` elsewhere.
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise SimulationError(
                f"REPRO_JOBS must be an integer, got {env!r}"
            ) from None
    if jobs <= 0:
        return _available_cores()
    return jobs


# -- engine-level sampling ----------------------------------------------------


def _engine_shard(
    technique: str,
    params: SimulationParams,
    base_seed: int,
    start: int,
    stop: int,
    timeout: float,
    collect_stats: bool = False,
) -> tuple[np.ndarray, dict | None]:
    """Worker body: completion times for run indices ``[start, stop)``.

    Module-level (picklable) and usable in process: the sequential path
    calls it directly so ``jobs=1`` and ``jobs=N`` execute the same code.
    The sampler comes from the per-process cache, so consecutive shards of
    one configuration skip world construction entirely.

    With *collect_stats* the second element is a
    :meth:`repro.obs.metrics.MetricsRegistry.snapshot` covering this
    shard: per-run attempt/completion histograms (recorded by the
    sampler), the shard's sampler-cache hit or miss, and its wall-clock
    duration.  Snapshots are plain dicts, so they cross the process
    boundary without pickling any registry machinery; the parent folds
    them together with :meth:`MetricsRegistry.merge`.  Stats collection
    never perturbs the simulation's draw sequence, so sample vectors stay
    bit-identical either way.
    """
    registry = None
    if collect_stats:
        from ..obs.metrics import MetricsRegistry

        wall_start = time.perf_counter()
        cache_before = sampler_cache_info()
        registry = MetricsRegistry()
    sampler = worker_sampler(technique, params, timeout)
    if registry is not None:
        cache_after = sampler_cache_info()
        registry.counter(
            "mc_pool_sampler_cache_hits_total",
            help="shards served by an already-built worker sampler",
        ).inc(cache_after["hits"] - cache_before["hits"])
        registry.counter(
            "mc_pool_sampler_cache_misses_total",
            help="shards that had to build the sampler world",
        ).inc(cache_after["misses"] - cache_before["misses"])
    previous_metrics = sampler.metrics
    sampler.metrics = registry
    out = np.empty(stop - start)
    try:
        for index in range(start, stop):
            seed = seed_for(base_seed, index)
            try:
                out[index - start] = sampler.run(seed)
            except Exception as exc:
                # Wrap with replay context: chained causes do not survive
                # the executor's pickling, but the message does.
                raise SimulationError(
                    f"engine-level Monte-Carlo run failed: "
                    f"technique={technique!r} run_index={index} seed={seed} "
                    f"({type(exc).__name__}: {exc})"
                ) from exc
    finally:
        sampler.metrics = previous_metrics
    if registry is None:
        return out, None
    registry.histogram(
        "mc_shard_wall_seconds",
        help="wall-clock duration of one contiguous run shard",
        technique=technique,
    ).observe(time.perf_counter() - wall_start)
    return out, registry.snapshot()


def pool_map(tasks: Sequence[tuple[Callable, tuple]], jobs: int) -> list:
    """``fn(*args)`` for every ``(fn, args)`` task, results in task order,
    on at most *jobs* workers of the persistent pool.

    Tasks must be module-level callables with picklable arguments whose
    results do not depend on placement — every caller's are seeded by
    their arguments alone, so the list equals the sequential evaluation
    exactly.  ``jobs <= 1`` (or a single task) runs in process.

    A worker killed hard (OOM, signal) breaks the executor for all later
    submissions; since the pool is a long-lived singleton, one automatic
    replace-and-retry keeps a single casualty from poisoning every
    subsequent call.
    """
    jobs = min(jobs, len(tasks))
    if jobs <= 1:
        return [fn(*args) for fn, args in tasks]

    def submit_all(pool) -> list:
        futures = {
            pool.submit(fn, *args): i for i, (fn, args) in enumerate(tasks)
        }
        results: list = [None] * len(tasks)
        # Completion-order collection: a slow task delays only itself,
        # never its finished neighbours.
        for future in as_completed(futures):
            results[futures[future]] = future.result()
        return results

    try:
        return submit_all(get_pool(jobs))
    except BrokenProcessPool:
        shutdown_pool()
        return submit_all(get_pool(jobs))
