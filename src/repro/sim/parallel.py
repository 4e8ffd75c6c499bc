"""Parallel Monte-Carlo execution layer.

The paper's evaluation rests on Monte-Carlo estimation of expected
completion times (100 000 runs per point), and the engine-level overlay
re-runs the *full* Grid-WFS stack per sample.  This module fans that work
out across a :class:`concurrent.futures.ProcessPoolExecutor` while keeping
results **bit-identical** to the sequential loop:

Seed sharding
    Run *i* always uses seed ``base_seed + SEED_STRIDE * i`` — a fixed
    per-index seed stream, independent of how runs are distributed over
    workers.  The run-index space of a batch is chunked into contiguous
    shards (one per worker, :func:`shard_bounds`); each worker fills its
    slice (:func:`_engine_shard`) and the slices concatenate in shard
    order.  Because no run's randomness depends on a neighbour's, the
    concatenation equals the sequential result exactly, for any worker
    count.

One executor per estimate
    :func:`estimate_executor` scopes all execution state to one
    :func:`~repro.sim.adaptive.estimate_cells` call: the executor its
    rounds share, and each process's table of
    :class:`~repro.sim.engine_mc.EngineSampler` objects by configuration,
    so a shard of a configuration already met rewinds its world instead of
    building it.  Nothing outlives the call, and a whole technique × MTTF
    grid is one call, so one start-up serves it all.

One pool map
    :func:`pool_map` is the only place work crosses the process boundary:
    the sampling pipeline hands it one round's draw tasks — engine index
    shards and vectorised-sampler cells alike — and gets the results back
    in task order.

Worker-side failures
    Engine runs can fail (e.g. a virtual-time budget is exceeded).  Raw
    exceptions crossing the process boundary lose their chained context, so
    workers wrap any failure in a :class:`repro.errors.SimulationError`
    whose message carries the technique, run index and seed — enough to
    replay the failing run locally with
    ``EngineSampler(technique, params).run(seed)``.

Single-worker calls (``jobs=1``, the default) open no executor and run
every task in process, so the sequential path has zero multiprocessing
overhead.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from typing import TYPE_CHECKING

import numpy as np

from ..errors import SimulationError
from ..obs.metrics import MetricSpec
from .params import SimulationParams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from concurrent.futures import ProcessPoolExecutor

    from .engine_mc import EngineSampler

__all__ = [
    "SEED_STRIDE",
    "DEFAULT_RUN_TIMEOUT",
    "seed_for",
    "shard_bounds",
    "resolve_jobs",
    "estimate_executor",
    "pool_map",
]

#: Per-run seed stride (prime, so run seeds never collide with the small
#: offsets other components derive from the root seed).
SEED_STRIDE = 7919

#: Default virtual-time budget for one engine run.
DEFAULT_RUN_TIMEOUT = 10_000_000.0

MC_SHARD_WALL = MetricSpec(
    "mc_shard_wall_seconds",
    "histogram",
    "wall-clock duration of one contiguous run shard",
    ("technique",),
)


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

#: This process's samplers for the estimate it is running, keyed
#: ``(technique, params.with_runs(1), timeout)`` — a sampler ignores
#: ``params.runs`` (run counts arrive per call), so configurations that
#: differ only in budget share one.  Empty when a worker starts and when
#: :func:`estimate_executor` exits.
_ENGINE_SAMPLERS: dict[tuple, EngineSampler] = {}


def _clear_samplers() -> None:
    """Empty this process's sampler table (a worker's initializer: a
    forked worker would otherwise start with its parent's table)."""
    _ENGINE_SAMPLERS.clear()


@contextmanager
def estimate_executor(jobs: int) -> Iterator[ProcessPoolExecutor | None]:
    """The executor one estimate's rounds share: a fresh
    ``ProcessPoolExecutor(jobs)`` when ``jobs > 1``, else ``None`` (draw
    in process).  On exit, normal or not, its workers are shut down and
    this process's sampler table is empty, so the next estimate starts
    from nothing."""
    try:
        if jobs <= 1:
            yield None
        else:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(jobs, initializer=_clear_samplers) as executor:
                yield executor
    finally:
        _ENGINE_SAMPLERS.clear()


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
    The sampler comes from this process's table of the estimate's
    samplers, so later shards of one configuration skip world
    construction.

    With *collect_stats* the second element is a
    :meth:`repro.obs.metrics.MetricsRegistry.snapshot` covering this
    shard: per-run attempt/completion histograms (recorded by the
    sampler) and its wall-clock duration.  Snapshots are plain dicts, so
    they cross the process boundary without pickling any registry
    machinery; the parent folds them together with
    :meth:`MetricsRegistry.merge`.  Stats collection never perturbs the
    simulation's draw sequence, so sample vectors stay bit-identical
    either way.
    """
    registry = None
    if collect_stats:
        from ..obs.metrics import MetricsRegistry

        wall_start = time.perf_counter()
        registry = MetricsRegistry()
    key = (technique, params.with_runs(1), timeout)
    sampler = _ENGINE_SAMPLERS.get(key)
    if sampler is None:
        from .engine_mc import EngineSampler

        sampler = EngineSampler(technique, params, timeout=timeout)
        _ENGINE_SAMPLERS[key] = sampler
    # Every shard of one estimate collects alike, and the table goes with
    # the estimate, so the sampler may keep this shard's registry.
    sampler.metrics = registry
    out = np.empty(stop - start)
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
    if registry is None:
        return out, None
    registry.family(MC_SHARD_WALL).labels(technique).observe(
        time.perf_counter() - wall_start
    )
    return out, registry.snapshot()


def _call(task: tuple[Callable, tuple]):
    fn, args = task
    return fn(*args)


def pool_map(
    tasks: Sequence[tuple[Callable, tuple]], executor: ProcessPoolExecutor | None
) -> list:
    """``fn(*args)`` for every ``(fn, args)`` task, results in task order,
    on *executor*'s workers (:func:`estimate_executor`).

    Tasks must be module-level callables with picklable arguments whose
    results do not depend on placement — every caller's are seeded by
    their arguments alone, so the list equals the sequential evaluation
    exactly.  Without an executor, or for a single task, they run in
    process.
    """
    if executor is None or len(tasks) <= 1:
        return [_call(task) for task in tasks]
    return list(executor.map(_call, tasks))
