"""Persistent worker pool for the Monte-Carlo execution layer.

A fresh :class:`~concurrent.futures.ProcessPoolExecutor` per call makes
every sweep point pay pool startup (fork + import) and every shard
rebuild its :class:`~repro.sim.engine_mc.EngineSampler` from scratch —
enough overhead to make ``jobs=4`` *slower* than the sequential loop on
short points.  This module amortises both costs for
:func:`repro.sim.parallel.pool_map`:

Process-wide pool singleton
    :func:`get_pool` lazily creates one executor and returns the same one
    to every caller for the life of the process (growing it when a caller
    asks for more workers than it was built with).  All sweep points and
    all ``engine_samples`` calls share it, so fork/import costs are paid
    once per process, not once per call.  :func:`persistent_pool` is the
    context-manager spelling for callers that want an explicit scope; the
    pool deliberately *survives* the ``with`` block — teardown is explicit
    (:func:`shutdown_pool`) or automatic at interpreter exit.

Per-worker sampler cache
    Workers keep a small LRU of :class:`EngineSampler` objects keyed by
    ``(technique, params, timeout)`` (:func:`worker_sampler`).  A worker
    therefore builds the workflow/grid/behavior world once per
    *configuration* instead of once per *shard*; every subsequent shard
    for that configuration only rewinds the simulated grid in place.
    ``EngineSampler.run`` fully reseeds per run, so reuse is bit-identical
    to fresh construction (asserted by the parallel-layer tests).

Both caches are also used by the in-process (``jobs=1``) path, so repeated
sequential sampling of the same configuration skips world construction too.
"""

from __future__ import annotations

import atexit
import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .engine_mc import EngineSampler
    from .params import SimulationParams

__all__ = [
    "get_pool",
    "persistent_pool",
    "pool_size",
    "shutdown_pool",
    "worker_sampler",
    "sampler_cache_info",
    "clear_sampler_cache",
]

_LOCK = threading.Lock()
_POOL: ProcessPoolExecutor | None = None
_POOL_WORKERS = 0


def get_pool(workers: int) -> ProcessPoolExecutor:
    """The process-wide executor, created lazily with *workers* workers.

    Subsequent calls return the same executor; asking for **more** workers
    than the pool currently has replaces it with a larger one (the old
    workers finish their queued work first).  Asking for fewer just uses a
    subset — shard counts, not pool size, bound per-call parallelism.
    """
    global _POOL, _POOL_WORKERS
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    with _LOCK:
        if _POOL is not None and _POOL_WORKERS < workers:
            _POOL.shutdown(wait=True)
            _POOL = None
        if _POOL is None:
            _POOL = ProcessPoolExecutor(max_workers=workers)
            _POOL_WORKERS = workers
        return _POOL


def pool_size() -> int:
    """Worker count of the live pool singleton (0 when none exists)."""
    with _LOCK:
        return _POOL_WORKERS if _POOL is not None else 0


def shutdown_pool() -> None:
    """Tear down the pool singleton (idempotent).

    The next :func:`get_pool` call starts a fresh pool; use this to
    release worker memory after a large campaign, or from tests.
    """
    global _POOL, _POOL_WORKERS
    with _LOCK:
        pool, _POOL, _POOL_WORKERS = _POOL, None, 0
    if pool is not None:
        pool.shutdown(wait=True)


class persistent_pool:
    """Context manager over :func:`get_pool`.

    ``with persistent_pool(4) as pool:`` yields the shared executor.  On
    exit the pool is left **running** — persistence is the point — unless
    constructed with ``shutdown_on_exit=True``.
    """

    def __init__(self, workers: int, *, shutdown_on_exit: bool = False) -> None:
        self.workers = workers
        self.shutdown_on_exit = shutdown_on_exit

    def __enter__(self) -> ProcessPoolExecutor:
        return get_pool(self.workers)

    def __exit__(self, *exc_info: object) -> None:
        if self.shutdown_on_exit:
            shutdown_pool()


atexit.register(shutdown_pool)


# -- per-worker sampler cache -------------------------------------------------

#: Cached configurations per process; a sweep touches one technique/params
#: pair per point, so a handful of entries covers any realistic campaign
#: while bounding held grids/workflows.
SAMPLER_CACHE_LIMIT = 16

_SAMPLERS: "OrderedDict[tuple, EngineSampler]" = OrderedDict()
_CACHE_HITS = 0
_CACHE_MISSES = 0


def worker_sampler(
    technique: str, params: "SimulationParams", timeout: float
) -> "EngineSampler":
    """This process's :class:`EngineSampler` for one configuration.

    LRU-cached on ``(technique, params, timeout)``; runs in pool workers
    (each keeps its own cache for its process lifetime) and in the parent
    for the ``jobs=1`` path.  The key normalises ``params.runs`` to 1 —
    :class:`EngineSampler` ignores it (run counts arrive per call), so
    configurations differing only in the requested budget share one
    sampler instead of evicting each other.
    """
    global _CACHE_HITS, _CACHE_MISSES
    from .engine_mc import EngineSampler

    key = (technique, params.with_runs(1), timeout)
    sampler = _SAMPLERS.get(key)
    if sampler is not None:
        _CACHE_HITS += 1
        _SAMPLERS.move_to_end(key)
        return sampler
    _CACHE_MISSES += 1
    sampler = EngineSampler(technique, params, timeout=timeout)
    _SAMPLERS[key] = sampler
    while len(_SAMPLERS) > SAMPLER_CACHE_LIMIT:
        _SAMPLERS.popitem(last=False)
    return sampler


def sampler_cache_info() -> dict[str, int]:
    """Hit/miss/size counters of *this* process's sampler cache."""
    return {
        "size": len(_SAMPLERS),
        "hits": _CACHE_HITS,
        "misses": _CACHE_MISSES,
    }


def clear_sampler_cache() -> None:
    """Drop this process's cached samplers and reset the counters."""
    global _CACHE_HITS, _CACHE_MISSES
    _SAMPLERS.clear()
    _CACHE_HITS = 0
    _CACHE_MISSES = 0
