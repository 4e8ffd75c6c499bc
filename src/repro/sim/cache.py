"""Content-addressed on-disk cache for Monte-Carlo sample vectors.

Figure regeneration re-samples every (technique, MTTF) point from scratch
even when nothing about the point changed.  Since every sampler is fully
deterministic in its inputs, a sample vector is a pure function of

* the technique name,
* the canonicalised :class:`~repro.sim.params.SimulationParams`,
* the run count and base seed,
* a samplers-version tag
  (:data:`~repro.sim.samplers.SAMPLERS_VERSION`, bumped whenever any
  sampler's or the engine path's draw sequence changes), and
* the sampling *kind* (``"sampler"`` for the vectorised standalone
  samplers, ``"engine"`` for end-to-end engine runs — same parameters,
  different processes, so they must never share an entry; ``"adaptive"``
  and ``"engine-adaptive"`` for the CI-targeted paths of
  :mod:`repro.sim.adaptive` and :mod:`repro.sim.engine_mc`, whose batch
  seeding differs from the single-shot streams).

Adaptive keys are **budget-independent**: the run count is carried as 0
and ``max_runs`` stays out of the key's ``extra`` payload, so a cached
cell that satisfies the CI target is a hit regardless of the budget a
later caller requests (acceptance is re-checked at load time against the
caller's bounds).

The cache key is the SHA-256 over that tuple, and each entry is one
``<key>.npy`` file under the cache root.  Because the key covers every
input, invalidation is automatic: change anything and the key changes;
bump :data:`SAMPLERS_VERSION` and *every* old entry goes stale at once
(``repro cache clear`` reclaims the disk).  Entries and the usage counters
are replaced whole (temp file + rename), so a crashed run never leaves a
truncated vector and a concurrent reader never sees a torn one.

The cache is **opt-in**: callers pass ``cache=True`` (the default
location: ``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro/mc``, else
``~/.cache/repro/mc``) or an explicit :class:`SampleCache`; ``cache=None``
/ ``False`` bypasses it entirely.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import BinaryIO, Callable

import numpy as np

from ..errors import SimulationError
from .params import SimulationParams
from .samplers import SAMPLERS_VERSION

__all__ = ["SampleCache", "resolve_cache", "default_cache_dir"]


def default_cache_dir() -> Path:
    """Cache root precedence: ``$REPRO_CACHE_DIR``, then
    ``$XDG_CACHE_HOME/repro/mc``, then ``~/.cache/repro/mc``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "mc"


def _canonical_params(params: SimulationParams) -> str:
    """Stable textual form of *params*: field-sorted JSON.

    ``json.dumps`` renders floats with ``repr`` (shortest round-trip
    form), so two params objects hash alike iff they compare equal —
    including non-finite MTTF (serialised as ``Infinity``).
    """
    return json.dumps(dataclasses.asdict(params), sort_keys=True)


def _replace_file(path: Path, write: Callable[[BinaryIO], None]) -> None:
    """Make *path* hold what *write* produces, all of it or none of it: a
    per-process temp file renamed over the target."""
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


class SampleCache:
    """Content-addressed store mapping sampling inputs to sample vectors."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    # -- keying --------------------------------------------------------------

    def key(
        self,
        *,
        kind: str,
        technique: str,
        params: SimulationParams,
        runs: int,
        base_seed: int,
        extra: dict | None = None,
    ) -> str:
        """SHA-256 hex digest identifying one sample vector.

        *extra* carries kind-specific inputs that shape the draw sequence
        (the engine path includes its virtual-time budget, for example).
        """
        if kind not in ("sampler", "engine", "adaptive", "engine-adaptive"):
            raise SimulationError(
                f"cache kind must be 'sampler', 'engine', 'adaptive' or "
                f"'engine-adaptive', got {kind!r}"
            )
        payload = json.dumps(
            {
                "kind": kind,
                "technique": technique,
                "params": _canonical_params(params),
                "runs": runs,
                "base_seed": base_seed,
                "samplers_version": SAMPLERS_VERSION,
                "extra": extra or {},
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.npy"

    # -- usage statistics -----------------------------------------------------

    _STATS_FIELDS = ("hits", "misses", "stores", "evictions")

    def _stats_path(self) -> Path:
        return self.root / "stats.json"

    def stats(self) -> dict[str, int]:
        """Cumulative hit/miss/store/eviction counts for this cache root.

        Persisted in ``stats.json`` next to the entries, so the counters
        aggregate across processes and survive restarts — ``repro cache
        info`` reports lifetime usage, not one process's view.
        """
        try:
            raw = json.loads(self._stats_path().read_text())
        except (OSError, ValueError):
            raw = {}
        return {f: int(raw.get(f, 0)) for f in self._STATS_FIELDS}

    def _bump(self, field: str) -> None:
        """Best-effort increment of one persistent counter.  Statistics
        must never break sampling: any I/O failure is swallowed, and a
        racing writer merely loses a count — never the lifetime totals,
        because the file is replaced whole and a reader under ``--jobs N``
        cannot read a half-written one as zeros and write those back."""
        try:
            stats = self.stats()
            stats[field] += 1
            self.root.mkdir(parents=True, exist_ok=True)
            text = json.dumps(stats, sort_keys=True).encode()
            _replace_file(self._stats_path(), lambda fh: fh.write(text))
        except OSError:  # pragma: no cover - advisory only
            pass

    # -- storage -------------------------------------------------------------

    def load(self, key: str) -> np.ndarray | None:
        """The cached vector for *key*, or None on a miss.

        A corrupt entry (truncated, empty or unreadable) counts as a miss
        and is evicted, so a damaged cache degrades to re-sampling, never
        to an error or a wrong result.
        """
        path = self.path_for(key)
        try:
            samples = np.load(path, allow_pickle=False)
        except FileNotFoundError:
            self._bump("misses")
            return None
        except (OSError, ValueError, EOFError):  # EOFError: a zero-byte file
            path.unlink(missing_ok=True)
            self._bump("evictions")
            self._bump("misses")
            return None
        self._bump("hits")
        return samples

    def store(self, key: str, samples: np.ndarray) -> Path:
        """Persist *samples* under *key* atomically; returns the path."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        data = np.ascontiguousarray(samples)
        _replace_file(path, lambda fh: np.save(fh, data, allow_pickle=False))
        self._bump("stores")
        return path

    # -- maintenance ---------------------------------------------------------

    def _entries(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.npy"))

    def info(self) -> dict:
        """Entry count, total bytes and lifetime usage counters — the
        ``repro cache info`` payload."""
        entries = self._entries()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(p.stat().st_size for p in entries),
            "samplers_version": SAMPLERS_VERSION,
            **self.stats(),
        }

    def clear(self) -> int:
        """Delete every entry (and reset the usage counters); returns how
        many entries were removed."""
        entries = self._entries()
        for path in entries:
            path.unlink(missing_ok=True)
        self._stats_path().unlink(missing_ok=True)
        return len(entries)


def resolve_cache(cache: "SampleCache | bool | None") -> SampleCache | None:
    """Normalise the ``cache=`` argument accepted throughout the sim layer:
    ``None``/``False`` → disabled, ``True`` → the default-location cache,
    a :class:`SampleCache` → itself."""
    if cache is None or cache is False:
        return None
    if cache is True:
        return SampleCache()
    if isinstance(cache, SampleCache):
        return cache
    raise SimulationError(
        f"cache must be a SampleCache, bool or None, got {type(cache).__name__}"
    )
