"""Seeded random-number streams for reproducible simulations.

Every stochastic component (each host's failure process, each task's
exception process, the Monte-Carlo samplers) draws from its *own* named
stream, derived from a root seed with :func:`numpy.random.SeedSequence`
spawning keyed by a stable string.  This gives two guarantees:

* the same root seed always reproduces the same simulation, and
* adding a new stochastic component does not perturb the draws seen by
  existing components (streams are independent, not interleaved).

The paper's distributions are provided as thin wrappers: exponential TTF
(time-to-failure) with rate λ = 1/MTTF, exponential downtime with a given
mean, and Bernoulli exception checks.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

__all__ = ["RandomStreams", "exponential_rate", "DEFAULT_SEED"]

DEFAULT_SEED = 20030623  # HPDC'03 conference date — arbitrary but memorable


def _key_to_int(key: str) -> int:
    """Map a stream name to a stable 32-bit integer (crc32 is stable across
    Python processes, unlike ``hash``)."""
    return zlib.crc32(key.encode("utf-8"))


class RandomStreams:
    """Factory of independent named :class:`numpy.random.Generator` streams.

    >>> streams = RandomStreams(seed=7)
    >>> g1 = streams.get("host.bolas")
    >>> g2 = streams.get("host.vanuatu")
    >>> g1 is streams.get("host.bolas")   # cached per name
    True
    """

    def __init__(self, seed: int = DEFAULT_SEED) -> None:
        self.seed = seed
        self._root = np.random.SeedSequence(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def reseed(self, seed: int) -> None:
        """Re-root the factory at *seed*, in place: every stream is
        recreated on next use exactly as a fresh ``RandomStreams(seed)``
        would create it.  Components holding a reference to this factory
        (hosts, the network) see the new streams without rewiring — the
        backbone of :meth:`repro.grid.simgrid.SimulatedGrid.reset`."""
        self.seed = seed
        self._root = np.random.SeedSequence(seed)
        self._streams.clear()

    def get(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the generator for stream *name*."""
        gen = self._streams.get(name)
        if gen is None:
            child = np.random.SeedSequence(
                entropy=self.seed, spawn_key=(_key_to_int(name),)
            )
            gen = np.random.default_rng(child)
            self._streams[name] = gen
        return gen

    # -- paper distributions -------------------------------------------------

    def ttf(self, name: str, mttf: float) -> float:
        """Draw a time-to-failure: exponential with mean *mttf*.

        ``mttf = inf`` (a reliable component) returns ``inf`` without
        consuming randomness.
        """
        if mttf <= 0:
            raise ValueError(f"mttf must be positive, got {mttf!r}")
        if math.isinf(mttf):
            return float("inf")
        return float(self.get(name).exponential(mttf))

    def downtime(self, name: str, mean_downtime: float) -> float:
        """Draw a repair time: exponential with mean *mean_downtime*.

        A mean of 0 (the paper's D=0 experiments) returns 0.0 without
        consuming randomness, so D=0 and D>0 runs stay comparable.
        """
        if mean_downtime < 0:
            raise ValueError(
                f"mean_downtime must be >= 0, got {mean_downtime!r}"
            )
        if mean_downtime == 0:
            return 0.0
        return float(self.get(name).exponential(mean_downtime))

    def bernoulli(self, name: str, p: float) -> bool:
        """Draw a Bernoulli trial with success probability *p*."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p!r}")
        if p == 0.0:
            return False
        if p == 1.0:
            return True
        return bool(self.get(name).random() < p)

    def spawn(self, suffix: str) -> "RandomStreams":
        """Derive an independent child factory (e.g. one per replica run)."""
        return RandomStreams(seed=(self.seed * 1_000_003 + _key_to_int(suffix)) % 2**63)


def exponential_rate(mttf: float) -> float:
    """Failure rate λ = 1/MTTF, with λ = 0 for an infinite MTTF."""
    if mttf <= 0:
        raise ValueError(f"mttf must be positive, got {mttf!r}")
    return 0.0 if np.isinf(mttf) else 1.0 / mttf
