"""Summary statistics for Monte-Carlo completion-time samples."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError

__all__ = ["Summary", "summarize", "iid_interval", "relative_error", "z_value"]


@dataclass(frozen=True)
class Summary:
    """Mean with a normal-approximation confidence interval."""

    n: int
    mean: float
    std: float
    #: Half-width of the confidence interval around the mean.
    ci_halfwidth: float
    p50: float
    p95: float
    #: Effective sample size: the i.i.d. sample count that would deliver
    #: the same estimator variance.  Equals ``n`` for plain independent
    #: sampling; variance-reduced estimators (antithetic pairing) report
    #: more — the factor by which correlation-aware estimation beat i.i.d.
    #: draws (see :mod:`repro.sim.adaptive`).  0.0 means "not computed"
    #: (legacy construction sites).
    ess: float = 0.0

    @property
    def rel_halfwidth(self) -> float:
        """CI half-width relative to the mean (∞ for a zero mean with a
        non-degenerate interval, 0.0 for an exactly-degenerate one)."""
        if self.ci_halfwidth == 0.0:
            return 0.0
        if self.mean == 0.0:
            return math.inf
        return self.ci_halfwidth / abs(self.mean)

    def contains(self, value: float, *, slack: float = 1.0) -> bool:
        """Whether *value* lies within the (optionally widened) interval."""
        return (
            self.mean - slack * self.ci_halfwidth
            <= value
            <= self.mean + slack * self.ci_halfwidth
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.3f} ± {self.ci_halfwidth:.3f} (n={self.n})"


def z_value(confidence: float) -> float:
    """Normal-approximation z for the supported confidence levels."""
    z_table = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}
    z = z_table.get(round(confidence, 2))
    if z is None:
        raise SimulationError(
            f"confidence must be one of {sorted(z_table)}, got {confidence!r}"
        )
    return z


def iid_interval(samples: np.ndarray, z: float) -> tuple[float, float, float]:
    """Mean, standard deviation (ddof 1; 0.0 for one draw) and
    normal-approximation CI half-width of i.i.d. *samples*."""
    n = samples.size
    mean = float(samples.mean())
    std = float(samples.std(ddof=1)) if n > 1 else 0.0
    return mean, std, z * std / math.sqrt(n)


def summarize(
    samples: np.ndarray,
    *,
    confidence: float = 0.99,
    ci_halfwidth: float | None = None,
    ess: float | None = None,
) -> Summary:
    """Mean/CI/percentile summary of a sample vector.

    The CI uses the normal approximation, appropriate at the 100k-run scale
    of the paper's simulation; ``confidence`` picks the z value (0.90, 0.95
    and 0.99 supported — we keep just the common values to stay
    dependency-light).

    *ci_halfwidth* and *ess* override the i.i.d. interval and effective
    sample size: variance-reduced estimators (:mod:`repro.sim.adaptive`)
    summarize the raw draws here but substitute the correlation-aware
    interval computed from their pairing structure.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size == 0:
        raise SimulationError("summarize expects a non-empty 1-D sample vector")
    n = samples.size
    mean, std, half = iid_interval(samples, z_value(confidence))
    if ci_halfwidth is not None:
        half = ci_halfwidth
    # One selection pass for both: equal to two single-q calls bit for bit.
    p50, p95 = np.percentile(samples, (50, 95))
    return Summary(
        n=n,
        mean=mean,
        std=std,
        ci_halfwidth=half,
        p50=float(p50),
        p95=float(p95),
        ess=float(n) if ess is None else float(ess),
    )


def relative_error(measured: float, reference: float) -> float:
    """|measured − reference| / |reference| (∞-safe)."""
    if math.isinf(reference):
        return 0.0 if math.isinf(measured) else math.inf
    if reference == 0.0:
        return abs(measured)
    return abs(measured - reference) / abs(reference)
