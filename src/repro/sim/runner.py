"""Experiment runner: parameter sweeps, series, tables and ASCII charts.

The benchmark harness uses this module to regenerate each figure of the
paper as a printed table plus an ASCII chart, and to check the *shape*
claims (orderings, crossover locations) programmatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import SimulationError
from . import adaptive
from .params import SimulationParams
from .samplers import TECHNIQUES
from .stats import Summary, summarize

__all__ = [
    "Series",
    "sweep_mttf",
    "sweep",
    "crossover",
    "format_table",
    "ascii_chart",
    "to_csv",
    "TECHNIQUE_LABELS",
]

#: Display labels matching the paper's legends (Rt/Ck/Rp/RpCk in Figure 11).
TECHNIQUE_LABELS = {
    "retrying": "Retrying",
    "checkpointing": "Checkpointing",
    "replication": "Replication",
    "replication_checkpointing": "Replication w/ checkpointing",
    "backoff_retry": "Retrying w/ backoff",
}


@dataclass(frozen=True)
class Series:
    """One curve: label plus (x, y) points and per-point summaries."""

    label: str
    x: tuple[float, ...]
    y: tuple[float, ...]
    summaries: tuple[Summary, ...] = ()

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise SimulationError("series x and y lengths differ")

    @classmethod
    def of(cls, label: str, xs, summaries: Iterable[Summary]) -> "Series":
        """The curve through the means of per-point *summaries*."""
        summaries = tuple(summaries)
        return cls(
            label=label,
            x=tuple(xs),
            y=tuple(s.mean for s in summaries),
            summaries=summaries,
        )

    def value_at(self, x: float) -> float:
        """The y value at grid point *x*.

        Matches with a relative tolerance rather than exact float equality:
        sweep grids produced by float arithmetic (``np.linspace``, scaled
        ranges) rarely hit query values like ``0.1*3`` bit-for-bit.  An
        exact hit is preferred when both an exact and a close point exist.
        """
        try:
            return self.y[self.x.index(x)]
        except ValueError:
            pass
        for xi, yi in zip(self.x, self.y):
            if math.isclose(xi, x, rel_tol=1e-9, abs_tol=1e-12):
                return yi
        raise SimulationError(f"series {self.label!r} has no point x={x}")


def to_csv(x_label: str, series: Sequence[Series]) -> str:
    """Render series as CSV (one x column, one column per series, plus a
    ``<label>_ci`` column for any series carrying summaries) — the
    machine-readable companion of :func:`format_table`, written next to
    each benchmark's text artefact so downstream users can re-plot the
    figures with their own tools."""
    if not series:
        raise SimulationError("to_csv requires at least one series")
    xs = series[0].x
    for s in series:
        if s.x != xs:
            raise SimulationError("all series must share the x grid")

    def clean(label: str) -> str:
        return label.replace(",", ";")

    header = [x_label] + sum(
        (
            [clean(s.label)] + ([f"{clean(s.label)}_ci"] if s.summaries else [])
            for s in series
        ),
        [],
    )
    lines = [",".join(header)]
    for i, x in enumerate(xs):
        row = [f"{x:g}"]
        for s in series:
            row.append(f"{s.y[i]!r}" if math.isfinite(s.y[i]) else "inf")
            if s.summaries:
                row.append(f"{s.summaries[i].ci_halfwidth!r}")
        lines.append(",".join(row))
    return "\n".join(lines)


def sweep(
    xs: Sequence[float],
    fn: Callable[[float], np.ndarray] | None = None,
    *,
    label: str,
    technique: str | None = None,
    params_of: Callable[[float], SimulationParams] | None = None,
    runs: int | None = None,
    jobs: int | None = None,
    cache=None,
) -> Series:
    """Generic sweep over any x axis; the series carries sample means plus
    summaries.

    Two spellings:

    * ``sweep(xs, fn, label=...)`` — *fn* maps an x to a sample vector,
      evaluated in process.  Arbitrary callables can't be fanned out or
      content-addressed, so ``jobs=``/``cache=`` are rejected here.
    * ``sweep(xs, technique=..., params_of=..., label=...)`` — *params_of*
      maps an x to the cell's :class:`SimulationParams`.  This declarative
      form is one :func:`~repro.sim.adaptive.estimate_cells` call, like
      :func:`sweep_mttf`: cells fan out across the persistent pool
      (``jobs=``) and each cell is independently content-addressed in the
      sample cache (``cache=``), so ablation sweeps built on ``sweep``
      get pool + cache for free.
    """
    xs = tuple(float(x) for x in xs)
    if fn is not None:
        if technique is not None or params_of is not None:
            raise SimulationError(
                "sweep takes either fn or technique+params_of, not both"
            )
        if jobs is not None or cache is not None or runs is not None:
            raise SimulationError(
                "runs=/jobs=/cache= require the declarative "
                "technique+params_of form (fn callables cannot be "
                "fanned out or content-addressed)"
            )
        return Series.of(label, xs, [summarize(fn(x)) for x in xs])
    if technique is None or params_of is None:
        raise SimulationError("sweep needs fn, or technique and params_of")
    estimates = adaptive.estimate_cells(
        [(technique, params_of(x)) for x in xs],
        runs=runs,
        jobs=jobs,
        cache=cache,
    )
    return Series.of(label, xs, [e.summary for e in estimates])


def sweep_mttf(
    params: SimulationParams,
    mttfs: Sequence[float],
    techniques: Iterable[str] = TECHNIQUES,
    *,
    runs: int | None = None,
    jobs: int | None = None,
    cache=None,
    target_ci=None,
    variance_reduction: str | None = None,
) -> dict[str, Series]:
    """The paper's standard experiment: E[T] vs MTTF per technique.

    Every (technique, MTTF) point is one cell of one
    :func:`~repro.sim.adaptive.estimate_cells` call.  With ``jobs > 1``
    the cells are sampled across the persistent process pool; every point
    is independently seeded, so the series are identical to the
    sequential evaluation.

    *cache* opts in to the content-addressed sample cache
    (:mod:`repro.sim.cache`): each (technique, MTTF) point is keyed
    independently, so regenerating a sweep re-samples only the points
    whose inputs changed — an unchanged figure regenerates from disk
    without drawing a single sample.

    *target_ci* (a :class:`~repro.sim.adaptive.CITarget` or a bare
    relative half-width) and *variance_reduction* (``"antithetic"`` /
    ``"crn"``) make the sweep an adaptive grid evaluation
    (:func:`repro.sim.adaptive.evaluate_grid`): cells sample in geometric
    batches until they meet the CI target, under the chosen
    variance-reduction kernel.  With both left at ``None`` every point is
    the fixed-budget vector of
    :func:`~repro.sim.samplers.sample_technique` — bit-identical output.
    """
    techniques = tuple(techniques)
    xs = tuple(float(m) for m in mttfs)
    if target_ci is not None or variance_reduction is not None:
        cells = adaptive.evaluate_grid(
            params,
            xs,
            techniques,
            target=target_ci,
            variance_reduction=variance_reduction,
            runs=runs,
            jobs=jobs,
            cache=cache,
        ).cells
    else:
        # A fixed-budget sweep is not an adaptive grid evaluation: it stays
        # out of evaluate_grid so whoever accounts adaptive evaluations at
        # that seam (the ledger's sim.adaptive.* counters) sees only those.
        keys = [(t, m) for t in techniques for m in xs]
        estimates = adaptive.estimate_cells(
            [(t, params.with_mttf(m)) for t, m in keys],
            runs=runs,
            jobs=jobs,
            cache=cache,
        )
        cells = dict(zip(keys, estimates))
    return {
        t: Series.of(
            TECHNIQUE_LABELS.get(t, t), xs, [cells[(t, m)].summary for m in xs]
        )
        for t in techniques
    }


def crossover(a: Series, b: Series) -> float | None:
    """First x (linearly interpolated) where series *a* drops to or below
    *b* — e.g. where replication starts beating retrying as MTTF grows.
    Returns None when *a* stays above *b* everywhere (or starts below)."""
    if a.x != b.x:
        raise SimulationError("crossover requires series on the same x grid")
    diff = [ya - yb for ya, yb in zip(a.y, b.y)]
    if not diff or diff[0] <= 0:
        return None
    for i in range(1, len(diff)):
        if diff[i] <= 0:
            x0, x1 = a.x[i - 1], a.x[i]
            d0, d1 = diff[i - 1], diff[i]
            if d0 == d1:
                return x1
            return x0 + (x1 - x0) * d0 / (d0 - d1)
    return None


def format_table(
    x_label: str,
    series: Sequence[Series],
    *,
    precision: int = 2,
) -> str:
    """Fixed-width table: one row per x, one column per series."""
    if not series:
        raise SimulationError("format_table requires at least one series")
    xs = series[0].x
    for s in series:
        if s.x != xs:
            raise SimulationError("all series must share the x grid")
    headers = [x_label] + [s.label for s in series]
    widths = [max(len(h), 10) for h in headers]
    lines = [
        "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for i, x in enumerate(xs):
        cells = [f"{x:g}".rjust(widths[0])]
        for j, s in enumerate(series):
            value = s.y[i]
            cell = "inf" if math.isinf(value) else f"{value:.{precision}f}"
            cells.append(cell.rjust(widths[j + 1]))
        lines.append("  ".join(cells))
    return "\n".join(lines)


def ascii_chart(
    series: Sequence[Series],
    *,
    width: int = 72,
    height: int = 20,
    y_cap: float | None = None,
    title: str = "",
) -> str:
    """Plot series as an ASCII scatter chart (one marker per series).

    ``y_cap`` clips the y axis (Figure 13's divergent curves need it).
    """
    if not series:
        raise SimulationError("ascii_chart requires at least one series")
    markers = "*o+x#@%&"
    xs_all = [x for s in series for x in s.x]
    ys_all = [
        min(y, y_cap) if y_cap is not None else y
        for s in series
        for y in s.y
        if not math.isinf(y) or y_cap is not None
    ]
    if not ys_all:
        raise SimulationError("no finite points to plot")
    x_min, x_max = min(xs_all), max(xs_all)
    y_min, y_max = min(ys_all), max(ys_all)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0
    grid = [[" "] * width for _ in range(height)]
    for si, s in enumerate(series):
        marker = markers[si % len(markers)]
        for x, y in zip(s.x, s.y):
            if math.isinf(y):
                if y_cap is None:
                    continue
                y = y_cap
            if y_cap is not None:
                y = min(y, y_cap)
            col = round((x - x_min) / (x_max - x_min) * (width - 1))
            row = round((y - y_min) / (y_max - y_min) * (height - 1))
            grid[height - 1 - row][col] = marker
    lines = []
    if title:
        lines.append(title)
    lines.append(f"y: [{y_min:g}, {y_max:g}]" + (" (capped)" if y_cap else ""))
    lines.extend("|" + "".join(row) for row in grid)
    lines.append("+" + "-" * width)
    lines.append(f"x: [{x_min:g}, {x_max:g}]")
    legend = "   ".join(
        f"{markers[i % len(markers)]} {s.label}" for i, s in enumerate(series)
    )
    lines.append(legend)
    return "\n".join(lines)
