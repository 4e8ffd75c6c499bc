"""Bounded ring-buffer time-series store for the live telemetry plane.

The :class:`~repro.obs.metrics.MetricsRegistry` answers "what is the
value *now*"; this module answers "what has it been doing".  A
:class:`TimeSeriesStore` holds one :class:`Series` ring per (name,
labels) pair, downsampled into fixed-step buckets on the **simulation
clock**, with bounded retention (``capacity`` buckets — the oldest
bucket falls off when a newer one arrives).  Histograms are tracked as
:class:`HistogramSeries`: periodic snapshots of the cumulative bucket
counts, so windowed quantiles come from count *deltas* between two
snapshots rather than the whole run.

Feeding happens on a cadence: :class:`PeriodicCollector` re-runs the
end-of-run scrapers against the live registry and samples every registry
series into the store on a recurring reactor timer, so ``/timeseries``
and the drift/health layers see the same numbers ``/metrics`` serves.
A tick costs one :meth:`Series.observe` per series, whatever moved: the
schema is bounded by the specification (DESIGN.md §12), so series × ticks
is a known quantity, and the ring is the only copy of a sampled number.
"""

from __future__ import annotations

import math
import struct
import threading
from array import array
from typing import TYPE_CHECKING, Any, Callable, Sequence

from .export import _finite
from .metrics import LabelItems, _label_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..reactor import Reactor, TimerHandle
    from .metrics import MetricsRegistry

__all__ = [
    "Series",
    "HistogramSeries",
    "TimeSeriesStore",
    "PeriodicCollector",
]

#: Point layout inside a :class:`Series` ring — one flat ``array('d')``,
#: :data:`_STRIDE` doubles per point: bucket start time, observation
#: count, sum, min, max, last.  A point is named by the offset of its
#: first field.
_T, _N, _SUM, _MIN, _MAX, _LAST = range(6)
_STRIDE = 6
#: One point as the bytes ``array.frombytes`` appends in a single copy.
_pack_point = struct.Struct(f"{_STRIDE}d").pack


class Series:
    """One metric's history: fixed-step buckets in a bounded ring.

    ``kind`` says what was sampled — a ``"gauge"`` level or a monotone
    ``"counter"`` total; :meth:`rate` is the slope of the one and the
    growth of the other, read off the *last* values at the two ends of
    the window.

    A ring takes no lock of its own: the thread that writes it may read
    it directly, any other reads through the :class:`TimeSeriesStore`.
    """

    __slots__ = ("name", "labels", "kind", "step", "capacity", "_points")

    def __init__(
        self,
        name: str,
        *,
        labels: LabelItems = (),
        kind: str = "gauge",
        step: float = 1.0,
        capacity: int = 512,
    ) -> None:
        if step <= 0:
            raise ValueError(f"step must be positive, got {step!r}")
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity!r}")
        if kind not in ("gauge", "counter"):
            raise ValueError(f"unknown series kind {kind!r}")
        self.name = name
        self.labels = labels
        self.kind = kind
        self.step = step
        self.capacity = capacity
        self._points = array("d")

    def __len__(self) -> int:
        return len(self._points) // _STRIDE

    def observe(self, t: float, value: float) -> None:
        """Record *value* at simulation time *t* (downsampled into the
        ``t // step`` bucket; out-of-order samples fold into the newest
        bucket rather than being dropped)."""
        bucket = math.floor(t / self.step) * self.step
        points = self._points
        size = len(points)
        if size:
            last = size - _STRIDE
            if bucket <= points[last]:
                points[last + _N] += 1.0
                points[last + _SUM] += value
                if value < points[last + _MIN]:
                    points[last + _MIN] = value
                if value > points[last + _MAX]:
                    points[last + _MAX] = value
                points[last + _LAST] = value
                return
        points.frombytes(_pack_point(bucket, 1.0, value, value, value, value))
        if size >= self.capacity * _STRIDE:
            del points[:_STRIDE]

    # -- window queries ------------------------------------------------------

    def points(
        self, since: float | None = None, until: float | None = None
    ) -> list[dict[str, float]]:
        """JSON-safe points in ``[since, until]`` (whole ring by default)."""
        points = self._points
        return [
            {
                "t": points[p],
                "count": int(points[p + _N]),
                "sum": points[p + _SUM],
                "min": points[p + _MIN],
                "max": points[p + _MAX],
                "last": points[p + _LAST],
            }
            for p in _window(points, since, until)
        ]

    def rate(self, since: float | None = None) -> float | None:
        """Per-second rate over the window (see the class docstring);
        None when the window can't support one."""
        points = self._points
        window = _window(points, since, None)
        if len(window) < 2:
            return None
        first, last = window[0], window[-1]
        span = points[last] - points[first]
        if span <= 0:
            return None
        return (points[last + _LAST] - points[first + _LAST]) / span

    def render(self) -> dict[str, Any]:
        """The ring as JSON-able data (one entry of a store snapshot)."""
        return {
            "labels": dict(self.labels),
            "kind": self.kind,
            "step": self.step,
            "points": self.points(),
        }


def _window(
    points: array, since: float | None, until: float | None
) -> Sequence[int]:
    """Offsets of the points whose bucket lies in ``[since, until]``."""
    offsets: Sequence[int] = range(0, len(points), _STRIDE)
    if since is not None:
        offsets = [p for p in offsets if points[p] >= since]
    if until is not None:
        offsets = [p for p in offsets if points[p] <= until]
    return offsets


class HistogramSeries:
    """Periodic snapshots of one histogram's cumulative bucket counts.

    Each sample stores ``(bucket_time, counts_tuple, count, sum)``;
    :meth:`quantile` differences the first and last snapshot of a window
    and reads the bucket-resolution quantile off the *delta* counts —
    "p95 over the last 60 virtual seconds", not since process start.
    Like a :class:`Series`, a track takes no lock of its own.
    """

    __slots__ = ("name", "labels", "bounds", "step", "capacity", "_samples")

    def __init__(
        self,
        name: str,
        bounds: tuple[float, ...],
        *,
        labels: LabelItems = (),
        step: float = 1.0,
        capacity: int = 512,
    ) -> None:
        self.name = name
        self.labels = labels
        self.bounds = tuple(bounds)
        self.step = step
        self.capacity = capacity
        self._samples: list[tuple[float, tuple[int, ...], int, float]] = []

    def __len__(self) -> int:
        return len(self._samples)

    def sample(
        self, t: float, counts: list[int] | tuple[int, ...], count: int, total: float
    ) -> None:
        bucket = math.floor(t / self.step) * self.step
        record = (bucket, tuple(counts), count, total)
        if self._samples and bucket <= self._samples[-1][0]:
            self._samples[-1] = record
            return
        self._samples.append(record)
        if len(self._samples) > self.capacity:
            del self._samples[0]

    def _delta(
        self, since: float | None
    ) -> tuple[list[int], int, float] | None:
        if not self._samples:
            return None
        newest = self._samples[-1]
        base: tuple[float, tuple[int, ...], int, float] | None = None
        if since is not None:
            for record in reversed(self._samples):
                if record[0] < since:
                    base = record
                    break
        if base is None:
            counts = list(newest[1])
            return counts, newest[2], newest[3]
        counts = [n - b for n, b in zip(newest[1], base[1])]
        return counts, newest[2] - base[2], newest[3] - base[3]

    def quantile(self, q: float, since: float | None = None) -> float:
        """Windowed bucket-resolution quantile (upper bound of the bucket
        holding the q-th delta observation; NaN on an empty window)."""
        delta = self._delta(since)
        if delta is None or delta[1] <= 0:
            return float("nan")
        counts, count, _ = delta
        target = q * count
        seen = 0
        for i, n in enumerate(counts):
            seen += n
            if seen >= target and n:
                return self.bounds[i] if i < len(self.bounds) else float("inf")
        return float("inf")

    def observations(self, since: float | None = None) -> int:
        delta = self._delta(since)
        return 0 if delta is None else delta[1]

    def render(self) -> dict[str, Any]:
        """The track's whole-ring quantiles as JSON-able data."""
        return {
            "labels": dict(self.labels),
            "bounds": list(self.bounds),
            "step": self.step,
            "p50": _finite(self.quantile(0.5)),
            "p95": _finite(self.quantile(0.95)),
            "p99": _finite(self.quantile(0.99)),
            "observations": self.observations(),
        }


class TimeSeriesStore:
    """Label-keyed table of bounded series rings, all of one ``step`` and
    ``capacity``.

    One lock serialises every method here: :meth:`collect` runs on the
    reactor's thread, :meth:`names`, :meth:`family` and :meth:`snapshot`
    on whichever thread serves a request, and what a reader gets is a
    rendering made while no tick was writing.  No read creates a ring.
    """

    def __init__(
        self,
        *,
        step: float = 1.0,
        capacity: int = 512,
    ) -> None:
        self.step = step
        self.capacity = capacity
        #: name → label key → ring, families and rings in first-seen order.
        self._series: dict[str, dict[LabelItems, Series]] = {}
        self._histograms: dict[str, dict[LabelItems, HistogramSeries]] = {}
        self._lock = threading.Lock()

    # -- writes --------------------------------------------------------------

    def _series_for(self, name: str, key: LabelItems, kind: str) -> Series:
        table = self._series.get(name)
        if table is None:
            table = self._series[name] = {}
        series = table.get(key)
        if series is None:
            series = table[key] = Series(
                name, labels=key, kind=kind, step=self.step, capacity=self.capacity
            )
        return series

    def _histogram_for(
        self, name: str, key: LabelItems, bounds: tuple[float, ...]
    ) -> HistogramSeries:
        table = self._histograms.get(name)
        if table is None:
            table = self._histograms[name] = {}
        track = table.get(key)
        if track is None:
            track = table[key] = HistogramSeries(
                name, bounds, labels=key, step=self.step, capacity=self.capacity
            )
        return track

    def observe(
        self, name: str, t: float, value: float, *, kind: str = "gauge",
        **labels: Any,
    ) -> None:
        """One observation of ``name{labels}``, its ring created on first
        use (what :meth:`collect` does per registry series)."""
        with self._lock:
            self._series_for(name, _label_key(labels), kind).observe(t, value)

    def collect(self, registry: "MetricsRegistry", now: float) -> None:
        """Sample every registry series into the store at time *now*:
        counters and gauges land in value series, histograms in
        cumulative-count snapshots."""
        with self._lock:
            for family in registry.families():
                name = family.name
                if family.kind == "histogram":
                    for key, hist in family.series.items():
                        track = self._histogram_for(name, key, hist.bounds)
                        track.sample(now, hist.counts, hist.count, hist.sum)
                else:
                    kind = "counter" if family.kind == "counter" else "gauge"
                    for key, instrument in family.series.items():
                        self._series_for(name, key, kind).observe(
                            now, instrument.value
                        )

    # -- reads ---------------------------------------------------------------

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._series.keys() | self._histograms.keys())

    def get(self, name: str, **labels: Any) -> Series | None:
        """The ring of ``name{labels}`` if the store holds one — for the
        thread that ticks; another thread reads :meth:`family`."""
        table = self._series.get(name)
        return table.get(_label_key(labels)) if table is not None else None

    def family(self, name: str) -> dict[str, Any] | None:
        """Every labelled ring of one family name, value series and
        histogram tracks both, or None when the store holds neither."""
        with self._lock:
            series = [s.render() for s in self._series.get(name, {}).values()]
            histograms = [
                h.render() for h in self._histograms.get(name, {}).values()
            ]
        if not series and not histograms:
            return None
        return {"name": name, "series": series, "histograms": histograms}

    def snapshot(self) -> dict:
        """JSON-able dump of every value series ring."""
        with self._lock:
            return {
                name: [series.render() for series in table.values()]
                for name, table in self._series.items()
            }


class PeriodicCollector:
    """Recurring reactor timer feeding the store from the live registry.

    Each tick folds the bus's event log (through the registry and the
    estimators, which read it — the tick is the plane's cadence), runs the
    registered *scrapers* (callables taking the registry — the CLI passes
    closures over :func:`scrape_bus`, :func:`scrape_kernel`,
    :func:`scrape_detector`), lets the estimator suite export its gauges,
    samples every registry family into the store, and finally evaluates
    the health rules — one cadence for the whole statistical plane, in
    dependency order.
    """

    def __init__(
        self,
        *,
        store: TimeSeriesStore,
        registry: "MetricsRegistry",
        reactor: "Reactor",
        interval: float = 5.0,
        scrapers: tuple[Callable[["MetricsRegistry"], None], ...] = (),
        estimators: Any = None,
        health: Any = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        self.store = store
        self.registry = registry
        self.interval = interval
        self.scrapers = tuple(scrapers)
        self.estimators = estimators
        self.health = health
        self.ticks = 0
        self._reactor = reactor
        self._handle: "TimerHandle | None" = None
        self._running = False

    def start(self) -> None:
        if not self._running:
            self._running = True
            self._schedule()

    def stop(self) -> None:
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _schedule(self) -> None:
        self._handle = self._reactor.call_later(self.interval, self._fire)

    def _fire(self) -> None:
        if not self._running:
            return
        self.tick()
        self._schedule()

    def tick(self, now: float | None = None) -> None:
        """One collection pass (callable directly for tests/benchmarks)."""
        at = self._reactor.now() if now is None else now
        # Folded before anything is scraped, and held for the writes
        # below: another thread reads the registry between two ticks.
        with self.registry.synced():
            if self.estimators is not None:
                self.estimators.sync()
            for scraper in self.scrapers:
                scraper(self.registry)
            if self.estimators is not None:
                self.estimators.export(self.registry)
            self.store.collect(self.registry, at)
        if self.health is not None:
            self.health.evaluate(at)
        self.ticks += 1
