"""Bounded ring-buffer time-series store for the live telemetry plane.

The :class:`~repro.obs.metrics.MetricsRegistry` answers "what is the
value *now*"; this module answers "what has it been doing".  A
:class:`TimeSeriesStore` holds one :class:`Series` ring per (name,
labels) pair, downsampled into fixed-step buckets on the **simulation
clock**, with per-series retention (``capacity`` buckets — the oldest
bucket falls off when a newer one arrives).  Histograms are tracked as
:class:`HistogramSeries`: periodic snapshots of the cumulative bucket
counts, so windowed quantiles come from count *deltas* between two
snapshots rather than the whole run.

Design mirrors the registry on purpose:

* **mergeable** — :meth:`TimeSeriesStore.snapshot` /
  :meth:`TimeSeriesStore.merge` fold bucket-aligned points across
  processes the way registry snapshots fold counters;
* **export-agnostic** — :meth:`dump_jsonl` / :meth:`to_csv` are pure
  renderings of the rings.

Feeding happens on a cadence: :class:`PeriodicCollector` re-runs the
end-of-run scrapers against the live registry and samples every registry
family into the store on a recurring reactor timer, so ``/timeseries``
and the drift/health layers see the same numbers ``/metrics`` serves.
A tick does work only for the series whose value moved since the last
one (see :class:`TimeSeriesStore`); the rest catch up when read.
"""

from __future__ import annotations

import json
import math
import struct
import threading
from array import array
from contextlib import contextmanager
from itertools import islice
from math import copysign
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Sequence

from .export import atomic_write_text
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

#: ``Series._synced`` of a ring no registry instrument feeds: it is never
#: behind the store's tick count.
_UNFED = math.inf

#: The tick log is not trimmed below this many entries.
_MIN_TICK_LOG = 64


class Series:
    """One metric's history: fixed-step buckets in a bounded ring.

    ``kind`` shapes the window queries:

    * ``"gauge"``   — sampled level; :meth:`rate` is the slope;
    * ``"counter"`` — sampled monotone total; :meth:`rate` is the delta
      of *last* values over the window span;
    * ``"event"``   — each observation is one occurrence; :meth:`rate`
      is occurrences per second.
    """

    __slots__ = (
        "name",
        "labels",
        "kind",
        "step",
        "capacity",
        "_points",
        "_store",
        "_instrument",
        "_held",
        "_synced",
    )

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
        if kind not in ("gauge", "counter", "event"):
            raise ValueError(f"unknown series kind {kind!r}")
        self.name = name
        self.labels = labels
        self.kind = kind
        self.step = step
        self.capacity = capacity
        self._points = array("d")
        #: The store this ring belongs to, if any.  While a registry
        #: instrument feeds the ring (:meth:`TimeSeriesStore.collect`),
        #: ``_instrument`` is that instrument, ``_held`` the value last
        #: sampled and ``_synced`` how many of the store's ticks the ring
        #: reflects; the ticks in between sampled ``_held`` again and are
        #: replayed on the next read or write.  Read through the methods
        #: below, never ``_points``.
        self._store: "TimeSeriesStore | None" = None
        self._instrument: Any = None
        self._held = math.nan
        self._synced: float = _UNFED

    @contextmanager
    def _reading(self) -> Iterator[array]:
        """The ring, caught up with its store's ticks, for the length of
        one read (under the store's lock: a read may write)."""
        store = self._store
        if store is None:
            yield self._points
            return
        with store._lock:
            store._replay(self)
            yield self._points

    def __len__(self) -> int:
        with self._reading() as points:
            return len(points) // _STRIDE

    def observe(self, t: float, value: float = 1.0) -> None:
        """Record *value* at simulation time *t* (downsampled into the
        ``t // step`` bucket; out-of-order samples fold into the newest
        bucket rather than being dropped)."""
        store = self._store
        if store is not None and self._synced < store._tick_count:
            store._replay(self)
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
        with self._reading() as points:
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

    def latest(self) -> float | None:
        """Most recent observed value, or None on an empty ring."""
        with self._reading() as points:
            return points[-1] if points else None

    def mean(self, since: float | None = None) -> float | None:
        """Mean of the raw observations in the window."""
        with self._reading() as points:
            window = _window(points, since, None)
            total = sum(points[p + _N] for p in window)
            if not total:
                return None
            return sum(points[p + _SUM] for p in window) / total

    def rate(self, since: float | None = None) -> float | None:
        """Per-second rate over the window (see class docstring for how
        each kind derives it); None when the window can't support one."""
        with self._reading() as points:
            window = _window(points, since, None)
            if not window:
                return None
            first, last = window[0], window[-1]
            if self.kind == "event":
                span = points[last] - points[first] + self.step
                return sum(points[p + _N] for p in window) / span
            if len(window) < 2:
                return None
            span = points[last] - points[first]
            if span <= 0:
                return None
            return (points[last + _LAST] - points[first + _LAST]) / span


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
    """

    __slots__ = (
        "name",
        "labels",
        "bounds",
        "step",
        "capacity",
        "_samples",
        "_instrument",
    )

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
        #: The registry histogram :meth:`TimeSeriesStore.collect` samples
        #: into this track, while one does.
        self._instrument: Any = None

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


class _Feed:
    """The rings one registry family feeds, in the family's own series
    order (which only ever grows); each ring holds its instrument."""

    __slots__ = ("family", "series")

    def __init__(self, family: Any) -> None:
        self.family = family
        self.series: list[Any] = []


class TimeSeriesStore:
    """Label-keyed table of bounded series rings.

    ``step`` and ``capacity`` are store-wide defaults; individual series
    may override both.

    :meth:`collect` costs one comparison per registry series whose value
    held still and one :meth:`Series.observe` per series whose value
    moved.  The store logs each tick's time instead; a ring that sat
    ticks out replays them, with the value it held, when it is next read
    or written — every accessor here and every :class:`Series` read
    method does so, under one lock that also serialises them against
    :meth:`collect`, so what any reader sees is what sampling every
    series on every tick would have built.
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
        self._lock = threading.RLock()
        #: ``(registry, registry.generation)`` the feeds were bound under,
        #: and one feed per registry family in registration order.
        self._source: tuple[Any, int] | None = None
        self._feeds: list[_Feed] = []
        #: The tick log: non-decreasing times of recent collect() calls.
        #: ``_tick_count`` ticks were ever logged, the first ``_tick_base``
        #: of them already trimmed off; the log is next trimmed when it
        #: grows past ``_tick_limit``.  ``_shapes`` are the (step,
        #: capacity) pairs of fed rings, which decide what can be trimmed.
        self._tick_times: list[float] = []
        self._tick_base = 0
        self._tick_count = 0
        self._tick_limit = _MIN_TICK_LOG
        self._shapes: set[tuple[float, int]] = set()

    # -- series lookup -------------------------------------------------------

    def series(
        self,
        name: str,
        *,
        kind: str = "gauge",
        step: float | None = None,
        capacity: int | None = None,
        **labels: Any,
    ) -> Series:
        return self._series_for(name, _label_key(labels), kind, step, capacity)

    def _series_for(
        self,
        name: str,
        key: LabelItems,
        kind: str,
        step: float | None = None,
        capacity: int | None = None,
    ) -> Series:
        table = self._series.get(name)
        series = table.get(key) if table is not None else None
        if series is None:
            series = Series(
                name,
                labels=key,
                kind=kind,
                step=step if step is not None else self.step,
                capacity=capacity if capacity is not None else self.capacity,
            )
            series._store = self
            # Readers on other threads iterate the tables under the lock.
            with self._lock:
                if table is None:
                    table = self._series[name] = {}
                table[key] = series
        return series

    def _histogram_for(
        self, name: str, key: LabelItems, bounds: tuple[float, ...]
    ) -> HistogramSeries:
        table = self._histograms.get(name)
        series = table.get(key) if table is not None else None
        if series is None:
            series = HistogramSeries(
                name, bounds, labels=key, step=self.step, capacity=self.capacity
            )
            with self._lock:
                if table is None:
                    table = self._histograms[name] = {}
                table[key] = series
        return series

    def observe(
        self, name: str, t: float, value: float = 1.0, *, kind: str = "gauge",
        **labels: Any,
    ) -> None:
        self.series(name, kind=kind, **labels).observe(t, value)

    # -- registry sampling ---------------------------------------------------

    def collect(self, registry: "MetricsRegistry", now: float) -> None:
        """Sample every registry family into the store at time *now*:
        counters and gauges land in value series, histograms in
        cumulative-count snapshots.

        A value series whose instrument still reads what it last sampled
        is left alone (the tick goes in the log, see the class
        docstring); NaN never equals itself and so is sampled every tick.
        """
        with self._lock:
            source = (registry, registry.generation)
            if source != self._source:
                # Another registry, or this one cleared or merged into:
                # the old instruments feed nothing from here on.
                self._settle(release=True)
                self._source = source
            times = self._tick_times
            if times and now < times[-1]:
                # Replay and trimming rely on an ordered log.
                self._settle(release=False)
            feeds = self._feeds
            after = self._tick_count + 1
            for index, family in enumerate(registry.families()):
                if index == len(feeds):
                    feeds.append(_Feed(family))
                feed = feeds[index]
                fed = feed.series
                if len(family.series) > len(fed):
                    self._bind(feed)
                if family.kind == "histogram":
                    for track in fed:
                        hist = track._instrument
                        track.sample(now, hist.counts, hist.count, hist.sum)
                    continue
                for series in fed:
                    value = series._instrument.value
                    held = series._held
                    if value == held and (
                        value or copysign(1.0, value) == copysign(1.0, held)
                    ):
                        continue
                    # observe() first replays the ticks the ring sat out.
                    series.observe(now, value)
                    series._held = value
                    series._synced = after
            times.append(now)
            self._tick_count = after
            if len(times) > self._tick_limit:
                self._trim_ticks()

    def _bind(self, feed: _Feed) -> None:
        """Pair the family's series that appeared since the last tick
        with their rings (creating those the store has not seen)."""
        family = feed.family
        fed = feed.series
        fresh = islice(family.series.items(), len(fed), None)
        if family.kind == "histogram":
            for key, hist in fresh:
                track = self._histogram_for(family.name, key, hist.bounds)
                track._instrument = hist
                fed.append(track)
            return
        kind = "counter" if family.kind == "counter" else "gauge"
        for key, instrument in fresh:
            # An unfed ring holds NaN: sampled on this tick whatever it reads.
            series = self._series_for(family.name, key, kind)
            series._instrument = instrument
            self._shapes.add((series.step, series.capacity))
            fed.append(series)

    def _replay(self, series: Series) -> None:
        """Bring a fed ring up to date: one ``observe(t, held)`` per tick
        it sat out, oldest first (nothing to do for any other ring)."""
        with self._lock:
            if series._synced >= self._tick_count:
                return
            start = series._synced - self._tick_base
            series._synced = self._tick_count  # observe() checks it
            times = self._tick_times
            held = series._held
            observe = series.observe
            if start < 0:
                # -start of its ticks are off the log; none was later
                # than times[0].  If even that one folds into the ring's
                # newest bucket they all did, and any time that folds
                # stands in for theirs.  Otherwise the log still spans
                # capacity + 1 newer buckets (_trim_ticks), which push
                # out whatever the trimmed ticks would have built.
                points = series._points
                first = times[0]
                step = series.step
                if points and math.floor(first / step) * step <= points[-_STRIDE]:
                    for _ in range(-start):
                        observe(first, held)
                start = 0
            for t in islice(times, start, None):
                observe(t, held)

    def _trim_ticks(self) -> None:
        """Drop the ticks no ring can need: all but the newest that, for
        every fed ring's (step, capacity), span capacity + 1 buckets —
        a ring further behind than that keeps none of the older ones."""
        times = self._tick_times
        keep = len(times)
        for step, capacity in self._shapes:
            index, buckets, newest = len(times), 0, None
            while index and buckets <= capacity:
                index -= 1
                bucket = math.floor(times[index] / step)
                if bucket != newest:
                    newest = bucket
                    buckets += 1
            keep = min(keep, index)
        del times[:keep]
        self._tick_base += keep
        self._tick_limit = max(_MIN_TICK_LOG, 2 * len(times))

    def _settle(self, *, release: bool) -> None:
        """Replay every fed ring up to the last tick and empty the log;
        with *release*, the instruments also stop feeding them."""
        for feed in self._feeds:
            if feed.family.kind == "histogram":
                if release:
                    for track in feed.series:
                        track._instrument = None
                continue
            for series in feed.series:
                self._replay(series)
                if release:
                    series._instrument = None
                    series._held = math.nan
                    series._synced = _UNFED
        if release:
            self._feeds = []
            self._shapes.clear()
        del self._tick_times[:]
        self._tick_base = self._tick_count

    # -- queries -------------------------------------------------------------

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._series.keys() | self._histograms.keys())

    def get(self, name: str, **labels: Any) -> Series | None:
        table = self._series.get(name)
        return table.get(_label_key(labels)) if table is not None else None

    def all_series(self) -> Iterator[Series]:
        """Every value series, family by family."""
        with self._lock:
            return iter(
                [s for table in self._series.values() for s in table.values()]
            )

    def matching(self, name: str) -> list[Series]:
        """Every labelled series of one family name."""
        with self._lock:
            return list(self._series.get(name, {}).values())

    def matching_histograms(self, name: str) -> list[HistogramSeries]:
        with self._lock:
            return list(self._histograms.get(name, {}).values())

    # -- snapshots (cross-process aggregation) -------------------------------

    def snapshot(self) -> dict:
        """JSON-able dump of every series ring (the merge wire format)."""
        with self._lock:
            return {
                name: [
                    {
                        "labels": dict(series.labels),
                        "kind": series.kind,
                        "step": series.step,
                        "points": series.points(),
                    }
                    for series in table.values()
                ]
                for name, table in self._series.items()
            }

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold another store's :meth:`snapshot` into this one: points
        align by bucket time (counts/sums add, min/max widen, the later
        snapshot's *last* wins)."""
        with self._lock:
            for name, records in snapshot.items():
                for record in records:
                    series = self.series(
                        name, kind=record.get("kind", "gauge"), **record["labels"]
                    )
                    self._replay(series)
                    points = series._points
                    size = len(points)
                    by_bucket = {points[p]: p for p in range(0, size, _STRIDE)}
                    for point in record["points"]:
                        mine = by_bucket.get(point["t"])
                        if mine is None:
                            points.extend(
                                (
                                    point["t"],
                                    point["count"],
                                    point["sum"],
                                    point["min"],
                                    point["max"],
                                    point["last"],
                                )
                            )
                        else:
                            points[mine + _N] += point["count"]
                            points[mine + _SUM] += point["sum"]
                            points[mine + _MIN] = min(
                                points[mine + _MIN], point["min"]
                            )
                            points[mine + _MAX] = max(
                                points[mine + _MAX], point["max"]
                            )
                            points[mine + _LAST] = point["last"]
                    if len(points) > size:
                        # Stable by bucket time, as sorting the points
                        # themselves would be.
                        order = sorted(
                            range(0, len(points), _STRIDE), key=points.__getitem__
                        )
                        order = order[-series.capacity :]
                        series._points = array(
                            "d", [x for p in order for x in points[p : p + _STRIDE]]
                        )

    # -- exports -------------------------------------------------------------

    def _sorted_series(self) -> Iterator[tuple[str, Series]]:
        """``(name, series)`` by name, then by label key."""
        for name in sorted(self._series):
            table = self._series[name]
            for key in sorted(table):
                yield name, table[key]

    def dump_jsonl(self, path: str | Path) -> int:
        """One JSON line per series ring; returns the line count."""
        lines = []
        with self._lock:
            for name, series in self._sorted_series():
                lines.append(
                    json.dumps(
                        {
                            "series": name,
                            "labels": dict(series.labels),
                            "kind": series.kind,
                            "step": series.step,
                            "points": series.points(),
                        },
                        sort_keys=True,
                    )
                )
        atomic_write_text(path, "".join(line + "\n" for line in lines))
        return len(lines)

    def to_csv(self, name: str | None = None) -> str:
        """Flat CSV of the rings (one row per point), optionally filtered
        to one family name."""
        rows = ["series,labels,t,count,sum,min,max,last"]
        with self._lock:
            for family, series in self._sorted_series():
                if name is not None and family != name:
                    continue
                label_text = ";".join(f"{k}={v}" for k, v in series.labels)
                for p in series.points():
                    rows.append(
                        f"{family},{label_text},{p['t']:g},{p['count']:g},"
                        f"{p['sum']:g},{p['min']:g},{p['max']:g},{p['last']:g}"
                    )
        return "\n".join(rows) + "\n"


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
