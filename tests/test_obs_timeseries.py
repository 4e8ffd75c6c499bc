"""Time-series store tests: fixed-step downsampling, ring retention,
per-kind rate queries, windowed histogram quantiles, registry sampling,
and the PeriodicCollector cadence + tick ordering."""

from __future__ import annotations

import math

import pytest

from repro.grid import SimReactor
from repro.obs import (
    HistogramSeries,
    MetricsRegistry,
    PeriodicCollector,
    Series,
    TimeSeriesStore,
)


class TestSeries:
    def test_downsamples_into_fixed_step_buckets(self):
        series = Series("s", step=10.0)
        series.observe(1.0, 4.0)
        series.observe(4.0, 8.0)
        series.observe(12.0, 2.0)
        points = series.points()
        assert [p["t"] for p in points] == [0.0, 10.0]
        first, second = points
        assert first["count"] == 2 and first["sum"] == 12.0
        assert first["min"] == 4.0 and first["max"] == 8.0
        assert first["last"] == 8.0
        assert second["count"] == 1 and second["last"] == 2.0

    def test_out_of_order_sample_folds_into_newest_bucket(self):
        series = Series("s", step=10.0)
        series.observe(25.0, 1.0)
        series.observe(3.0, 9.0)  # late arrival, not dropped
        (point,) = series.points()
        assert point["t"] == 20.0
        assert point["count"] == 2 and point["max"] == 9.0

    def test_ring_evicts_oldest_bucket(self):
        series = Series("s", step=1.0, capacity=4)
        for t in range(10):
            series.observe(float(t), float(t))
        assert len(series) == 4
        assert [p["t"] for p in series.points()] == [6.0, 7.0, 8.0, 9.0]

    def test_window_queries(self):
        series = Series("s", step=1.0)
        for t in range(6):
            series.observe(float(t), float(t))
        assert [p["t"] for p in series.points(since=2.0, until=4.0)] == [
            2.0,
            3.0,
            4.0,
        ]

    def test_gauge_rate_is_the_slope(self):
        series = Series("s", kind="gauge", step=1.0)
        series.observe(0.0, 10.0)
        series.observe(4.0, 30.0)
        assert series.rate() == pytest.approx(5.0)

    def test_counter_rate_is_delta_of_totals(self):
        series = Series("s", kind="counter", step=1.0)
        series.observe(0.0, 100.0)
        series.observe(10.0, 160.0)
        assert series.rate() == pytest.approx(6.0)
        assert series.rate(since=10.0) is None  # one-point window

    def test_empty_series_answers_none(self):
        series = Series("s")
        assert series.points() == []
        assert series.rate() is None

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Series("s", step=0.0)
        with pytest.raises(ValueError):
            Series("s", capacity=1)
        with pytest.raises(ValueError):
            Series("s", kind="mystery")


class TestHistogramSeries:
    def make(self):
        track = HistogramSeries("h", bounds=(1.0, 10.0), step=5.0)
        # Cumulative snapshots: 3 obs below 1.0 by t=0, then 4 more
        # landing in the (1, 10] bucket by t=10.
        track.sample(0.0, (3, 0, 0), 3, 1.5)
        track.sample(10.0, (3, 4, 0), 7, 21.5)
        return track

    def test_whole_run_quantile(self):
        track = self.make()
        # 7 observations: 3 under 1.0, 4 in (1, 10] — the 25th percentile
        # sits in the first bucket, the median in the second.
        assert track.quantile(0.25) == 1.0
        assert track.quantile(0.5) == 10.0
        assert track.quantile(0.95) == 10.0
        assert track.observations() == 7

    def test_windowed_quantile_uses_count_deltas(self):
        track = self.make()
        # Window past the first snapshot: only the 4 later observations,
        # all in the (1, 10] bucket.
        assert track.quantile(0.5, since=5.0) == 10.0
        assert track.observations(since=5.0) == 4

    def test_empty_window_is_nan(self):
        track = HistogramSeries("h", bounds=(1.0,))
        assert math.isnan(track.quantile(0.5))
        assert track.observations() == 0

    def test_same_bucket_sample_overwrites(self):
        track = HistogramSeries("h", bounds=(1.0,), step=5.0)
        track.sample(0.0, (1, 0), 1, 0.5)
        track.sample(2.0, (2, 0), 2, 1.0)  # same 5s bucket
        assert len(track) == 1
        assert track.observations() == 2


class TestTimeSeriesStore:
    def test_series_is_memoised_per_label_set(self):
        store = TimeSeriesStore()
        store.observe("s", 0.0, 1.0, host="h1")
        a = store.get("s", host="h1")
        store.observe("s", 1.0, 2.0, host="h1")
        store.observe("s", 1.0, 3.0, host="h2")
        assert store.get("s", host="h1") is a and len(a) == 2
        assert store.get("s", host="h2") is not a
        assert store.names() == ["s"]
        assert len(store.family("s")["series"]) == 2

    def test_collect_samples_registry_families(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", technique="retrying").inc(3)
        registry.gauge("pool_workers").set(4.0)
        hist = registry.histogram("attempt_seconds", buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)

        store = TimeSeriesStore(step=5.0)
        store.collect(registry, now=0.0)
        registry.counter("jobs_total", technique="retrying").inc(2)
        store.collect(registry, now=10.0)

        counter = store.get("jobs_total", technique="retrying")
        assert counter.kind == "counter"
        assert [p["last"] for p in counter.points()] == [3.0, 5.0]
        assert counter.rate() == pytest.approx(0.2)
        assert store.get("pool_workers").points()[-1]["last"] == 4.0
        (track,) = store.family("attempt_seconds")["histograms"]
        assert track["p50"] == 1.0 and track["observations"] == 2
        assert "attempt_seconds" in store.names()


class _Recorder:
    """Stub estimators/health recording the collector's call order."""

    def __init__(self, log, tag):
        self.log = log
        self.tag = tag

    def sync(self):
        self.log.append("fold")

    def export(self, registry):
        self.log.append(self.tag)

    def evaluate(self, at):
        self.log.append((self.tag, at))


class TestPeriodicCollector:
    def test_tick_runs_the_plane_in_dependency_order(self):
        log: list = []
        registry = MetricsRegistry()
        store = TimeSeriesStore(step=1.0)
        reactor = SimReactor()
        collector = PeriodicCollector(
            store=store,
            registry=registry,
            reactor=reactor,
            interval=5.0,
            scrapers=(lambda reg: log.append("scrape"),),
            estimators=_Recorder(log, "export"),
            health=_Recorder(log, "health"),
        )
        registry.gauge("g").set(1.0)
        collector.tick(now=7.0)
        assert log == ["fold", "scrape", "export", ("health", 7.0)]
        assert collector.ticks == 1
        # The registry sample landed in the store at the tick time.
        (point,) = store.get("g").points()
        assert point["t"] == 7.0

    def test_recurring_timer_fires_on_the_reactor_cadence(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(2.0)
        reactor = SimReactor()
        store = TimeSeriesStore(step=5.0)
        collector = PeriodicCollector(
            store=store, registry=registry, reactor=reactor, interval=5.0
        )
        collector.start()
        reactor.run_until_idle(timeout=16.0)
        collector.stop()
        assert collector.ticks == 3  # t=5, 10, 15
        assert [p["t"] for p in store.get("g").points()] == [5.0, 10.0, 15.0]
        # Stopped: driving the reactor further adds nothing.
        reactor.run_until_idle(timeout=50.0)
        assert collector.ticks == 3

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            PeriodicCollector(
                store=TimeSeriesStore(),
                registry=MetricsRegistry(),
                reactor=SimReactor(),
                interval=0.0,
            )
