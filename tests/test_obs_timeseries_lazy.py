"""The store samples only what changed; readers must not be able to tell.

``TimeSeriesStore.collect`` skips a series whose instrument still reads
what it last sampled and replays the skipped ticks when the ring is next
read or written.  The reference here is the loop it replaced — every
series observed on every tick — kept as :class:`EagerStore`; a random
interleaving of instrument writes, ticks, reads through every accessor,
registry resets and direct ring writes must leave both stores rendering
the same bytes.  Ring capacity is 4–8 and the tick log is allowed to trim
from 4 entries up, so eviction and trimming happen in most examples.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, Series, TimeSeriesStore
from repro.obs import timeseries


class EagerStore(TimeSeriesStore):
    """The sampling loop ``collect`` used to be.  It logs no ticks, so its
    rings are never behind and its reads never replay."""

    def collect(self, registry, now):
        for family in registry.families():
            if family.kind == "histogram":
                for key, hist in family.series.items():
                    track = self._histogram_for(family.name, key, hist.bounds)
                    track.sample(now, hist.counts, hist.count, hist.sum)
            else:
                kind = "counter" if family.kind == "counter" else "gauge"
                for key, instrument in family.series.items():
                    series = self._series_for(family.name, key, kind)
                    series.observe(now, instrument.value)


GAUGES = ("g0", "g1")
COUNTERS = ("c0",)
LABELS = ({}, {"k": "a"}, {"k": "b"}, {"k": "c"})

values = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.sampled_from([1.0, 2.5, -3.0, math.nan, math.inf, 1e9]),
    st.integers(-3, 3).map(float),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)
amounts = st.sampled_from([0.0, 1.0, 2.0, 0.5])
labels = st.sampled_from(LABELS)
#: Against step 1.0 (or 2.5): several ticks per bucket, one, and gaps.
advances = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0, 2.5, 7.0])
sinces = st.one_of(st.none(), st.floats(0.0, 60.0))

READS = (
    "points",
    "window",
    "latest",
    "mean",
    "rate",
    "len",
    "get",
    "series",
    "matching",
    "all_series",
    "to_csv",
)

ops = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(GAUGES), labels, values),
    st.tuples(st.just("inc"), st.sampled_from(GAUGES), labels, values),
    st.tuples(st.just("count"), st.sampled_from(COUNTERS), labels, amounts),
    st.tuples(st.just("time"), labels, st.floats(0.0, 20.0)),
    # A run of ticks with nothing written in between: what lets rings lag.
    st.tuples(st.just("tick"), advances, st.integers(1, 30)),
    st.tuples(st.just("tick"), advances, st.integers(1, 30)),
    st.tuples(st.just("tick_back"), st.floats(0.0, 5.0)),
    st.tuples(
        st.just("read"),
        st.sampled_from(GAUGES + COUNTERS),
        labels,
        st.sampled_from(READS),
        sinces,
    ),
    st.tuples(st.just("clear")),
    st.tuples(st.just("merge_registry"), st.sampled_from(GAUGES), labels, values),
    # A ring declared before any instrument feeds it, with its own shape.
    st.tuples(
        st.just("declare"),
        st.sampled_from(GAUGES),
        labels,
        st.sampled_from([0.5, 3.0]),
        st.integers(2, 5),
    ),
    st.tuples(
        st.just("observe"),
        st.sampled_from(GAUGES),
        labels,
        st.floats(0.0, 80.0),
        values,
    ),
    st.tuples(
        st.just("merge_store"),
        st.sampled_from(GAUGES),
        labels,
        st.floats(0.0, 80.0),
    ),
)


def render(store: TimeSeriesStore) -> tuple[str, str]:
    return json.dumps(store.snapshot(), sort_keys=True), store.to_csv()


def comparable(value):
    """NaN-safe, sign-of-zero-preserving form of a read's result."""
    return json.dumps(value, sort_keys=True)


def read(store: TimeSeriesStore, held: dict, name, label, how, since):
    """One read of ``name{label}`` through accessor *how*; *held* keeps the
    first reference handed out, so later reads go through a stale one."""
    if how == "to_csv":
        return store.to_csv(name)
    if how == "matching":
        return [(s.labels, s.points()) for s in store.matching(name)]
    if how == "all_series":
        return [(s.name, s.labels, len(s)) for s in store.all_series()]
    if how == "series":
        kind = "counter" if name in COUNTERS else "gauge"
        series = store.series(name, kind=kind, **label)
    else:
        series = store.get(name, **label)
        if series is None:
            return None
        series = held.setdefault((name, tuple(label.items())), series)
    if how == "window":
        return series.points(since, None if since is None else since + 6.0)
    if how == "latest":
        return series.latest()
    if how == "mean":
        return series.mean(since)
    if how == "rate":
        return series.rate(since)
    if how == "len":
        return len(series)
    return series.points()


def lengths(store: TimeSeriesStore):
    return [(s.name, s.labels, len(s), s.latest()) for s in store.all_series()]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(ops, max_size=40),
    st.integers(4, 8),
    st.sampled_from([1.0, 2.5]),
    st.booleans(),
)
def test_lazy_store_renders_what_eager_sampling_would(
    sequence, capacity, step, check_every_step
):
    """*check_every_step* compares everything after each operation; without
    it only the drawn reads touch the store mid-sequence, so rings fall
    many ticks (and log trims) behind before anyone looks."""
    registry = MetricsRegistry()
    lazy = TimeSeriesStore(step=step, capacity=capacity)
    eager = EagerStore(step=step, capacity=capacity)
    held_lazy: dict = {}
    held_eager: dict = {}
    now = 0.0
    with mock.patch.object(timeseries, "_MIN_TICK_LOG", 4):
        lazy._tick_limit = 4
        for op in sequence:
            what = op[0]
            if what == "set":
                registry.gauge(op[1], **op[2]).set(op[3])
            elif what == "inc":
                registry.gauge(op[1], **op[2]).inc(op[3])
            elif what == "count":
                registry.counter(op[1], **op[2]).inc(op[3])
            elif what == "time":
                registry.histogram("h0", **op[1]).observe(op[2])
            elif what == "tick":
                for _ in range(op[2]):
                    now += op[1]
                    lazy.collect(registry, now)
                    eager.collect(registry, now)
            elif what == "tick_back":
                now = max(0.0, now - op[1])
                lazy.collect(registry, now)
                eager.collect(registry, now)
            elif what == "read":
                assert comparable(read(lazy, held_lazy, *op[1:])) == comparable(
                    read(eager, held_eager, *op[1:])
                )
            elif what == "clear":
                registry.clear()
            elif what == "merge_registry":
                other = MetricsRegistry()
                other.gauge(op[1], **op[2]).set(op[3])
                registry.merge(other.snapshot())
            elif what == "declare":
                for store in (lazy, eager):
                    store.series(op[1], step=op[3], capacity=op[4], **op[2])
            elif what == "observe":
                # Through a reference handed out earlier, where there is one.
                for store, held in ((lazy, held_lazy), (eager, held_eager)):
                    series = held.get((op[1], tuple(op[2].items())))
                    if series is None:
                        series = store.series(op[1], **op[2])
                    series.observe(op[3], op[4])
            elif what == "merge_store":
                donor = TimeSeriesStore(step=step, capacity=capacity)
                donor.observe(op[1], op[3], 4.0, **op[2])
                for store in (lazy, eager):
                    store.merge(donor.snapshot())
            if check_every_step:
                assert render(lazy) == render(eager)
                assert comparable(lengths(lazy)) == comparable(lengths(eager))
        assert comparable(lengths(lazy)) == comparable(lengths(eager))
        assert render(lazy) == render(eager)
        assert lazy.names() == eager.names()
        for name in lazy.names():
            assert [
                (h.labels, h._samples) for h in lazy.matching_histograms(name)
            ] == [(h.labels, h._samples) for h in eager.matching_histograms(name)]
        # The log holds what the slowest-moving shape needs and no more
        # than twice that (it is trimmed when it doubles).
        assert len(lazy._tick_times) <= max(4, lazy._tick_limit)


@contextmanager
def counting_observe():
    """Counts ``Series.observe`` calls (``.calls``) while patched in."""
    counter = SimpleNamespace(calls=0)
    real = Series.observe

    def observe(series, t, value=1.0):
        counter.calls += 1
        real(series, t, value)

    with mock.patch.object(Series, "observe", observe):
        yield counter


class TestTickCost:
    def test_a_tick_observes_exactly_the_series_that_changed(self):
        n, k = 40, 7
        registry = MetricsRegistry()
        gauges = [registry.gauge("g", i=i) for i in range(n)]
        store = TimeSeriesStore(step=1.0)
        store.collect(registry, 0.0)
        rings = [store.get("g", i=i) for i in range(n)]
        for gauge in gauges[:k]:
            gauge.inc()
        with counting_observe() as counting:
            store.collect(registry, 1.0)
            assert counting.calls == k
            # Nothing was written for the rest: each of them still owes
            # exactly that one tick's observation...
            for ring in rings[:k]:
                assert len(ring) == 2
            assert counting.calls == k
            # ...until someone looks: then the skipped tick is there.
            for done, ring in enumerate(rings[k:], start=1):
                assert len(ring) == 2
                assert counting.calls == k + done
            assert [len(ring) for ring in rings] == [2] * n
            assert counting.calls == n
        assert rings[-1].points()[-1] == {
            "t": 1.0,
            "count": 1,
            "sum": 0.0,
            "min": 0.0,
            "max": 0.0,
            "last": 0.0,
        }

    def test_serving_one_family_catches_up_that_family_only(self):
        from repro.obs import TelemetryServer

        registry = MetricsRegistry()
        for i in range(3):
            registry.gauge("wanted", i=i).set(1.0)
            registry.gauge("other", i=i).set(2.0)
        store = TimeSeriesStore()
        for t in range(5):
            store.collect(registry, float(t))
        with counting_observe() as counting:
            payload = TelemetryServer(store=store).render_timeseries("wanted")
            assert [len(ring["points"]) for ring in payload["series"]] == [5, 5, 5]
            assert counting.calls == 3 * 4
            # The other family was left four ticks behind: reading it now
            # costs those twelve observations, not zero.
            assert [len(s) for s in store.matching("other")] == [5, 5, 5]
            assert counting.calls == 2 * 3 * 4

    def test_first_tick_samples_everything_once(self):
        registry = MetricsRegistry()
        for i in range(5):
            registry.counter("c", i=i)
        store = TimeSeriesStore()
        with counting_observe() as counting:
            store.collect(registry, 0.0)
            assert counting.calls == 5
            store.collect(registry, 1.0)
            assert counting.calls == 5

    def test_nan_is_sampled_every_tick(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(math.nan)
        store = TimeSeriesStore()
        with counting_observe() as counting:
            for t in range(4):
                store.collect(registry, float(t))
        assert counting.calls == 4

    def test_tick_log_stays_bounded_over_idle_ticks(self):
        capacity = 16
        registry = MetricsRegistry()
        registry.gauge("idle").set(3.0)
        registry.counter("busy")
        lazy = TimeSeriesStore(step=1.0, capacity=capacity)
        eager = EagerStore(step=1.0, capacity=capacity)
        longest = 0
        with counting_observe() as counting:
            for t in range(10_000):
                registry.counter("busy").inc()
                lazy.collect(registry, float(t))
                longest = max(longest, len(lazy._tick_times))
            # The idle gauge was observed once, the counter every tick.
            assert counting.calls == 10_000 + 1
        assert longest <= max(2 * (capacity + 1), 2 * timeseries._MIN_TICK_LOG)
        for t in range(10_000):
            eager.collect(registry, float(t))  # final values; same rings
        assert lazy.get("idle").points() == eager.get("idle").points()
        assert len(lazy.get("idle")) == capacity



def idle_pair(times, *, step, capacity, prepare=None):
    """One gauge that never moves, sampled at *times* by a lazy and an
    eager store (trimming from 4 log entries up); nothing reads the lazy
    ring until the caller does."""
    registry = MetricsRegistry()
    registry.gauge("g").set(0.1)
    stores = (
        TimeSeriesStore(step=step, capacity=capacity),
        EagerStore(step=step, capacity=capacity),
    )
    with mock.patch.object(timeseries, "_MIN_TICK_LOG", 4):
        stores[0]._tick_limit = 4
        for i, t in enumerate(times):
            for store in stores:
                store.collect(registry, t)
                if i == 0 and prepare is not None:
                    prepare(store)
    return stores


class TestReplayBehindATrimmedLog:
    """Each case leaves a ring further behind than the log reaches back."""

    def test_several_ticks_per_bucket(self):
        # interval < step: the log is cut in the middle of a bucket, and
        # that bucket must be gone from the ring by the time it is read.
        for ticks in range(50, 330, 7):
            lazy, eager = idle_pair(
                [i * 0.25 for i in range(ticks)], step=2.0, capacity=4
            )
            assert lazy._tick_base > 0
            assert lazy.get("g").points() == eager.get("g").points(), ticks
            assert render(lazy) == render(eager)

    def test_ring_whose_newest_bucket_is_ahead_of_the_clock(self):
        # Every tick folds into that bucket, trimmed ones included.
        def jump_ahead(store):
            store.get("g").observe(1000.0, 7.0)

        times = [float(t) for t in range(200)]
        lazy, eager = idle_pair(times, step=1.0, capacity=4, prepare=jump_ahead)
        assert lazy._tick_base > 0
        assert lazy.get("g").points() == eager.get("g").points()
        assert lazy.get("g").points()[-1]["count"] == 200

    def test_clock_stepping_back(self):
        # The second pass folds into the first pass's newest bucket.
        times = [float(t) for t in range(100)] * 2
        lazy, eager = idle_pair(times, step=1.0, capacity=4)
        assert lazy.get("g").points() == eager.get("g").points()
        assert lazy.get("g").points()[-1]["count"] == 101

    def test_negative_zero_is_a_change(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        lazy, eager = TimeSeriesStore(), EagerStore()
        for t, value in enumerate([0.0, -0.0, -0.0, 0.0]):
            gauge.set(value)
            lazy.collect(registry, float(t))
            eager.collect(registry, float(t))
        assert render(lazy) == render(eager)
        signs = [math.copysign(1.0, p["last"]) for p in lazy.get("g").points()]
        assert signs == [1.0, -1.0, -1.0, 1.0]
