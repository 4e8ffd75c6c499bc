"""The flat ``array('d')`` ring renders what the list-of-lists ring did.

:class:`ListRing` is the ring :class:`~repro.obs.timeseries.Series` used
to be — a list of six-element lists, evicting from the front — kept here
as the reference.  Random interleavings of observations (out of order,
NaN, both zeros, both infinities), reads through every window query and —
at store level — collector ticks (several per bucket, runs of them with
nothing written in between, one that goes back in time), registry resets
and merges between ticks and direct observations must leave both
rendering the same JSON.  Capacities are 2–8, so the ring is full and
evicting in most examples.
"""

from __future__ import annotations

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, Series, TimeSeriesStore
from tests.helpers import bound_series

T, N, SUM, MIN, MAX, LAST = range(6)


class ListRing:
    """Reference ring: the list-of-lists implementation, as it was."""

    def __init__(self, *, step: float, capacity: int) -> None:
        self.step = step
        self.capacity = capacity
        self.ring: list[list[float]] = []

    def observe(self, t: float, value: float) -> None:
        bucket = math.floor(t / self.step) * self.step
        ring = self.ring
        if ring and bucket <= ring[-1][T]:
            last = ring[-1]
            last[N] += 1
            last[SUM] += value
            if value < last[MIN]:
                last[MIN] = value
            if value > last[MAX]:
                last[MAX] = value
            last[LAST] = value
            return
        ring.append([bucket, 1, value, value, value, value])
        if len(ring) > self.capacity:
            del ring[0]

    def _window(self, since, until):
        ring = self.ring
        if since is not None:
            ring = [p for p in ring if p[T] >= since]
        if until is not None:
            ring = [p for p in ring if p[T] <= until]
        return ring

    def points(self, since=None, until=None):
        return [
            {
                "t": p[T],
                "count": p[N],
                "sum": p[SUM],
                "min": p[MIN],
                "max": p[MAX],
                "last": p[LAST],
            }
            for p in self._window(since, until)
        ]

    def rate(self, since=None):
        window = self._window(since, None)
        if len(window) < 2:
            return None
        span = window[-1][T] - window[0][T]
        if span <= 0:
            return None
        return (window[-1][LAST] - window[0][LAST]) / span


def same(value) -> str:
    """NaN-safe, sign-of-zero-preserving comparison form.  Counts are
    ``int`` in both rings; the flat one holds every other field as a
    double, which prints as the list ring's floats do."""
    return json.dumps(value, sort_keys=True)


values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.5, math.nan, math.inf, -math.inf, 1e300]),
    st.floats(allow_nan=False, width=32),
)
times = st.floats(0.0, 40.0)
sinces = st.one_of(st.none(), st.floats(0.0, 40.0))
READS = ("points", "window", "rate", "len")

series_ops = st.one_of(
    st.tuples(st.just("observe"), times, values),
    st.tuples(st.just("observe"), times, values),
    st.tuples(st.just("read"), st.sampled_from(READS), sinces),
)


def read(ring, how: str, since):
    if how == "window":
        return ring.points(since, None if since is None else since + 9.0)
    if how == "rate":
        return ring.rate(since)
    if how == "len":
        return len(ring.points()) if isinstance(ring, ListRing) else len(ring)
    return ring.points()


@settings(max_examples=400, deadline=None)
@given(
    st.lists(series_ops, max_size=60),
    st.integers(2, 6),
    st.sampled_from([1.0, 2.5]),
)
def test_flat_ring_equals_the_list_ring(ops, capacity, step):
    flat = Series("s", step=step, capacity=capacity)
    listed = ListRing(step=step, capacity=capacity)
    for op in ops:
        if op[0] == "observe":
            flat.observe(op[1], op[2])
            listed.observe(op[1], op[2])
        else:
            assert same(read(flat, op[1], op[2])) == same(read(listed, op[1], op[2]))
    assert same(flat.points()) == same(listed.points())
    assert all(type(p["count"]) is int for p in flat.points())
    assert len(flat) <= capacity


#: Against step 1.0 (or 2.5): several ticks per bucket, one, and gaps.
advances = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5, 7.0])
gauges = st.integers(0, 3)

store_ops = st.one_of(
    st.tuples(st.just("set"), gauges, values),
    st.tuples(st.just("inc"), gauges, st.sampled_from([0.0, 1.0, 0.5])),
    # Runs of ticks with nothing written in between: the same value again.
    st.tuples(st.just("tick"), advances, st.integers(1, 25)),
    st.tuples(st.just("tick"), advances, st.integers(1, 25)),
    st.tuples(st.just("tick_back"), st.floats(0.0, 5.0)),
    st.tuples(st.just("read"), gauges, sinces),
    # The registry replaced or overwritten behind the store's back.
    st.tuples(st.just("clear")),
    st.tuples(st.just("merge"), gauges, values),
    # A direct write to a ring the collector feeds (or will).
    st.tuples(st.just("observe"), gauges, st.floats(0.0, 80.0), values),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(store_ops, max_size=40), st.integers(2, 8), st.sampled_from([1.0, 2.5]))
def test_collected_flat_rings_equal_list_rings_observed_every_tick(ops, capacity, step):
    registry = MetricsRegistry()
    store = TimeSeriesStore(step=step, capacity=capacity)
    reference: dict[int, ListRing] = {}
    now = 0.0

    def ring(i: int) -> ListRing:
        return reference.setdefault(i, ListRing(step=step, capacity=capacity))

    def tick() -> None:
        store.collect(registry, now)
        for family in registry.families():
            for key, instrument in family.series.items():
                ring(int(dict(key)["i"])).observe(now, instrument.value)

    for op in ops:
        if op[0] == "set":
            bound_series(registry, "gauge", "g", i=op[1]).set(op[2])
        elif op[0] == "inc":
            bound_series(registry, "gauge", "g", i=op[1]).inc(op[2])
        elif op[0] == "tick":
            for _ in range(op[2]):
                now += op[1]
                tick()
        elif op[0] == "tick_back":
            now = max(0.0, now - op[1])
            tick()
        elif op[0] == "read":
            series = store.get("g", i=op[1])
            assert (series is None) == (op[1] not in reference)
            if series is not None:
                listed = reference[op[1]]
                assert same(series.points()) == same(listed.points())
                assert same(series.rate(op[2])) == same(listed.rate(op[2]))
        elif op[0] == "clear":
            registry.clear()
        elif op[0] == "merge":
            other = MetricsRegistry()
            bound_series(other, "gauge", "g", i=op[1]).set(op[2])
            registry.merge(other.snapshot())
        else:
            store.observe("g", op[2], op[3], i=op[1])
            ring(op[1]).observe(op[2], op[3])
    rendered = {
        int(record["labels"]["i"]): record["points"]
        for record in store.snapshot().get("g", [])
    }
    assert same(rendered) == same({i: r.points() for i, r in reference.items()})
    assert store.names() == (["g"] if reference else [])


def test_a_full_ring_evicts_one_bucket_per_new_bucket():
    series = Series("s", step=1.0, capacity=8)
    listed = ListRing(step=1.0, capacity=8)
    for t in range(100):
        series.observe(float(t), float(t))
        listed.observe(float(t), float(t))
        assert len(series) == min(t + 1, 8)
        assert len(series._points) == 6 * len(series)  # nothing kept past capacity
        assert series.points() == listed.points()
        assert series.points()[-1]["last"] == float(t)


def test_an_int_observed_reads_back_as_a_float():
    """The one rendering difference from the list ring, which kept a value
    as the object it was given: a ring of doubles prints the ``int`` 3 as
    ``3.0`` (and an ``int`` step's bucket times likewise).  Nothing in
    ``repro`` observes an ``int`` — instruments hold floats — but a
    caller of ``store.observe`` can."""
    store = TimeSeriesStore(step=5, capacity=4)
    store.observe("queue_depth", 12, 3)
    listed = ListRing(step=5, capacity=4)
    listed.observe(12, 3)
    assert listed.points() == store.get("queue_depth").points()  # 3 == 3.0
    assert json.dumps(listed.points()[0]) == (
        '{"t": 10, "count": 1, "sum": 3, "min": 3, "max": 3, "last": 3}'
    )
    assert json.dumps(store.get("queue_depth").points()[0]) == (
        '{"t": 10.0, "count": 1, "sum": 3.0, "min": 3.0, "max": 3.0, "last": 3.0}'
    )
    assert '"last": 3.0' in json.dumps(store.snapshot())
