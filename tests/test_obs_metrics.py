"""Tests for the metrics half of :mod:`repro.obs` — instrument semantics,
registry keying, disabled no-ops and cross-process snapshot/merge."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.obs import (
    ATTEMPT_BUCKETS,
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricSpec,
    MetricsRegistry,
)
from repro.obs.catalogue import metric_specs
from tests.obs_plane import ObservedHost


class TestInstruments:
    def test_counter_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(MetricsError, match="only go up"):
            Counter().inc(-1)

    def test_gauge_set_inc_dec(self):
        g = Gauge()
        g.set(10)
        g.inc(2)
        g.inc(-5)
        assert g.value == 7.0

    def test_histogram_bucketing(self):
        h = Histogram((1.0, 10.0))
        for v in (0.5, 1.0, 5.0, 100.0):
            h.observe(v)
        # 1.0 lands in the le=1.0 bucket (upper bounds are inclusive).
        assert h.counts == [2, 1, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(106.5)

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(MetricsError, match="sorted"):
            Histogram((10.0, 1.0))
        with pytest.raises(MetricsError, match="sorted"):
            Histogram((1.0, 1.0))

    def test_quantile_bucket_resolution(self):
        h = Histogram((1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.6, 3.0):
            h.observe(v)
        assert h.quantile(0.25) == 1.0
        assert h.quantile(0.5) == 2.0
        assert h.quantile(1.0) == 4.0

    def test_quantile_overflow_and_empty(self):
        h = Histogram((1.0,))
        assert math.isnan(h.quantile(0.5))
        h.observe(99.0)
        assert h.quantile(1.0) == math.inf
        with pytest.raises(MetricsError, match="quantile"):
            h.quantile(1.5)

    def test_bucket_presets_are_valid(self):
        # The shipped presets must satisfy the Histogram constructor's
        # sorted/unique contract.
        Histogram(DEFAULT_BUCKETS)
        Histogram(ATTEMPT_BUCKETS)


def counter(name: str, *labels: str) -> MetricSpec:
    return MetricSpec(name, "counter", "", labels)


def gauge(name: str, *labels: str) -> MetricSpec:
    return MetricSpec(name, "gauge", "", labels)


def histogram(name: str, buckets, *labels: str) -> MetricSpec:
    return MetricSpec(name, "histogram", "", labels, buckets)


JOBS = counter("jobs_total", "technique")


class TestRegistry:
    def test_same_labels_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.family(JOBS).labels("retrying")
        b = reg.family(counter("jobs_total", "technique")).labels("retrying")
        assert a is b
        reg.family(JOBS).labels("checkpointing").inc()
        assert reg.value("jobs_total", technique="retrying") == 0.0
        assert reg.value("jobs_total", technique="checkpointing") == 1.0

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        reg.family(counter("c", "a", "b")).labels("1", "2").inc()
        assert reg.family(counter("c", "b", "a")).labels("2", "1").value == 1.0

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.family(counter("c")).labels().inc()
        with pytest.raises(MetricsError, match="is a counter"):
            reg.family(gauge("c"))

    def test_value_absent_series(self):
        reg = MetricsRegistry()
        assert reg.value("nope") is None
        reg.family(counter("c", "x")).labels("1")
        assert reg.value("c", x="2") is None
        assert reg.get_histogram("nope") is None

    def test_clear_drops_everything(self):
        reg = MetricsRegistry()
        reg.family(counter("c")).labels().inc()
        reg.clear()
        assert reg.snapshot() == {}


class TestSnapshotMerge:
    def test_roundtrip_counters_gauges_histograms(self):
        src = MetricsRegistry()
        src.family(MetricSpec("c", "counter", "count", ("k",))).labels("v").inc(3)
        src.family(gauge("g")).labels().set(4)
        src.family(histogram("h", (1.0, 2.0))).labels().observe(1.5)
        dst = MetricsRegistry()
        dst.merge(src.snapshot())
        assert dst.snapshot() == src.snapshot()

    def test_merge_adds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg, n in ((a, 2), (b, 5)):
            reg.family(counter("c")).labels().inc(n)
            h = reg.family(histogram("h", (10.0,))).labels()
            h.observe(float(n))
            h.observe(100.0)
        a.merge(b.snapshot())
        assert a.value("c") == 7.0
        h = a.get_histogram("h")
        assert h.counts == [2, 2]
        assert h.count == 4
        assert h.sum == pytest.approx(207.0)

    def test_merge_gauge_takes_snapshot_value(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.family(gauge("g")).labels().set(1)
        b.family(gauge("g")).labels().set(9)
        a.merge(b.snapshot())
        assert a.value("g") == 9.0

    def test_merge_bucket_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.family(histogram("h", (1.0,))).labels().observe(0.5)
        snap = a.snapshot()
        b.family(histogram("h", (1.0, 2.0))).labels().observe(0.5)
        with pytest.raises(MetricsError, match="mismatch"):
            b.merge(snap)

    @given(
        # Integer-valued floats keep summation exact under regrouping, so
        # the two snapshots can be compared bit for bit.
        values=st.lists(
            st.integers(min_value=0, max_value=10**6).map(float),
            max_size=60,
        ),
        split=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=60)
    def test_split_observe_then_merge_equals_single_registry(
        self, values, split
    ):
        # Observing a stream split across two registries and merging must
        # equal observing the whole stream in one — the contract the pool
        # workers' per-shard snapshots rely on.
        split = min(split, len(values))
        whole = MetricsRegistry()
        left, right = MetricsRegistry(), MetricsRegistry()
        for reg, chunk in (
            (whole, values),
            (left, values[:split]),
            (right, values[split:]),
        ):
            for v in chunk:
                reg.family(histogram("h", (1.0, 100.0))).labels().observe(v)
                reg.family(counter("n")).labels().inc()
        left.merge(right.snapshot())
        assert left.snapshot() == whole.snapshot()


# -- every binding of a declaration reaches one instrument ----------------------

_SPECS = (
    MetricSpec("c1", "counter", "one label", ("k",)),
    MetricSpec("c2", "counter", "per workflow", ("k", "workflow")),
    MetricSpec("g0", "gauge", "no labels"),
    MetricSpec("h1", "histogram", "timed", ("k",), buckets=(1.0, 2.0)),
)

#: 1, 1.0 and True are equal and hash alike, "1" is their text twice over,
#: and "" is a label value like any other.
_label_values = st.sampled_from(["a", "b", "", "1", "1.0", "True", 1, 1.0, True, None])


def _rebound(registry, spec: MetricSpec, values, *, reverse=False):
    """The instrument reached through a declaration made anew — the same
    one, or with its label names (and values) listed the other way round."""
    labels, values = spec.labels, tuple(values)
    if reverse:
        labels, values = labels[::-1], values[::-1]
    again = MetricSpec(spec.name, spec.kind, spec.help, labels, spec.buckets)
    return registry.family(again).labels(*values)


def _touch(instrument, kind: str) -> None:
    if kind == "histogram":
        instrument.observe(1.5)
    else:
        instrument.inc()


_lookups = st.tuples(
    st.sampled_from(["bound", "rebound", "reversed"]),
    st.integers(0, len(_SPECS) - 1),
    st.lists(_label_values, min_size=2, max_size=2),
)
_bound_ops = st.one_of(
    _lookups,
    _lookups,
    _lookups,
    st.just(("clear",)),
    st.tuples(st.just("merge"), st.integers(0, len(_SPECS) - 1), _label_values),
)


class TestBoundFamilies:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_bound_ops, max_size=30))
    def test_every_binding_is_one_instrument_in_first_use_order(self, ops):
        registry = MetricsRegistry()
        bound = [registry.family(spec) for spec in _SPECS]  # bound up front
        assert registry.snapshot() == {}  # ...which registers nothing
        #: family name -> label key -> times touched, in first-use order.
        model: dict[str, dict[tuple, int]] = {}
        for op in ops:
            if op[0] == "clear":
                registry.clear()
                model.clear()
                continue
            if op[0] == "merge":
                spec = _SPECS[op[1]]
                values = (op[2], "wf-9")[: len(spec.labels)]
                other = MetricsRegistry()
                _touch(other.family(spec).labels(*values), spec.kind)
                registry.merge(other.snapshot())
                how = "bound"
            else:
                how, index, pair = op
                spec = _SPECS[index]
                values = tuple(pair[: len(spec.labels)])
            if how == "bound":
                instrument = bound[_SPECS.index(spec)].labels(*values)
            else:
                instrument = _rebound(
                    registry, spec, values, reverse=how == "reversed"
                )
            # Whichever way it was reached, it is the one object.
            assert instrument is bound[_SPECS.index(spec)].labels(*values)
            assert instrument is _rebound(registry, spec, values, reverse=True)
            assert instrument is registry.family(spec).labels(*values)
            key = tuple(sorted((k, str(v)) for k, v in zip(spec.labels, values)))
            series = model.setdefault(spec.name, {})
            if op[0] == "merge":
                # A gauge takes the merged value; the others add it.
                series[key] = 1 if spec.kind == "gauge" else series.get(key, 0) + 1
            else:
                _touch(instrument, spec.kind)
                series[key] = series.get(key, 0) + 1
            snapshot = registry.snapshot()
            assert list(snapshot) == list(model)
            for name, family in snapshot.items():
                assert [
                    tuple(sorted(s["labels"].items())) for s in family["series"]
                ] == list(model[name])
                assert [
                    s["count"] if family["kind"] == "histogram" else s["value"]
                    for s in family["series"]
                ] == list(model[name].values())
        # No bound entry outlives the series it resolved to.
        live = {
            id(instrument)
            for family in registry.families()
            for instrument in family.series.values()
        }
        for family in registry._bound.values():
            assert all(id(child) in live for child in family._children.values())

    def test_values_that_are_equal_but_print_differently_stay_apart(self):
        registry = MetricsRegistry()
        family = registry.family(_SPECS[0])
        one, float_one, true, text = (
            family.labels(1),
            family.labels(1.0),
            family.labels(True),
            family.labels("1"),
        )
        assert one is text
        assert float_one is family.labels("1.0") and float_one is not one
        assert true is family.labels("True") and true is not one
        assert family.labels(1.0) is float_one  # and again, after the table filled
        assert [s["labels"] for s in registry.snapshot()["c1"]["series"]] == [
            {"k": "1"},
            {"k": "1.0"},
            {"k": "True"},
        ]

    def test_an_empty_label_value_stays_on_the_series(self):
        # No label is optional: a series always carries every declared
        # label, so one family has one key shape.
        registry = MetricsRegistry()
        family = registry.family(_SPECS[1])
        by_k = registry.family(counter("c2", "k"))
        assert family.labels("a", "") is not by_k.labels("a")
        assert family.labels("a", "") is not family.labels("a", "mosaic")
        assert [s["labels"] for s in registry.snapshot()["c2"]["series"]] == [
            {"k": "a", "workflow": ""},
            {"k": "a"},
            {"k": "a", "workflow": "mosaic"},
        ]

    def test_wrong_arity_and_kind_are_refused(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricsError, match="takes labels"):
            registry.family(_SPECS[0]).labels("a", "b")
        registry.family(_SPECS[0]).labels("a")
        with pytest.raises(MetricsError, match="is a counter"):
            registry.family(gauge("c1", "j")).labels("a")
        with pytest.raises(MetricsError, match="is a counter"):
            registry.family(MetricSpec("c1", "gauge", "", ("k",)))

    def test_bound_family_outlives_a_clear(self):
        registry = MetricsRegistry()
        family = registry.family(_SPECS[0])
        before = family.labels("a")
        before.inc(5)
        registry.clear()
        after = family.labels("a")
        assert after is not before and after.value == 0.0
        assert after is registry.family(_SPECS[0]).labels("a")
        assert registry.value("c1", k="a") == 0.0

    def test_a_cleared_name_can_come_back_as_another_kind(self):
        # Under another declaration: a bound family holds its spec across
        # a clear, so the same name and label names keep their kind.
        registry = MetricsRegistry()
        registry.family(counter("x", "k")).labels("a").inc()
        registry.clear()
        registry.family(gauge("x", "j")).labels("a").set(3.0)
        assert registry.snapshot()["x"]["kind"] == "gauge"
        registry.clear()
        other = MetricsRegistry()
        other.family(histogram("x", (1.0, 2.0), "i")).labels("a").observe(1.5)
        registry.merge(other.snapshot())
        assert registry.snapshot()["x"] == other.snapshot()["x"]

    def test_a_cleared_histogram_takes_the_next_callers_buckets_and_help(self):
        registry = MetricsRegistry()
        old = MetricSpec("h", "histogram", "old", ("k",), (1.0, 2.0))
        new = MetricSpec("h", "histogram", "new", ("j",), (5.0,))
        registry.family(old).labels("a")
        # While the family lives, the first declaration wins...
        assert registry.family(new).labels("b").bounds == (1.0, 2.0)
        registry.clear()
        # ...and once it is gone, nothing of it is left to win.
        assert registry.family(new).labels("a").bounds == (5.0,)
        family = registry.snapshot()["h"]
        assert family["help"] == "new" and family["buckets"] == [5.0]

    def test_unhashable_label_values_resolve_by_their_text(self):
        registry = MetricsRegistry()
        family = registry.family(_SPECS[0])
        by_list = family.labels([1, 2])
        assert by_list is family.labels("[1, 2]")
        assert by_list is registry.family(counter("c1", "k")).labels([1, 2])
        assert registry.snapshot()["c1"]["series"][0]["labels"] == {"k": "[1, 2]"}

    def test_malformed_declarations_are_refused(self):
        with pytest.raises(MetricsError, match="unknown kind"):
            MetricSpec("x", "summary")
        with pytest.raises(TypeError):  # no label is optional any more
            MetricSpec("x", "counter", "", ("a",), optional=("a",))


@pytest.mark.contract
def test_every_emitted_family_is_declared(tmp_path, monkeypatch, capsys):
    """A registry holds only families some module declares, so the README's
    catalogue lists everything a run can emit: here a tiny cached engine
    ``mc --stats`` run twice (misses, then hits) and one observed batch."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    argv = ["mc", "--engine", "--stats", "--cache", "--json", "--jobs", "1"]
    argv += ["--technique", "retrying", "--mttf", "20", "--runs", "4"]
    emitted = set()
    for _ in range(2):
        assert main(argv) == 0
        emitted |= set(json.loads(capsys.readouterr().out)["metrics"])
    assert {"mc_disk_cache_misses_total", "mc_disk_cache_hits_total"} <= emitted
    plane = ObservedHost(20030623)
    plane.run_batch(10)
    emitted |= {family.name for family in plane.observer.metrics.families()}
    assert sorted(emitted - {spec.name for spec in metric_specs()}) == []
