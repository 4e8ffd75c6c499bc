"""Exporter tests: golden renderings of the Prometheus text and Chrome
``trace_event`` formats, JSON-lines structure, and the property that
histogram bucket counts always sum to the series count (non-cumulative in
the registry, cumulative on the Prometheus wire)."""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    MetricsRegistry,
    Span,
    chrome_trace,
    jsonl_lines,
    prometheus_text,
    write_chrome_trace,
    write_jsonl,
)
from tests.helpers import bound_series


def small_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    bound_series(
        reg, "counter", "jobs_total", help="jobs submitted", technique="retrying"
    ).inc()
    bound_series(reg, "counter", "jobs_total", technique="checkpointing").inc(2)
    bound_series(reg, "gauge", "pool_workers", help="live workers").set(4)
    hist = bound_series(
        reg,
        "histogram",
        "attempt_seconds",
        help="per-attempt sim seconds",
        buckets=(1.0, 10.0),
        activity="FU",
    )
    for v in (0.5, 5.0, 100.0):
        hist.observe(v)
    return reg


PROMETHEUS_GOLDEN = """\
# HELP jobs_total jobs submitted
# TYPE jobs_total counter
jobs_total{technique="retrying"} 1.0
jobs_total{technique="checkpointing"} 2.0
# HELP pool_workers live workers
# TYPE pool_workers gauge
pool_workers 4.0
# HELP attempt_seconds per-attempt sim seconds
# TYPE attempt_seconds histogram
attempt_seconds_bucket{activity="FU",le="1.0"} 1
attempt_seconds_bucket{activity="FU",le="10.0"} 2
attempt_seconds_bucket{activity="FU",le="+Inf"} 3
attempt_seconds_sum{activity="FU"} 105.5
attempt_seconds_count{activity="FU"} 3
attempt_seconds_p50{activity="FU"} 10.0
attempt_seconds_p95{activity="FU"} +Inf
attempt_seconds_p99{activity="FU"} +Inf
"""


class TestPrometheusText:
    def test_golden_rendering(self):
        assert prometheus_text(small_registry()) == PROMETHEUS_GOLDEN

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_dotted_names_and_label_escaping(self):
        reg = MetricsRegistry()
        bound_series(reg, "counter", "sim.events", path='a"b\\c').inc()
        text = prometheus_text(reg)
        assert 'sim_events{path="a\\"b\\\\c"} 1.0' in text

    def test_infinite_gauge_value(self):
        reg = MetricsRegistry()
        bound_series(reg, "gauge", "mttf").set(float("inf"))
        assert "mttf +Inf" in prometheus_text(reg)


def recorded_spans() -> list:
    spans = []

    def interval(name, sim_start, sim_end, parent=None, **labels):
        span = Span(len(spans) + 1, name, sim_start, 0.0, labels, parent, sim_end, 0.0)
        spans.append(span)
        return span

    node = interval("node.run", 0.0, 30.0, node="FU")
    interval("task.attempt", 0.0, 10.0, node.id, node="FU", outcome="failed")
    interval("mc.shard", 5.0, 25.0, technique="retrying")
    return spans


CHROME_GOLDEN = {
    "traceEvents": [
        {"name": "process_name", "ph": "M", "pid": 1, "args": {"name": "repro"}},
        {
            "name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
            "args": {"name": "FU"},
        },
        {
            "name": "thread_name", "ph": "M", "pid": 1, "tid": 2,
            "args": {"name": "retrying"},
        },
        {
            "name": "node.run", "cat": "node", "ph": "X",
            "ts": 0.0, "dur": 30_000_000.0, "pid": 1, "tid": 1,
            "args": {"node": "FU", "wall_seconds": 0.0},
        },
        {
            "name": "task.attempt", "cat": "task", "ph": "X",
            "ts": 0.0, "dur": 10_000_000.0, "pid": 1, "tid": 1,
            "args": {"node": "FU", "outcome": "failed", "wall_seconds": 0.0},
        },
        {
            "name": "mc.shard", "cat": "mc", "ph": "X",
            "ts": 5_000_000.0, "dur": 20_000_000.0, "pid": 1, "tid": 2,
            "args": {"technique": "retrying", "wall_seconds": 0.0},
        },
    ],
    "displayTimeUnit": "ms",
}


class TestChromeTrace:
    def test_golden_rendering(self):
        assert chrome_trace(recorded_spans()) == CHROME_GOLDEN

    def test_open_span_renders_zero_duration(self):
        [event] = [
            e
            for e in chrome_trace([Span(1, "workflow.run", 0.0, 0.0)])["traceEvents"]
            if e["ph"] == "X"
        ]
        assert event["dur"] == 0.0

    def test_write_round_trips_as_json(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(path, recorded_spans())
        payload = json.loads(path.read_text())
        assert payload == CHROME_GOLDEN
        assert count == len(payload["traceEvents"]) == 6


class TestJsonLines:
    def test_record_kinds_and_order(self):
        events = [{"seq": 0, "topic": "engine.node_launched", "node": "FU", "at": 1.0}]
        lines = list(
            jsonl_lines(
                events=events, spans=recorded_spans(), metrics=small_registry()
            )
        )
        records = [json.loads(line) for line in lines]
        assert [r["kind"] for r in records] == [
            "event", "span", "span", "span", "metrics",
        ]
        # An event line is its journal entry, flat.
        assert records[0] == {"kind": "event", **events[0]}
        assert records[1]["name"] == "node.run"
        assert records[1]["sim_end"] == 30.0
        assert "jobs_total" in records[-1]["families"]

    def test_write_jsonl_counts_lines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        count = write_jsonl(path, spans=recorded_spans())
        text = path.read_text()
        assert count == 3 == len(text.splitlines())
        for line in text.splitlines():
            json.loads(line)  # every line is standalone JSON

    def test_non_finite_sim_times_stay_valid_json(self):
        events = [{"seq": 0, "topic": "t", "at": float("inf")}]
        [line] = jsonl_lines(events=events)
        assert json.loads(line)["at"] == "inf"


BOUNDS = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    min_size=1,
    max_size=8,
    unique=True,
).map(lambda bs: tuple(sorted(bs)))

VALUES = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), max_size=100
)


class TestHistogramSumProperty:
    @given(bounds=BOUNDS, values=VALUES)
    @settings(max_examples=120)
    def test_bucket_counts_sum_to_count(self, bounds, values):
        reg = MetricsRegistry()
        hist = bound_series(reg, "histogram", "h", buckets=bounds, technique="t")
        for v in values:
            hist.observe(v)
        # Registry invariant: non-cumulative buckets partition the
        # observations.
        assert sum(hist.counts) == hist.count == len(values)

        # Wire invariant: Prometheus buckets are cumulative, so the +Inf
        # bucket, the _count sample and the observation count all agree,
        # and the cumulative sequence is monotone.
        lines = prometheus_text(reg).splitlines()
        cumulative = [
            int(line.rsplit(" ", 1)[1])
            for line in lines
            if line.startswith("h_bucket")
        ]
        assert len(cumulative) == len(bounds) + 1
        assert cumulative == sorted(cumulative)
        assert cumulative[-1] == len(values)
        [count_line] = [ln for ln in lines if ln.startswith("h_count")]
        assert int(count_line.rsplit(" ", 1)[1]) == len(values)


class TestMetricCatalogue:
    def test_readme_table_matches_the_declarations(self):
        from pathlib import Path

        from repro.obs import catalogue

        readme = Path(__file__).resolve().parent.parent / "README.md"
        assert catalogue.main(["--check", str(readme)]) == 0

    def test_declared_names_are_unique_and_typed(self):
        from repro.obs.catalogue import metric_specs

        specs = metric_specs()
        assert len({spec.name for spec in specs}) == len(specs) >= 35
        assert {spec.kind for spec in specs} == {"counter", "gauge", "histogram"}
        # A series is named by the specification, never by an instance.
        assert not any("workflow_id" in spec.labels for spec in specs)

    def test_declared_topics_are_unique_and_cover_every_publisher(self):
        from repro.obs.catalogue import topic_specs

        specs = topic_specs()
        assert len({spec.topic for spec in specs}) == len(specs)
        assert {spec.topic.split(".")[0] for spec in specs} == {
            "task",
            "detector",
            "engine",
            "recovery",
            "obs",
        }
        assert {spec.module for spec in specs} >= {
            "repro.detection.detector",
            "repro.engine.host",
            "repro.obs.health",
        }
