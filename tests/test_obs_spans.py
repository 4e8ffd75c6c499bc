"""Tests for the span recorder: stamps taken by the caller, explicit
parents, ids in recording order and the bounded ring."""

from __future__ import annotations

from unittest import mock

from repro.obs import SpanRecorder, spans


class TestExplicitSpans:
    def test_record_opens_a_span_at_the_given_stamps(self):
        rec = SpanRecorder()
        labels = {"node": "FU"}
        span = rec.record("node.run", labels, None, 12.0, 0.25)
        assert (span.sim_start, span.wall_start) == (12.0, 0.25)
        assert span.labels is labels  # owned, not copied
        assert span.open and span.sim_duration == 0.0
        # Whoever learns of the end writes it.
        span.sim_end, span.wall_end = 42.0, 0.75
        assert not span.open
        assert (span.sim_duration, span.wall_duration) == (30.0, 0.5)

    def test_explicit_parent_links(self):
        rec = SpanRecorder()
        outer = rec.record("workflow.run", {}, None, 0.0, 0.0)
        inner = rec.record("node.run", {}, outer.id, 0.0, 0.0)
        assert inner.parent == outer.id
        assert outer.parent is None
        assert [s.id for s in rec.spans] == [1, 2]


class TestRingAndQueries:
    def test_ring_capacity_drops_oldest(self):
        with mock.patch.object(spans, "_CAPACITY", 3):
            rec = SpanRecorder()
        for i in range(5):
            rec.record(f"s{i}", {}, None, float(i), 0.0)
        assert [s.name for s in rec.spans] == ["s2", "s3", "s4"]
        assert [s.id for s in rec.spans] == [3, 4, 5]
