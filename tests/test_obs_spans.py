"""Tests for the span recorder: dual clocks, nesting, event-driven
open/close, the bounded ring and the disabled path."""

from __future__ import annotations

from repro.obs import SpanRecorder


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestExplicitSpans:
    def test_begin_end_stamps_both_clocks(self):
        clock = FakeClock()
        rec = SpanRecorder(clock=clock)
        span = rec.begin("node.run", node="FU")
        clock.now = 30.0
        rec.end(span)
        assert span.sim_start == 0.0
        assert span.sim_end == 30.0
        assert span.sim_duration == 30.0
        assert span.wall_end >= span.wall_start
        assert not span.open

    def test_end_is_idempotent(self):
        clock = FakeClock()
        rec = SpanRecorder(clock=clock)
        span = rec.begin("s")
        clock.now = 5.0
        rec.end(span)
        clock.now = 50.0
        rec.end(span)
        assert span.sim_end == 5.0

    def test_explicit_parent_links(self):
        rec = SpanRecorder(clock=FakeClock())
        outer = rec.begin("workflow.run")
        inner = rec.begin("node.run", parent=outer.id)
        assert inner.parent == outer.id
        assert outer.parent is None

    def test_instant_has_zero_duration(self):
        clock = FakeClock()
        clock.now = 7.0
        rec = SpanRecorder(clock=clock)
        span = rec.instant("marker")
        assert span.sim_start == span.sim_end == 7.0
        assert span.sim_duration == 0.0

    def test_interval_records_future_end(self):
        rec = SpanRecorder(clock=FakeClock())
        span = rec.interval("recovery.backoff", 10.0, 25.0, activity="FU")
        assert (span.sim_start, span.sim_end) == (10.0, 25.0)
        assert span.labels == {"activity": "FU"}
        assert not span.open

    def test_unbound_clock_stamps_zero_then_binds(self):
        rec = SpanRecorder()
        assert rec.begin("a").sim_start == 0.0
        clock = FakeClock()
        clock.now = 3.0
        rec.clock = clock
        assert rec.begin("b").sim_start == 3.0


class TestLexicalNesting:
    def test_with_blocks_nest(self):
        rec = SpanRecorder(clock=FakeClock())
        with rec.span("outer") as outer:
            with rec.span("inner") as inner:
                assert inner.parent == outer.id
        with rec.span("sibling") as sibling:
            assert sibling.parent is None
        assert all(s.sim_end is not None for s in rec.spans)

    def test_event_spans_do_not_join_the_stack(self):
        rec = SpanRecorder(clock=FakeClock())
        with rec.span("outer"):
            rec.begin("event-driven")  # explicit begin: no stack entry
            with rec.span("inner") as inner:
                # parent is the lexical outer, not the event-driven span
                assert inner.parent == rec.named("outer")[0].id


class TestRingAndQueries:
    def test_ring_capacity_drops_oldest(self):
        rec = SpanRecorder(clock=FakeClock(), capacity=3)
        for i in range(5):
            rec.instant(f"s{i}")
        assert [s.name for s in rec.spans] == ["s2", "s3", "s4"]

    def test_named_and_closed(self):
        rec = SpanRecorder(clock=FakeClock())
        rec.instant("a")
        open_span = rec.begin("b")
        assert [s.name for s in rec.named("a")] == ["a"]
        assert open_span not in list(rec.closed())

    def test_clear_empties_ring_and_stack(self):
        rec = SpanRecorder(clock=FakeClock())
        with rec.span("outer"):
            rec.clear()
        assert rec.spans == []
        with rec.span("fresh") as fresh:
            assert fresh.parent is None
