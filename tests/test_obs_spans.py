"""Tests for spans: stamps taken off the log record, explicit parents, ids
in log order — and nothing kept: a span exists from the read that built
it, over the records the log still holds."""

from __future__ import annotations

from repro.detection.detector import AttemptOutcome, TaskState
from repro.events import EventBus
from repro.obs import EventLog, RunObserver, Span


class TestExplicitSpans:
    def test_record_opens_a_span_at_the_given_stamps(self):
        labels = {"node": "FU"}
        span = Span(1, "node.run", 12.0, 0.25, labels)
        assert (span.sim_start, span.wall_start) == (12.0, 0.25)
        assert span.labels is labels  # owned, not copied
        assert span.open and span.sim_duration == 0.0
        # Whoever learns of the end writes it.
        span.sim_end, span.wall_end = 42.0, 0.75
        assert not span.open
        assert (span.sim_duration, span.wall_duration) == (30.0, 0.5)

    def test_explicit_parent_links(self):
        bus = EventBus()
        observer = RunObserver(bus)
        launched = {"workflow": "w", "workflow_id": "wf-1", "node": "a"}
        bus.publish("engine.node_launched", launched)
        bus.publish("task.active", AttemptOutcome("j1", "a", TaskState.ACTIVE, workflow_id="wf-1"))
        outer, inner, attempt = observer.spans
        assert (outer.name, inner.name, attempt.name) == (
            "workflow.run", "node.run", "task.attempt"
        )
        assert outer.parent is None
        assert inner.parent == outer.id and attempt.parent == inner.id
        assert [s.id for s in observer.spans] == [1, 2, 3]


class TestTheViewIsTheLogsWindow:
    def test_spans_are_of_what_the_log_still_holds(self):
        bus = EventBus()
        log = EventLog.on(bus, capacity=3)  # kept: the table holds it weakly
        observer = RunObserver(bus)
        assert observer._log is log
        for i in range(5):
            bus.publish(
                "engine.node_launched",
                {"workflow": "w", "workflow_id": f"wf-{i}", "node": "a", "at": float(i)},
            )
        # Two spans per launch, of the three launches still held, numbered
        # from 1 by this read — and by the next one.
        for _read in range(2):
            spans = observer.spans
            assert [s.labels["workflow_id"] for s in spans[::2]] == ["wf-2", "wf-3", "wf-4"]
            assert [s.id for s in spans] == [1, 2, 3, 4, 5, 6]
        # A window's first spans may be clipped: the node's end is held,
        # its launch is not, so the attempt's end finds no parent.
        bus.publish("task.done", AttemptOutcome("j", "a", TaskState.DONE, workflow_id="wf-0"))
        assert observer.spans[-1].parent is None
