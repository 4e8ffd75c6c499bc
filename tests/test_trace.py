"""Tests for a run's recording: a :class:`RunObserver` on an engine's bus,
its events (journal entries), spans and metrics."""

from __future__ import annotations

import pytest

from tests.helpers import fig4_workflow, two_reliable_hosts
from repro.engine import WorkflowEngine
from repro.engine.engine import (
    ENGINE_NODE_CANCELLED,
    ENGINE_NODE_COMPLETED,
    ENGINE_NODE_LAUNCHED,
    ENGINE_WORKFLOW_FINISHED,
)
from repro.events import EventBus
from repro.grid import CrashingTask, FixedDurationTask
from repro.obs import AttachError, RunObserver
from repro.wpdl import JoinMode, WorkflowBuilder


def count(observer: RunObserver, topic: str) -> int:
    return sum(1 for entry in observer.events if entry["topic"] == topic)


@pytest.fixture
def traced_fig4(quiet_grid):
    two_reliable_hosts(quiet_grid)
    quiet_grid.install(
        "u1", "fast", CrashingTask(duration=30.0, crash_at=10.0, crashes=None)
    )
    quiet_grid.install("r1", "slow", FixedDurationTask(150.0))
    engine = WorkflowEngine(fig4_workflow(), quiet_grid, reactor=quiet_grid.reactor)
    trace = RunObserver.attach(engine)
    engine.run(timeout=1e7)
    return trace


class TestRecording:
    def test_launch_and_completion_events_per_node(self, traced_fig4):
        assert count(traced_fig4, ENGINE_NODE_LAUNCHED) == 3  # FU, SR, Join
        assert count(traced_fig4, ENGINE_NODE_COMPLETED) == 3
        assert count(traced_fig4, ENGINE_WORKFLOW_FINISHED) == 1

    def test_detector_attempts_recorded(self, traced_fig4):
        attempts = [
            e
            for e in traced_fig4.events
            if e["topic"] in ("task.done", "task.failed", "task.exception")
            and e["activity"] == "FU"
        ]
        assert len(attempts) == 2  # two crash tries
        assert all(e["topic"] == "task.failed" for e in attempts)
        assert attempts[0]["reason"] == "done-without-taskend"

    def test_for_node_merges_engine_and_detector_views(self, traced_fig4):
        topics = {
            e["topic"]
            for e in traced_fig4.events
            if e.get("node") == "FU" or e.get("activity") == "FU"
        }
        assert ENGINE_NODE_LAUNCHED in topics
        assert ENGINE_NODE_COMPLETED in topics
        assert "task.failed" in topics

    def test_completed_event_carries_status_and_tries(self, traced_fig4):
        completed = [
            e
            for e in traced_fig4.events
            if e["topic"] == ENGINE_NODE_COMPLETED and e["node"] == "FU"
        ]
        assert completed[0]["status"] == "failed"
        assert completed[0]["tries"] == 2

    def test_another_bus_is_refused(self, quiet_grid):
        quiet_grid.add_host(
            __import__("repro.grid", fromlist=["RELIABLE"]).RELIABLE("h1")
        )
        quiet_grid.install("h1", "t", FixedDurationTask(5.0))
        wf = (
            WorkflowBuilder("w")
            .program("t", hosts=["h1"])
            .activity("a", implement="t")
            .build()
        )
        engine = WorkflowEngine(wf, quiet_grid, reactor=quiet_grid.reactor)
        trace = RunObserver.attach(engine)
        with pytest.raises(AttachError):
            trace.attach_bus(EventBus())
        engine.run()
        assert count(trace, ENGINE_WORKFLOW_FINISHED) == 1


class TestAcrossReset:
    """One trace observing an engine-reuse loop (reset between runs)."""

    def _engine(self, quiet_grid):
        quiet_grid.add_host(
            __import__("repro.grid", fromlist=["RELIABLE"]).RELIABLE("h1")
        )
        quiet_grid.install("h1", "t", FixedDurationTask(5.0))
        wf = (
            WorkflowBuilder("w")
            .program("t", hosts=["h1"])
            .activity("a", implement="t")
            .build()
        )
        return WorkflowEngine(wf, quiet_grid, reactor=quiet_grid.reactor)

    def test_trace_survives_engine_reset(self, quiet_grid):
        engine = self._engine(quiet_grid)
        trace = RunObserver.attach(engine)
        engine.run()
        first = count(trace, ENGINE_WORKFLOW_FINISHED)
        quiet_grid.reset(seed=1)
        engine.reset()
        engine.run()
        assert first == 1
        assert count(trace, ENGINE_WORKFLOW_FINISHED) == 2

    def test_reattach_after_reset_does_not_double_record(self, quiet_grid):
        engine = self._engine(quiet_grid)
        trace = RunObserver.attach(engine)
        engine.run()
        quiet_grid.reset(seed=1)
        engine.reset()
        # Re-attaching to the same bus must be a no-op, not a second
        # subscription recording every event twice.
        trace.attach_bus(engine.runtime.bus)
        engine.run()
        assert count(trace, ENGINE_NODE_LAUNCHED) == 2
        assert count(trace, ENGINE_WORKFLOW_FINISHED) == 2


class TestSpans:
    def test_nested_spans_recorded(self, traced_fig4):
        spans = traced_fig4.spans
        workflow = [s for s in spans if s.name == "workflow.run"]
        nodes = {s.labels["node"]: s for s in spans if s.name == "node.run"}
        attempts = [s for s in spans if s.name == "task.attempt"]
        assert len(workflow) == 1 and not workflow[0].open
        assert set(nodes) == {"FU", "SR", "Join"}
        assert all(s.parent == workflow[0].id for s in nodes.values())
        fu_attempts = [s for s in attempts if s.labels["activity"] == "FU"]
        assert len(fu_attempts) == 2
        assert all(s.parent == nodes["FU"].id for s in fu_attempts)
        assert all(s.labels["outcome"] == "failed" for s in fu_attempts)

    def test_metrics_recorded(self, traced_fig4):
        metrics = traced_fig4.metrics
        assert (
            metrics.value(
                "task_attempts_total", activity="FU", outcome="failed", workflow="fig4"
            )
            == 2
        )
        assert (
            metrics.value("engine_workflow_runs_total", status="done", workflow="fig4")
            == 1
        )
        hist = metrics.get_histogram("task_attempt_sim_seconds", activity="SR")
        assert hist is not None and hist.count == 1

    def test_recovery_events_recorded(self, traced_fig4):
        # FU crashes twice; the retry strategy schedules one resubmission
        # before the slot exhausts.
        assert count(traced_fig4, "recovery.retry") == 1
        assert count(traced_fig4, "recovery.exhausted") == 1
        resolved = [
            e for e in traced_fig4.events if e["topic"] == "recovery.resolved"
        ]
        states = {e["activity"]: e["state"] for e in resolved}
        assert states["FU"] == "failed"
        assert states["SR"] == "done"


class TestCancelledEvents:
    def test_or_join_race_emits_cancelled_event(self, quiet_grid):
        two_reliable_hosts(quiet_grid)
        quiet_grid.install("u1", "fast", FixedDurationTask(10.0))
        quiet_grid.install("r1", "slow", FixedDurationTask(100.0))
        wf = (
            WorkflowBuilder("race")
            .program("fast", hosts=["u1"])
            .program("slow", hosts=["r1"])
            .dummy("split")
            .activity("quick", implement="fast")
            .activity("laggard", implement="slow")
            .dummy("join", join=JoinMode.OR)
            .redundant("split", "join", "quick", "laggard")
            .build()
        )
        engine = WorkflowEngine(wf, quiet_grid, reactor=quiet_grid.reactor)
        trace = RunObserver.attach(engine)
        engine.run()
        cancelled = [
            e for e in trace.events if e["topic"] == ENGINE_NODE_CANCELLED
        ]
        assert [e["node"] for e in cancelled] == ["laggard"]

    def test_cancelled_attempt_ends_with_its_node(self, quiet_grid):
        """The laggard's job is cancelled and forgotten: no terminal
        ``task.*`` event ever comes for it, so its span has to end when the
        node is cancelled — and the winner's (whose ``task.done`` reaches
        the observer *after* the resolutions it caused, the last one after
        ``engine.workflow_finished``) must end as done, exactly once."""
        two_reliable_hosts(quiet_grid)
        quiet_grid.install("u1", "fast", FixedDurationTask(10.0))
        quiet_grid.install("r1", "slow", FixedDurationTask(100.0))
        wf = (
            WorkflowBuilder("race")
            .program("fast", hosts=["u1"])
            .program("slow", hosts=["r1"])
            .dummy("split")
            .activity("quick", implement="fast")
            .activity("laggard", implement="slow")
            .dummy("join", join=JoinMode.OR)
            .redundant("split", "join", "quick", "laggard")
            .build()
        )
        engine = WorkflowEngine(wf, quiet_grid, reactor=quiet_grid.reactor)
        trace = RunObserver.attach(engine)
        engine.run()
        attempts = {
            s.labels["activity"]: s for s in trace.spans if s.name == "task.attempt"
        }
        assert len([s for s in trace.spans if s.name == "task.attempt"]) == 2
        assert not any(s.open for s in trace.spans)
        assert attempts["quick"].labels["outcome"] == "done"
        assert attempts["quick"].sim_duration == 10.0
        assert attempts["laggard"].labels["outcome"] == "cancelled"
        assert attempts["laggard"].sim_end == 10.0
        # A cancelled attempt is not a detector outcome: no metric series.
        metrics = trace.metrics
        assert (
            metrics.value(
                "task_attempts_total", activity="quick", outcome="done", workflow="race"
            )
            == 1
        )
        assert (
            metrics.value(
                "task_attempts_total",
                activity="laggard",
                outcome="cancelled",
                workflow="race",
            )
            is None
        )
        assert trace._log.sampled.instances == {}
