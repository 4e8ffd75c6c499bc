"""Tests for hierarchical composition (SubWorkflow nodes)."""

from __future__ import annotations

import pytest

from repro.engine import NodeStatus, WorkflowEngine, WorkflowStatus
from repro.errors import ParseError, SpecificationError
from repro.grid import (
    RELIABLE,
    CrashingTask,
    FixedDurationTask,
    GridConfig,
    SimulatedGrid,
)
from repro.wpdl import (
    JoinMode,
    SubWorkflow,
    WorkflowBuilder,
    parse_wpdl,
    serialize_wpdl,
)
from repro.wpdl.schema import check_vocabulary
from repro.wpdl.validator import validation_problems


def inner_pipeline(crashing=False):
    builder = WorkflowBuilder("stage").program("step", hosts=["h1"])
    builder.activity("s1", implement="step", outputs=["n"])
    builder.activity("s2", implement="crash" if crashing else "step")
    if crashing:
        builder.program("crash", hosts=["h1"])
    builder.transition("s1", "s2")
    return builder.build()


def make_grid():
    grid = SimulatedGrid(config=GridConfig(heartbeats=False))
    grid.add_host(RELIABLE("h1"))
    grid.install("h1", "step", FixedDurationTask(5.0, result={"n": 7}))
    grid.install(
        "h1", "crash", CrashingTask(duration=5.0, crash_at=1.0, crashes=None)
    )
    grid.install("h1", "alt", FixedDurationTask(11.0))
    return grid


class TestModel:
    def test_requires_name(self):
        with pytest.raises(SpecificationError):
            SubWorkflow(name="", body=inner_pipeline())

    def test_xml_roundtrip(self):
        wf = (
            WorkflowBuilder("outer")
            .subworkflow("stage", inner_pipeline(), join=JoinMode.OR)
            .build()
        )
        text = serialize_wpdl(wf)
        assert "<SubWorkflow" in text
        assert parse_wpdl(text) == wf
        assert check_vocabulary(text) == []

    def test_parse_requires_single_body(self):
        with pytest.raises(ParseError, match="<SubWorkflow> requires <Body>"):
            parse_wpdl(
                "<Workflow name='w'><SubWorkflow name='s'/></Workflow>"
            )

    def test_body_validated_recursively(self):
        bad_inner = (
            WorkflowBuilder("bad")
            .activity("t", implement="missing")
            .build(validate_graph=False)
        )
        wf = (
            WorkflowBuilder("outer")
            .subworkflow("stage", bad_inner)
            .build(validate_graph=False)
        )
        assert any("unknown program" in p for p in validation_problems(wf))


class TestEngine:
    def test_runs_body_once_and_merges_outputs(self):
        wf = (
            WorkflowBuilder("outer")
            .program("post", hosts=["h1"])
            .subworkflow("stage", inner_pipeline())
            .activity("post", implement="post")
            .transition("stage", "post")
            .build()
        )
        grid = make_grid()
        grid.install("h1", "post", FixedDurationTask(3.0))
        result = WorkflowEngine(wf, grid, reactor=grid.reactor).run()
        assert result.succeeded
        assert result.completion_time == pytest.approx(13.0)
        assert result.variables["n"] == 7  # body output visible outside
        assert result.node_statuses["stage"] is NodeStatus.DONE

    def test_body_failure_fails_the_node(self):
        wf = (
            WorkflowBuilder("outer")
            .subworkflow("stage", inner_pipeline(crashing=True))
            .build()
        )
        grid = make_grid()
        result = WorkflowEngine(wf, grid, reactor=grid.reactor).run()
        assert result.status is WorkflowStatus.FAILED
        assert result.node_statuses["stage"] is NodeStatus.FAILED

    def test_failed_subworkflow_caught_by_alternative_task(self):
        wf = (
            WorkflowBuilder("outer")
            .program("alt", hosts=["h1"])
            .subworkflow("stage", inner_pipeline(crashing=True))
            .activity("fallback", implement="alt")
            .dummy("join", join=JoinMode.OR)
            .transition("stage", "join")
            .on_failure("stage", "fallback")
            .transition("fallback", "join")
            .build()
        )
        grid = make_grid()
        result = WorkflowEngine(wf, grid, reactor=grid.reactor).run()
        assert result.succeeded
        assert result.node_statuses["stage"] is NodeStatus.FAILED
        assert result.node_statuses["fallback"] is NodeStatus.DONE
        # stage body: s1 (5) + s2 crash (1); then fallback (11).
        assert result.completion_time == pytest.approx(17.0)

    def test_nested_subworkflows(self):
        innermost = inner_pipeline()
        middle = (
            WorkflowBuilder("middle").subworkflow("deep", innermost).build()
        )
        outer = (
            WorkflowBuilder("outer").subworkflow("mid", middle).build()
        )
        grid = make_grid()
        result = WorkflowEngine(outer, grid, reactor=grid.reactor).run()
        assert result.succeeded
        assert result.completion_time == pytest.approx(10.0)

    def test_losing_subworkflow_branch_cancelled(self):
        slow_inner = (
            WorkflowBuilder("slow_stage")
            .program("slowstep", hosts=["h1"])
            .activity("s", implement="slowstep")
            .build()
        )
        wf = (
            WorkflowBuilder("race")
            .program("quick", hosts=["h1"])
            .dummy("split")
            .activity("fast_path", implement="quick")
            .subworkflow("slow_path", slow_inner)
            .dummy("join", join=JoinMode.OR)
            .fan_out("split", "fast_path", "slow_path")
            .fan_in("join", "fast_path", "slow_path")
            .build()
        )
        grid = make_grid()
        grid.install("h1", "quick", FixedDurationTask(2.0))
        grid.install("h1", "slowstep", FixedDurationTask(50.0))
        result = WorkflowEngine(wf, grid, reactor=grid.reactor).run()
        assert result.succeeded
        assert result.completion_time == pytest.approx(2.0)
        assert result.node_statuses["slow_path"] is NodeStatus.CANCELLED
