"""Engine checkpoint/resume interaction with Loop nodes, and extra loop
edge cases (nested loops, loop variables, cancellation of a redundant
loop)."""

from __future__ import annotations

import pytest

from repro.engine import (
    EngineCheckpointer,
    NodeStatus,
    WorkflowEngine,
)
from repro.grid import (
    RELIABLE,
    FixedDurationTask,
    GridConfig,
    SimulatedGrid,
    Step,
)
from repro.wpdl import JoinMode, WorkflowBuilder


class Counter(FixedDurationTask):
    """Reports the attempt number so loop conditions can count iterations."""

    def plan(self, ctx):
        # Plans are shared between attempts: vary a step by building one.
        start, end = super().plan(ctx)
        return [start, Step(end.offset, "end", {"result": {"count": ctx.attempt}})]


def loop_workflow(iterations: int):
    body = (
        WorkflowBuilder("body")
        .program("step", hosts=["h1"])
        .activity("step", implement="step", outputs=["count"])
        .build()
    )
    return (
        WorkflowBuilder("loopwf")
        .program("pre", hosts=["h1"])
        .program("post", hosts=["h1"])
        .activity("pre", implement="pre")
        .loop("repeat", body, f"count < {iterations}", max_iterations=50)
        .activity("post", implement="post")
        .sequence("pre", "repeat", "post")
        .build()
    )


def make_grid():
    grid = SimulatedGrid(config=GridConfig(heartbeats=False))
    grid.add_host(RELIABLE("h1"))
    grid.install("h1", "step", Counter(duration=10.0))
    grid.install("h1", "pre", FixedDurationTask(5.0))
    grid.install("h1", "post", FixedDurationTask(5.0))
    return grid


class TestLoopBasics:
    def test_do_while_runs_exactly_n_iterations(self):
        grid = make_grid()
        result = WorkflowEngine(
            loop_workflow(4), grid, reactor=grid.reactor
        ).run(timeout=1e7)
        assert result.succeeded
        assert result.variables["repeat"] == 4  # iterations recorded
        assert result.completion_time == pytest.approx(5 + 4 * 10 + 5)

    def test_loop_variables_visible_downstream(self):
        grid = make_grid()
        result = WorkflowEngine(
            loop_workflow(3), grid, reactor=grid.reactor
        ).run(timeout=1e7)
        assert result.variables["count"] == 3


class TestLoopResume:
    def test_resume_mid_loop_restarts_loop_from_scratch(self, tmp_path):
        """Documented semantics: an in-flight Loop node restarts from its
        first iteration after an engine resume (its body's internal
        progress is not persisted); completed nodes before it are not
        re-run."""
        path = tmp_path / "engine.ckpt"
        grid1 = make_grid()
        engine1 = WorkflowEngine(
            loop_workflow(3),
            grid1,
            reactor=grid1.reactor,
            checkpointer=EngineCheckpointer(path),
        )
        engine1.start()
        # pre done at 5; loop iteration 1 ends at 15; die during iter 2.
        grid1.kernel.run_until(18.0)

        grid2 = make_grid()
        engine2 = WorkflowEngine.resume(str(path), grid2, reactor=grid2.reactor)
        result = engine2.run(timeout=1e7)
        assert result.succeeded
        # pre NOT re-run; loop runs all 3 iterations afresh (fresh grid →
        # attempt counter restarts), then post.
        assert result.completion_time == pytest.approx(3 * 10 + 5)
        assert result.node_statuses["pre"] is NodeStatus.DONE

    def test_resume_after_loop_completed_skips_loop(self, tmp_path):
        path = tmp_path / "engine.ckpt"
        grid1 = make_grid()
        engine1 = WorkflowEngine(
            loop_workflow(2),
            grid1,
            reactor=grid1.reactor,
            checkpointer=EngineCheckpointer(path),
        )
        engine1.start()
        grid1.kernel.run_until(26.0)  # pre 5 + 2 iters (20) done; post flying

        grid2 = make_grid()
        engine2 = WorkflowEngine.resume(str(path), grid2, reactor=grid2.reactor)
        result = engine2.run(timeout=1e7)
        assert result.succeeded
        assert result.completion_time == pytest.approx(5.0)  # only post
        assert grid2.gram.submitted_count == 1


class TestNestedLoops:
    def test_loop_inside_loop(self):
        inner_body = (
            WorkflowBuilder("inner_body")
            .program("step", hosts=["h1"])
            .activity("istep", implement="step", outputs=["count"])
            .build()
        )
        outer_body = (
            WorkflowBuilder("outer_body")
            .loop("inner", inner_body, "count < 2", max_iterations=10)
            .build()
        )
        wf = (
            WorkflowBuilder("nested")
            .variable("rounds", 0)
            .loop("outer", outer_body, "outer < 2", max_iterations=10)
            .build()
        )
        grid = make_grid()
        result = WorkflowEngine(wf, grid, reactor=grid.reactor).run(timeout=1e7)
        assert result.succeeded
        # outer records its iteration count under its own name; condition
        # "outer < 2" re-evaluates against it -> 2 outer iterations.
        assert result.variables["outer"] == 2


class TestLoopCancellation:
    def test_losing_loop_branch_is_reaped(self):
        body = (
            WorkflowBuilder("slow_body")
            .program("slowstep", hosts=["h1"])
            .activity("sstep", implement="slowstep")
            .build()
        )
        wf = (
            WorkflowBuilder("race")
            .program("quick", hosts=["h1"])
            .dummy("split")
            .activity("fast_path", implement="quick")
            .loop("slow_loop", body, "1 > 0", max_iterations=1000)
            .dummy("join", join=JoinMode.OR)
            .fan_out("split", "fast_path", "slow_loop")
            .fan_in("join", "fast_path", "slow_loop")
            .build()
        )
        grid = SimulatedGrid(config=GridConfig(heartbeats=False))
        grid.add_host(RELIABLE("h1"))
        grid.install("h1", "quick", FixedDurationTask(3.0))
        grid.install("h1", "slowstep", FixedDurationTask(10.0))
        result = WorkflowEngine(wf, grid, reactor=grid.reactor).run(timeout=1e7)
        assert result.succeeded
        assert result.completion_time == pytest.approx(3.0)
        assert result.node_statuses["slow_loop"] is NodeStatus.CANCELLED
