"""End-to-end engine tests on the simulated Grid.

These reproduce the paper's structural scenarios (Figures 2–6) with exact
virtual-time assertions, then exercise the additional WPDL features
(conditional transitions, do-while loops, value dependencies) end to end.
"""

from __future__ import annotations

import pytest

from tests.helpers import (
    fig4_workflow,
    fig5_workflow,
    run_workflow,
    single_task_workflow,
    two_reliable_hosts,
)
from repro.core import FailurePolicy
from repro.engine import NodeStatus, WorkflowEngine, WorkflowStatus
from repro.errors import EngineError
from repro.grid import (
    RELIABLE,
    CheckpointingTask,
    CrashingTask,
    ExceptionProneTask,
    FixedDurationTask,
    Step,
    inject_crash,
)
from repro.sim import SimulationParams, build_technique_workflow
from repro.wpdl import JoinMode, Parameter, WorkflowBuilder


class TestSingleTask:
    def test_plain_success(self, quiet_grid):
        quiet_grid.add_host(RELIABLE("h1"))
        quiet_grid.install("h1", "task", FixedDurationTask(30.0, result=42))
        result = run_workflow(single_task_workflow(), quiet_grid)
        assert result.succeeded
        assert result.completion_time == pytest.approx(30.0)
        assert result.variables["task"] == 42

    def test_figure2_retry_three_times_with_interval(self, quiet_grid):
        quiet_grid.add_host(RELIABLE("h1"))
        quiet_grid.install(
            "h1", "task", CrashingTask(duration=30.0, crash_at=5.0, crashes=2)
        )
        wf = single_task_workflow(
            policy=FailurePolicy.retrying(3, interval=10.0)
        )
        result = run_workflow(wf, quiet_grid)
        assert result.succeeded
        # 2 crashes at t=5 each + 10s interval each + full 30s run.
        assert result.completion_time == pytest.approx(5 + 10 + 5 + 10 + 30)
        assert result.tries["task"] == 3

    def test_retries_exhausted_fails_workflow(self, quiet_grid):
        quiet_grid.add_host(RELIABLE("h1"))
        quiet_grid.install(
            "h1", "task", CrashingTask(duration=30.0, crash_at=5.0, crashes=None)
        )
        wf = single_task_workflow(policy=FailurePolicy.retrying(3))
        result = run_workflow(wf, quiet_grid)
        assert result.status is WorkflowStatus.FAILED
        assert result.failed_tasks == ("task",)
        assert result.tries["task"] == 3

    def test_unknown_executable_fails_cleanly(self, quiet_grid):
        quiet_grid.add_host(RELIABLE("h1"))
        result = run_workflow(single_task_workflow(), quiet_grid)
        assert result.status is WorkflowStatus.FAILED

    def test_host_crash_retry_waits_for_recovery(self, quiet_grid):
        quiet_grid.add_host(RELIABLE("h1"))
        quiet_grid.install("h1", "task", FixedDurationTask(30.0))
        inject_crash(quiet_grid.kernel, quiet_grid.host("h1"), at=10.0, duration=20.0)
        wf = single_task_workflow(policy=FailurePolicy.retrying(None))
        result = run_workflow(wf, quiet_grid)
        assert result.succeeded
        # Crash at 10, queue until host back at 30, then 30s run.
        assert result.completion_time == pytest.approx(60.0)

    def test_timeout_raises_engine_error(self, quiet_grid):
        quiet_grid.add_host(RELIABLE("h1"))
        quiet_grid.install("h1", "task", FixedDurationTask(1000.0))
        engine = WorkflowEngine(
            single_task_workflow(), quiet_grid, reactor=quiet_grid.reactor
        )
        with pytest.raises(EngineError, match="did not terminate"):
            engine.run(timeout=10.0)

    def test_timeout_stops_the_clock_at_the_deadline(self, quiet_grid):
        # Nothing but the task's own steps is queued: its end, due at 50 s,
        # must not fire under a 10 s timeout.
        quiet_grid.add_host(RELIABLE("h1"))
        quiet_grid.install("h1", "task", FixedDurationTask(50.0))
        engine = WorkflowEngine(
            single_task_workflow(), quiet_grid, reactor=quiet_grid.reactor
        )
        with pytest.raises(EngineError, match="did not terminate"):
            engine.run(timeout=10.0)
        assert quiet_grid.kernel.now() == 10.0
        assert quiet_grid.gram.live_jobs == 1


class TestFigure3Replication:
    def build(self, policy=None):
        return (
            WorkflowBuilder("fig3")
            .program("sum", hosts=["h1", "h2", "h3"])
            .activity(
                "summation", implement="sum", policy=policy or FailurePolicy.replica()
            )
            .build()
        )

    def test_first_replica_wins(self, quiet_grid):
        for name, speed in [("h1", 1.0), ("h2", 4.0), ("h3", 2.0)]:
            quiet_grid.add_host(RELIABLE(name, speed=speed))
        quiet_grid.install_everywhere("sum", FixedDurationTask(40.0))
        result = run_workflow(self.build(), quiet_grid)
        assert result.succeeded
        assert result.completion_time == pytest.approx(10.0)  # 40/4

    def test_one_crashed_replica_tolerated(self, quiet_grid):
        two_reliable_hosts(quiet_grid)
        quiet_grid.add_host(RELIABLE("h3"))
        quiet_grid.add_host(RELIABLE("h1"))
        quiet_grid.add_host(RELIABLE("h2"))
        quiet_grid.install(
            "h1", "sum", CrashingTask(duration=40.0, crash_at=1.0, crashes=None)
        )
        quiet_grid.install("h2", "sum", FixedDurationTask(40.0))
        quiet_grid.install("h3", "sum", FixedDurationTask(50.0))
        result = run_workflow(self.build(), quiet_grid)
        assert result.succeeded
        assert result.completion_time == pytest.approx(40.0)

    def test_replication_with_retry_combination(self, quiet_grid):
        # Section 6: each replica may itself retry.
        for h in ("h1", "h2", "h3"):
            quiet_grid.add_host(RELIABLE(h))
        # All replicas crash once, then succeed; h2 crashes latest but all
        # retry and the fastest recovery path wins.
        quiet_grid.install_everywhere(
            "sum", CrashingTask(duration=40.0, crash_at=2.0, crashes=1)
        )
        result = run_workflow(
            self.build(policy=FailurePolicy.replica(max_tries=None)), quiet_grid
        )
        assert result.succeeded
        # The attempt counter is per-activity, so only the first submission
        # (replica 1) crashes; replicas 2 and 3 run straight through in 40s.
        # Replica 1's retry would finish at 42s but loses the race.
        assert result.completion_time == pytest.approx(40.0)


class TestFigure4AlternativeTask:
    def test_alternative_task_after_fail_to_mask(self, quiet_grid):
        two_reliable_hosts(quiet_grid)
        quiet_grid.install(
            "u1", "fast", CrashingTask(duration=30.0, crash_at=10.0, crashes=None)
        )
        quiet_grid.install("r1", "slow", FixedDurationTask(150.0, result="slow"))
        result = run_workflow(fig4_workflow(), quiet_grid)
        assert result.succeeded
        assert result.node_statuses["FU"] is NodeStatus.FAILED
        assert result.node_statuses["SR"] is NodeStatus.DONE
        # FU: 2 tries x 10s each, then SR 150s.
        assert result.completion_time == pytest.approx(170.0)

    def test_alternative_skipped_benignly_on_success(self, quiet_grid):
        two_reliable_hosts(quiet_grid)
        quiet_grid.install("u1", "fast", FixedDurationTask(30.0))
        quiet_grid.install("r1", "slow", FixedDurationTask(150.0))
        result = run_workflow(fig4_workflow(), quiet_grid)
        assert result.succeeded
        assert result.node_statuses["SR"] is NodeStatus.SKIPPED_OK
        assert result.completion_time == pytest.approx(30.0)

    def test_both_paths_fail_workflow_fails(self, quiet_grid):
        two_reliable_hosts(quiet_grid)
        quiet_grid.install(
            "u1", "fast", CrashingTask(duration=30.0, crash_at=10.0, crashes=None)
        )
        quiet_grid.install(
            "r1", "slow", CrashingTask(duration=150.0, crash_at=5.0, crashes=None)
        )
        result = run_workflow(fig4_workflow(), quiet_grid)
        assert result.status is WorkflowStatus.FAILED
        assert result.node_statuses["Join"] is NodeStatus.SKIPPED_ERROR


class TestFigure5Redundancy:
    def test_fast_branch_wins_slow_cancelled(self, quiet_grid):
        two_reliable_hosts(quiet_grid)
        quiet_grid.install("u1", "fast", FixedDurationTask(30.0))
        quiet_grid.install("r1", "slow", FixedDurationTask(150.0))
        result = run_workflow(fig5_workflow(), quiet_grid)
        assert result.succeeded
        assert result.completion_time == pytest.approx(30.0)
        assert result.node_statuses["SR"] is NodeStatus.CANCELLED

    def test_unreliable_branch_failure_absorbed(self, quiet_grid):
        two_reliable_hosts(quiet_grid)
        quiet_grid.install(
            "u1", "fast", CrashingTask(duration=30.0, crash_at=5.0, crashes=None)
        )
        quiet_grid.install("r1", "slow", FixedDurationTask(150.0))
        result = run_workflow(fig5_workflow(), quiet_grid)
        assert result.succeeded
        assert result.completion_time == pytest.approx(150.0)
        assert result.node_statuses["FU"] is NodeStatus.FAILED

    def test_both_branches_fail(self, quiet_grid):
        two_reliable_hosts(quiet_grid)
        quiet_grid.install(
            "u1", "fast", CrashingTask(duration=30.0, crash_at=5.0, crashes=None)
        )
        quiet_grid.install(
            "r1", "slow", CrashingTask(duration=150.0, crash_at=5.0, crashes=None)
        )
        result = run_workflow(fig5_workflow(), quiet_grid)
        assert result.status is WorkflowStatus.FAILED

    def test_a_node_ready_after_its_join_fired_is_cancelled_at_launch(self, quiet_grid):
        """``D`` becomes ready (t=20) after its OR-join successor ``J``
        already fired on ``A`` (t=10): nothing ``D`` does can matter, so it
        is cancelled as it launches and the run ends when ``J`` does."""
        two_reliable_hosts(quiet_grid)
        for host, program, duration in (
            ("u1", "a", 10.0), ("u1", "j", 50.0), ("r1", "b", 20.0), ("r1", "d", 100.0)
        ):
            quiet_grid.install(host, program, FixedDurationTask(duration))
        wf = (
            WorkflowBuilder("late")
            .program("a", hosts=["u1"])
            .program("j", hosts=["u1"])
            .program("b", hosts=["r1"])
            .program("d", hosts=["r1"])
            .dummy("split")
            .activity("A", implement="a")
            .activity("B", implement="b")
            .activity("D", implement="d")
            .activity("J", implement="j", join=JoinMode.OR)
            .fan_out("split", "A", "B")
            .transition("A", "J")
            .transition("B", "D")
            .transition("D", "J")
            .build()
        )
        result = run_workflow(wf, quiet_grid)
        assert result.succeeded
        assert result.completion_time == pytest.approx(60.0)
        assert result.node_statuses["D"] is NodeStatus.CANCELLED


class TestFigure6ExceptionHandling:
    """The Figure-6 DAG ``repro.sim`` runs for Figure 13's alternative-task
    cells: FU on ``node0``, SR (150) on ``node1``."""

    @staticmethod
    def run(grid, fast):
        grid.add_host(RELIABLE("node0"))
        grid.add_host(RELIABLE("node1"))
        grid.install("node0", "fast", fast)
        grid.install("node1", "slow", FixedDurationTask(150.0))
        workflow = build_technique_workflow("alternative_task", SimulationParams())
        return run_workflow(workflow, grid)

    def test_exception_routes_to_alternative(self, quiet_grid):
        result = self.run(
            quiet_grid, ExceptionProneTask(duration=30.0, checks=5, probability=1.0)
        )
        assert result.succeeded
        assert result.node_statuses["FU"] is NodeStatus.EXCEPTION
        # Exception at first check (t=6) + SR (150) = 156 (the paper's p=1).
        assert result.completion_time == pytest.approx(156.0)

    def test_no_exception_fast_path(self, quiet_grid):
        result = self.run(
            quiet_grid, ExceptionProneTask(duration=30.0, checks=5, probability=0.0)
        )
        assert result.succeeded
        assert result.completion_time == pytest.approx(30.0)
        assert result.node_statuses["SR"] is NodeStatus.SKIPPED_OK

    def test_unmatched_exception_name_fails_workflow(self, quiet_grid):
        result = self.run(
            quiet_grid,
            ExceptionProneTask(
                duration=30.0, checks=5, probability=1.0, exception_name="oom"
            ),
        )
        # Handler is bound to disk_full only; an oom exception is unhandled.
        assert result.status is WorkflowStatus.FAILED


class TestCheckpointRestart:
    def test_restart_from_checkpoint_after_host_crash(self, quiet_grid):
        quiet_grid.add_host(RELIABLE("h1"))
        quiet_grid.install(
            "h1",
            "task",
            CheckpointingTask(
                duration=30.0, checkpoints=6, overhead=0.5, recovery_time=0.5
            ),
        )
        inject_crash(quiet_grid.kernel, quiet_grid.host("h1"), at=12.0, duration=0.0)
        wf = single_task_workflow(policy=FailurePolicy.retrying(None))
        result = run_workflow(wf, quiet_grid)
        assert result.succeeded
        # Segments are 5.5 (5 work + 0.5 ckpt); 2 done by t=11.  Crash at 12,
        # resume with R=0.5 then 4 segments: 12 + 0.5 + 22 = 34.5.
        assert result.completion_time == pytest.approx(34.5)

    def test_cold_restart_when_checkpoint_restart_disabled(self, quiet_grid):
        quiet_grid.add_host(RELIABLE("h1"))
        quiet_grid.install(
            "h1",
            "task",
            CheckpointingTask(duration=30.0, checkpoints=6, overhead=0.5),
        )
        inject_crash(quiet_grid.kernel, quiet_grid.host("h1"), at=12.0, duration=0.0)
        wf = single_task_workflow(
            policy=FailurePolicy(max_tries=None, restart_from_checkpoint=False)
        )
        result = run_workflow(wf, quiet_grid)
        assert result.succeeded
        # Full re-run from scratch: 12 + 33 = 45.
        assert result.completion_time == pytest.approx(45.0)


class TestControlFlowFeatures:
    def test_conditional_if_then_else(self, quiet_grid):
        quiet_grid.add_host(RELIABLE("h1"))
        quiet_grid.install("h1", "measure", FixedDurationTask(5.0, result=42))
        quiet_grid.install("h1", "big", FixedDurationTask(10.0, result="big"))
        quiet_grid.install("h1", "small", FixedDurationTask(20.0, result="small"))
        wf = (
            WorkflowBuilder("cond")
            .program("measure", hosts=["h1"])
            .program("big", hosts=["h1"])
            .program("small", hosts=["h1"])
            .activity("probe", implement="measure", outputs=["value"])
            .activity("big_path", implement="big")
            .activity("small_path", implement="small")
            .dummy("join", join=JoinMode.OR)
            .when("probe", "value > 10", "big_path")
            .when("probe", "value <= 10", "small_path")
            .transition("big_path", "join")
            .transition("small_path", "join")
            .build()
        )
        result = run_workflow(wf, quiet_grid)
        assert result.succeeded
        assert result.node_statuses["big_path"] is NodeStatus.DONE
        assert result.node_statuses["small_path"] is NodeStatus.SKIPPED_OK
        assert result.completion_time == pytest.approx(15.0)

    def test_do_while_loop_iterates(self, quiet_grid):
        quiet_grid.add_host(RELIABLE("h1"))

        # Each iteration "improves" the residual: attempts are numbered, so
        # use the attempt count embedded by the behaviour result.
        class Residual(FixedDurationTask):
            def plan(self, ctx):
                # Plans are shared between attempts: vary a step by
                # building one, never by editing the one handed out.
                start, end = super().plan(ctx)
                result = {"residual": 1.0 / ctx.attempt}
                return [start, Step(end.offset, "end", {"result": result})]

        quiet_grid.install("h1", "solve", Residual(duration=10.0))
        body = (
            WorkflowBuilder("refine_body")
            .program("solve", hosts=["h1"])
            .activity("solve", implement="solve", outputs=["residual"])
            .build()
        )
        wf = (
            WorkflowBuilder("loop")
            .loop("refine", body, "residual > 0.3", max_iterations=10)
            .build()
        )
        result = run_workflow(wf, quiet_grid)
        assert result.succeeded
        # residual: 1, 1/2, 1/3 -> stop after 4th? 1/3 > 0.3 -> once more:
        # 1/4 = 0.25 <= 0.3 -> 4 iterations of 10s.
        assert result.node_statuses["refine"] is NodeStatus.DONE
        assert result.variables["refine"] == 4
        assert result.completion_time == pytest.approx(40.0)

    def test_loop_max_iterations_fails_node(self, quiet_grid):
        quiet_grid.add_host(RELIABLE("h1"))
        quiet_grid.install("h1", "solve", FixedDurationTask(1.0, result=1))
        body = (
            WorkflowBuilder("body")
            .program("solve", hosts=["h1"])
            .activity("solve", implement="solve")
            .build()
        )
        wf = (
            WorkflowBuilder("loop")
            .loop("forever", body, "1 > 0", max_iterations=3)
            .build()
        )
        result = run_workflow(wf, quiet_grid)
        assert result.status is WorkflowStatus.FAILED
        assert result.node_statuses["forever"] is NodeStatus.FAILED

    def test_loop_failure_caught_by_alternative_task(self, quiet_grid):
        quiet_grid.add_host(RELIABLE("h1"))
        quiet_grid.install(
            "h1", "solve", CrashingTask(duration=5.0, crash_at=1.0, crashes=None)
        )
        quiet_grid.install("h1", "fallback", FixedDurationTask(7.0))
        body = (
            WorkflowBuilder("body")
            .program("solve", hosts=["h1"])
            .activity("solve", implement="solve")
            .build()
        )
        wf = (
            WorkflowBuilder("loop")
            .program("fallback", hosts=["h1"])
            .loop("refine", body, "1 > 0", max_iterations=5)
            .activity("alt", implement="fallback")
            .dummy("join", join=JoinMode.OR)
            .transition("refine", "join")
            .on_failure("refine", "alt")
            .transition("alt", "join")
            .build()
        )
        result = run_workflow(wf, quiet_grid)
        assert result.succeeded
        assert result.node_statuses["refine"] is NodeStatus.FAILED
        assert result.node_statuses["alt"] is NodeStatus.DONE

    def test_value_dependency_passes_outputs_as_inputs(self, quiet_grid):
        quiet_grid.add_host(RELIABLE("h1"))
        quiet_grid.install("h1", "produce", FixedDurationTask(1.0, result={"n": 9}))
        received = {}

        class Consume(FixedDurationTask):
            def plan(self, ctx):
                # GRAM's table holds live jobs only: look while it runs.
                received["jobs"] = quiet_grid.gram.jobs_for_activity("consumer")
                return super().plan(ctx)

        quiet_grid.install("h1", "consume", Consume(duration=1.0))
        wf = (
            WorkflowBuilder("deps")
            .program("produce", hosts=["h1"])
            .program("consume", hosts=["h1"])
            .activity("producer", implement="produce", outputs=["n"])
            .activity(
                "consumer",
                implement="consume",
                inputs=[Parameter(name="count", ref="n")],
            )
            .transition("producer", "consumer")
            .build()
        )
        engine = WorkflowEngine(wf, quiet_grid, reactor=quiet_grid.reactor)
        result = engine.run(timeout=1e6)
        assert result.succeeded
        assert result.variables["n"] == 9
        # The submitted request carried the resolved input value.
        [job] = received["jobs"]
        assert job.request.arguments == {"count": 9}
        assert job.status == "finished"
        assert quiet_grid.gram.jobs_for_activity("consumer") == []

    def test_diamond_and_join_collects_both_branches(self, quiet_grid):
        quiet_grid.add_host(RELIABLE("h1"))
        quiet_grid.install("h1", "w", FixedDurationTask(10.0))
        quiet_grid.install("h1", "v", FixedDurationTask(25.0))
        wf = (
            WorkflowBuilder("diamond")
            .program("w", hosts=["h1"])
            .program("v", hosts=["h1"])
            .dummy("split")
            .activity("left", implement="w")
            .activity("right", implement="v")
            .dummy("join")  # AND join
            .fan_out("split", "left", "right")
            .fan_in("join", "left", "right")
            .build()
        )
        result = run_workflow(wf, quiet_grid)
        assert result.succeeded
        assert result.completion_time == pytest.approx(25.0)


class TestEngineReset:
    """:meth:`WorkflowEngine.reset`: the in-place rewind must replay a run
    bit for bit and match a freshly constructed engine — the contract the
    Monte-Carlo hot path (:class:`repro.sim.engine_mc.EngineSampler`)
    builds on."""

    def _retry_scenario(self, grid):
        grid.add_host(RELIABLE("h1"))
        grid.install(
            "h1", "task", CrashingTask(duration=30.0, crash_at=5.0, crashes=2)
        )
        return single_task_workflow(
            policy=FailurePolicy.retrying(3, interval=10.0)
        )

    def test_reset_replays_a_deterministic_run_exactly(self, quiet_grid):
        wf = self._retry_scenario(quiet_grid)
        engine = WorkflowEngine(wf, quiet_grid, reactor=quiet_grid.reactor)
        first = engine.run(timeout=1e7)
        quiet_grid.reset()
        engine.reset()
        second = engine.run(timeout=1e7)
        assert first.succeeded and second.succeeded
        assert second.completion_time == first.completion_time
        assert second.tries == first.tries
        assert second.node_statuses == first.node_statuses

    def test_reset_matches_a_fresh_engine(self, quiet_grid):
        wf = self._retry_scenario(quiet_grid)
        engine = WorkflowEngine(wf, quiet_grid, reactor=quiet_grid.reactor)
        engine.run(timeout=1e7)
        quiet_grid.reset()
        engine.reset()
        reused = engine.run(timeout=1e7)
        quiet_grid.reset()
        fresh = WorkflowEngine(wf, quiet_grid, reactor=quiet_grid.reactor)
        want = fresh.run(timeout=1e7)
        assert reused.completion_time == want.completion_time
        assert reused.tries == want.tries
        assert reused.node_statuses == want.node_statuses

    def test_reset_after_a_failed_run_replays_identically(self, quiet_grid):
        quiet_grid.add_host(RELIABLE("h1"))
        quiet_grid.install(
            "h1",
            "task",
            CrashingTask(duration=30.0, crash_at=5.0, crashes=None),
        )
        wf = single_task_workflow(policy=FailurePolicy.retrying(3))
        engine = WorkflowEngine(wf, quiet_grid, reactor=quiet_grid.reactor)
        first = engine.run(timeout=1e7)
        assert first.status is WorkflowStatus.FAILED
        quiet_grid.reset()
        engine.reset()
        second = engine.run(timeout=1e7)
        assert second.status is WorkflowStatus.FAILED
        assert second.tries == first.tries
        assert second.failed_tasks == first.failed_tasks

    def test_many_reset_cycles_stay_stable(self, quiet_grid):
        # Repeated reuse must not accumulate state (subscriptions, retry
        # slots, checkpoint records) that shifts later runs.
        wf = self._retry_scenario(quiet_grid)
        engine = WorkflowEngine(wf, quiet_grid, reactor=quiet_grid.reactor)
        times = []
        for _ in range(5):
            times.append(engine.run(timeout=1e7).completion_time)
            quiet_grid.reset()
            engine.reset()
        assert len(set(times)) == 1
