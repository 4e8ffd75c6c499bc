"""Failure-injection suite: partitions, message loss, cascades, and storm
scenarios driven through the full engine stack."""

from __future__ import annotations

import pytest

from repro.core import FailurePolicy, ResourceSelection
from repro.engine import NodeStatus, WorkflowEngine, WorkflowStatus
from repro.grid import (
    RELIABLE,
    UNRELIABLE,
    FailureEvent,
    FailureScript,
    FixedDurationTask,
    GridConfig,
    SimulatedGrid,
    inject_partition,
)
from repro.wpdl import WorkflowBuilder


def single_task(policy=None, hosts=("h1",)):
    return (
        WorkflowBuilder("inj")
        .program("task", hosts=list(hosts))
        .activity("task", implement="task", policy=policy or FailurePolicy())
        .build()
    )


class TestPartitions:
    def test_partition_looks_like_crash_and_retry_recovers(self):
        grid = SimulatedGrid(
            config=GridConfig(crash_detection="heartbeat", heartbeats=True)
        )
        grid.add_host(RELIABLE("h1", heartbeat_period=1.0))
        grid.add_host(RELIABLE("h2", heartbeat_period=1.0))
        grid.install_everywhere("task", FixedDurationTask(30.0))
        # h1 partitioned away mid-run: the host is fine (its task even
        # finishes!) but the client can't see it — indistinguishable from
        # a crash, as the paper notes.
        inject_partition(grid.kernel, grid.network, "h1", at=10.0, duration=100.0)
        wf = single_task(
            policy=FailurePolicy.retrying(
                None, resource_selection=ResourceSelection.ROTATE
            ),
            hosts=("h1", "h2"),
        )
        engine = WorkflowEngine(
            wf, grid, reactor=grid.reactor, heartbeat_timeout=5.0
        )
        result = engine.run(timeout=1e6)
        assert result.succeeded
        # Suspicion at ~15-17.5, rerun on h2 for 30.
        assert 44.0 <= result.completion_time <= 50.0

    def test_healed_partition_revokes_suspicion(self):
        grid = SimulatedGrid(
            config=GridConfig(crash_detection="heartbeat", heartbeats=True)
        )
        grid.add_host(RELIABLE("h1", heartbeat_period=1.0))
        grid.install_everywhere("task", FixedDurationTask(30.0))
        inject_partition(grid.kernel, grid.network, "h1", at=5.0, duration=20.0)
        wf = single_task(policy=FailurePolicy.retrying(None))
        engine = WorkflowEngine(
            wf, grid, reactor=grid.reactor, heartbeat_timeout=8.0
        )
        result = engine.run(timeout=1e6)
        assert result.succeeded
        detector = engine.runtime.detector
        assert detector.false_suspicions >= 1  # h1 was wrongly accused


class TestMessageLoss:
    def test_lossy_network_converges_with_attempt_timeout(self):
        # 20% loss can eat TaskEnd (a success then looks like a crash) or
        # even the Done itself, leaving the attempt forever ACTIVE.  The
        # performance-failure watchdog (attempt_timeout) converts such
        # hangs into ordinary crashes that retrying then masks.
        grid = SimulatedGrid(
            seed=5,
            config=GridConfig(heartbeats=False, message_loss=0.2),
        )
        grid.add_host(RELIABLE("h1"))
        grid.install_everywhere("task", FixedDurationTask(10.0))
        wf = single_task(
            policy=FailurePolicy(max_tries=None, attempt_timeout=25.0)
        )
        result = WorkflowEngine(wf, grid, reactor=grid.reactor).run(timeout=1e6)
        assert result.succeeded

    def test_without_timeout_a_lost_done_wedges_the_attempt(self):
        # The counterpart: no watchdog, deterministic loss of everything.
        grid = SimulatedGrid(
            seed=5,
            config=GridConfig(heartbeats=False, message_loss=0.0),
        )
        grid.add_host(RELIABLE("h1"))
        grid.install_everywhere("task", FixedDurationTask(10.0))
        grid.network.partition("h1")  # drop every host message
        wf = single_task(policy=FailurePolicy.retrying(None))
        engine = WorkflowEngine(wf, grid, reactor=grid.reactor)
        from repro.errors import EngineError

        with pytest.raises(EngineError, match="did not terminate"):
            engine.run(timeout=100.0)

    def test_timeout_declares_performance_failure(self):
        # The paper's linear-solver deadline: a healthy-but-slow task is
        # cancelled at the timeout and the alternative path takes over.
        grid = SimulatedGrid(config=GridConfig(heartbeats=False))
        grid.add_host(RELIABLE("h1"))
        grid.install("h1", "task", FixedDurationTask(1000.0))  # too slow
        wf = single_task(policy=FailurePolicy(max_tries=2, attempt_timeout=30.0))
        result = WorkflowEngine(wf, grid, reactor=grid.reactor).run(timeout=1e6)
        assert result.status is WorkflowStatus.FAILED
        assert result.tries["task"] == 2
        assert result.completion_time == pytest.approx(60.0)


class TestCascades:
    def test_rolling_outage_across_replicas(self):
        # All three replica hosts crash in a rolling wave; each replica
        # retries on its own host, so the task still completes.
        grid = SimulatedGrid(config=GridConfig(heartbeats=False))
        for name in ("r1", "r2", "r3"):
            grid.add_host(RELIABLE(name))
        grid.install_everywhere("task", FixedDurationTask(30.0))
        script = FailureScript(
            [
                FailureEvent(5.0, "r1", "crash"),
                FailureEvent(10.0, "r2", "crash"),
                FailureEvent(15.0, "r3", "crash"),
                FailureEvent(20.0, "r1", "recover"),
                FailureEvent(25.0, "r2", "recover"),
                FailureEvent(30.0, "r3", "recover"),
            ]
        )
        script.arm(grid.kernel, grid.hosts, grid.network)
        wf = single_task(
            policy=FailurePolicy.replica(max_tries=None), hosts=("r1", "r2", "r3")
        )
        result = WorkflowEngine(wf, grid, reactor=grid.reactor).run(timeout=1e6)
        assert result.succeeded
        # r1 recovers first (t=20) and runs clean for 30.
        assert result.completion_time == pytest.approx(50.0)

    def test_simultaneous_crash_of_every_host_fails_bounded_retries(self):
        grid = SimulatedGrid(config=GridConfig(heartbeats=False))
        grid.add_host(RELIABLE("h1"))
        grid.install_everywhere("task", FixedDurationTask(30.0))
        script = FailureScript(
            [
                FailureEvent(5.0, "h1", "crash"),
                FailureEvent(6.0, "h1", "recover"),
                FailureEvent(10.0, "h1", "crash"),
                FailureEvent(11.0, "h1", "recover"),
                FailureEvent(15.0, "h1", "crash"),
                FailureEvent(1000.0, "h1", "recover"),
            ]
        )
        script.arm(grid.kernel, grid.hosts, grid.network)
        wf = single_task(policy=FailurePolicy.retrying(3))
        result = WorkflowEngine(wf, grid, reactor=grid.reactor).run(timeout=1e7)
        assert result.status is WorkflowStatus.FAILED
        assert result.tries["task"] == 3


class TestStorm:
    def test_many_tasks_on_flaky_grid_all_recover(self):
        # 20 independent tasks, 4 volunteer hosts, aggressive failure rates:
        # unlimited retrying must carry every task to completion.
        grid = SimulatedGrid(
            seed=23, config=GridConfig(heartbeats=False)
        )
        for i in range(4):
            grid.add_host(UNRELIABLE(f"v{i}", mttf=10.0, mean_downtime=2.0))
        grid.install_everywhere("task", FixedDurationTask(12.0))
        builder = WorkflowBuilder("storm").program(
            "task", hosts=[f"v{i}" for i in range(4)]
        )
        builder.dummy("start")
        names = [f"t{i:02d}" for i in range(20)]
        for i, name in enumerate(names):
            builder.activity(
                name,
                implement="task",
                policy=FailurePolicy.retrying(
                    None, resource_selection=ResourceSelection.ROTATE
                ),
            )
        builder.dummy("end")
        builder.fan_out("start", *names)
        builder.fan_in("end", *names)
        wf = builder.build()
        result = WorkflowEngine(wf, grid, reactor=grid.reactor).run(timeout=1e7)
        assert result.succeeded
        assert all(
            result.node_statuses[name] is NodeStatus.DONE for name in names
        )
        total_tries = sum(result.tries[name] for name in names)
        assert total_tries > 20  # the storm actually bit
