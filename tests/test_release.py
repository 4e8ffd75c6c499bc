"""A workflow's end releases what was kept for it.

A run is released however it ends — done, failed, an exception, or
cancelled as an OR join's loser — and with it go its slots' checkpoint
flags; an instance's finish releases its id at the execution service
(attempt numbering, stored checkpoints); a local job leaves the executor's
table when it sends its ``Done``.
"""

from __future__ import annotations

import sys

from repro.core import FailurePolicy
from repro.engine import EngineHost, LocalExecutor, NodeStatus, WorkflowEngine
from repro.grid import RELIABLE, CheckpointingTask, FixedDurationTask, inject_crash
from repro.reactor import RealTimeReactor
from repro.wpdl import JoinMode, WorkflowBuilder
from tests.helpers import single_task_workflow

#: Five segments of 5 s, each closed by a 0.5 s checkpoint; a restart
#: costs 0.5 s.
SOLVE = CheckpointingTask(duration=30.0, checkpoints=6, overhead=0.5, recovery_time=0.5)


def _solver_grid(quiet_grid):
    quiet_grid.add_host(RELIABLE("h1"))
    quiet_grid.add_host(RELIABLE("h2"))
    quiet_grid.install("h1", "quick", FixedDurationTask(20.0))
    quiet_grid.install("h2", "solve", SOLVE)
    return quiet_grid


def _ended(grid, host, wfid):
    """What is still kept for *wfid* once it ended, anywhere."""
    scope = f"{wfid}::"
    return {
        "records": [
            key for key in host.runtime.checkpoints.snapshot() if key.startswith(scope)
        ],
        "store": grid.store.keys(),
        "attempt counters": list(grid.gram._attempt_counters),
        "live jobs": grid.gram.live_jobs,
        "engine": wfid in host.pending,
    }


NOTHING = {
    "records": [],
    "store": [],
    "attempt counters": [],
    "live jobs": 0,
    "engine": False,
}


class TestARunEndsOneWay:
    def test_an_or_join_loser_that_checkpointed_leaves_nothing(self, quiet_grid):
        """``solve`` checkpoints twice, crashes at 12 s and resumes from its
        flag; ``quick`` wins the join at 20 s and ``solve`` is cancelled."""
        grid = _solver_grid(quiet_grid)
        inject_crash(grid.kernel, grid.host("h2"), at=12.0, duration=0.0)
        wf = (
            WorkflowBuilder("race")
            .program("quick", hosts=["h1"])
            .program("solve", hosts=["h2"])
            .dummy("split")
            .activity("quick", implement="quick")
            .activity("solve", implement="solve", policy=FailurePolicy.retrying(None))
            .dummy("join", join=JoinMode.OR)
            .fan_out("split", "quick", "solve")
            .fan_in("join", "quick", "solve")
            .build()
        )
        host = EngineHost(grid, reactor=grid.reactor)
        wfid = host.submit(wf)
        engine = host.engine(wfid)
        seen = []
        grid.reactor.call_later(
            15.0, lambda: seen.append(engine.coordinator.snapshot_activity("solve"))
        )
        [result] = host.wait_all(timeout=1e6).values()
        assert result.succeeded
        assert result.node_statuses["solve"] is NodeStatus.CANCELLED
        # Mid-run the flag was kept: the restart resumed from it.
        assert seen[0]["slots"][0]["flag"]
        assert _ended(grid, host, wfid) == NOTHING

    def test_a_checkpointing_activity_out_of_tries_leaves_nothing(self, quiet_grid):
        """Two tries, two crashes after a checkpoint: ``solve`` fails."""
        grid = _solver_grid(quiet_grid)
        for at in (12.0, 15.0):
            inject_crash(grid.kernel, grid.host("h2"), at=at, duration=0.0)
        wf = (
            WorkflowBuilder("solo")
            .program("solve", hosts=["h2"])
            .activity("solve", implement="solve", policy=FailurePolicy.retrying(2))
            .build()
        )
        host = EngineHost(grid, reactor=grid.reactor)
        wfid = host.submit(wf)
        [result] = host.wait_all(timeout=1e6).values()
        assert result.node_statuses["solve"] is NodeStatus.FAILED
        assert result.tries["solve"] == 2
        assert _ended(grid, host, wfid) == NOTHING

    def test_attempts_are_numbered_per_instance(self, quiet_grid):
        """An unscoped engine's finish releases its id, ``""``: a second
        run on the same grid numbers its attempts from 1 again (they
        carried over before)."""
        quiet_grid.add_host(RELIABLE("h1"))
        attempts = []

        class Numbered(FixedDurationTask):
            def plan(self, ctx):
                attempts.append(ctx.attempt)
                return super().plan(ctx)

        quiet_grid.install("h1", "task", Numbered(1.0))
        for _run in range(2):
            engine = WorkflowEngine(
                single_task_workflow(), quiet_grid, reactor=quiet_grid.reactor
            )
            assert engine.run(timeout=1e6).succeeded
        assert attempts == [1, 1]


class TestLocalJobs:
    def test_a_local_job_leaves_the_table_with_its_done(self):
        rt = RealTimeReactor()
        executor = LocalExecutor(rt)
        executor.register("ok", lambda ctx: 1)
        executor.register("crash", lambda ctx: 1 / 0)
        programs = ("ok", "crash", "missing")
        # Six independent tasks: none is cancelled, so every job ends by
        # itself (a cancelled one's thread may outlive the run).
        builder = WorkflowBuilder("six")
        for program in programs:
            builder.program(program, hosts=["localhost"])
        names = [f"t{i}" for i in range(6)]
        for i, name in enumerate(names):
            builder.activity(name, implement=programs[i % 3])
        result = WorkflowEngine(builder.build(), executor, reactor=rt).run(timeout=30.0)
        assert sorted(result.tries) == names
        assert executor._jobs == {}
        # The crashes' tracebacks stay, as diagnostics.
        assert len(executor.crash_tracebacks) == 2


    def test_many_jobs_ending_at_once_leave_the_table_empty(self):
        """Forty tasks on as many threads, switching as often as the
        interpreter allows: every ``Done`` takes its job out of the table
        under the executor's lock, while the reactor thread submits."""
        rt = RealTimeReactor()
        executor = LocalExecutor(rt)
        executor.register("ok", lambda ctx: sum(range(200)))
        builder = WorkflowBuilder("forty").program("ok", hosts=["localhost"])
        names = [f"t{i}" for i in range(40)]
        for name in names:
            builder.activity(name, implement="ok")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = WorkflowEngine(builder.build(), executor, reactor=rt).run(
                timeout=60.0
            )
        finally:
            sys.setswitchinterval(interval)
        assert result.succeeded and sorted(result.tries) == sorted(names)
        assert executor._jobs == {}
