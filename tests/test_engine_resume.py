"""Engine checkpointing and restart tests (Section 7's engine fault
tolerance): the engine saves the instance tree after every task termination
and resumes navigation from the saved state."""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET

import pytest

from tests.helpers import single_task_workflow
from repro.core import FailurePolicy
from repro.engine import (
    EngineCheckpointer,
    NodeStatus,
    WorkflowEngine,
    WorkflowStatus,
    load_checkpoint,
)
from repro.engine.checkpoint import EngineCheckpointer as Checkpointer
from repro.errors import CheckpointError
from repro.grid import (
    RELIABLE,
    CheckpointingTask,
    CrashingTask,
    FixedDurationTask,
    GridConfig,
    SimulatedGrid,
)
from repro.grid.failures import inject_crash
from repro.wpdl import WorkflowBuilder


def chain_workflow():
    return (
        WorkflowBuilder("chain")
        .program("step", hosts=["h1"])
        .activity("a", implement="step", policy=FailurePolicy.retrying(3))
        .activity("b", implement="step")
        .activity("c", implement="step")
        .sequence("a", "b", "c")
        .build()
    )


def fresh_grid():
    grid = SimulatedGrid(config=GridConfig(heartbeats=False))
    grid.add_host(RELIABLE("h1"))
    grid.install("h1", "step", FixedDurationTask(10.0, result="ok"))
    return grid


#: Well-formed JSON of the wrong shape, by what is wrong with it
#: (``x.pop(key) and state``: drop the key, hand the state back).
DAMAGED_STATES = {
    "no-status": lambda state: state.pop("status") and state,
    "a-list": lambda state: [state],
    "unknown-status": lambda state: {**state, "status": "paused"},
    "nameless-node": lambda state: state["nodes"]["a"].pop("name") and state,
}


def damaged_checkpoint(tmp_path, damage):
    """A real checkpoint of the chain whose ``<InstanceState>`` JSON went
    through ``DAMAGED_STATES[damage]``; the XML around it stays valid."""
    path = tmp_path / "engine.ckpt"
    grid = fresh_grid()
    engine = WorkflowEngine(
        chain_workflow(), grid, reactor=grid.reactor, checkpointer=Checkpointer(path)
    )
    assert engine.run(timeout=1e6).succeeded
    root = ET.fromstring(path.read_text())
    holder = root.find("InstanceState")
    holder.text = json.dumps(DAMAGED_STATES[damage](json.loads(holder.text)))
    path.write_text(ET.tostring(root, encoding="unicode"))
    return path


class TestCheckpointCadence:
    def test_saved_after_every_task_termination(self, tmp_path):
        grid = fresh_grid()
        ckpt = EngineCheckpointer(tmp_path / "engine.ckpt")
        engine = WorkflowEngine(
            chain_workflow(), grid, reactor=grid.reactor, checkpointer=ckpt
        )
        result = engine.run(timeout=1e6)
        assert result.succeeded
        assert ckpt.saves == 3  # one per task termination
        assert ckpt.exists()

    def test_checkpoint_contains_progress(self, tmp_path):
        grid = fresh_grid()
        path = tmp_path / "engine.ckpt"
        engine = WorkflowEngine(
            chain_workflow(),
            grid,
            reactor=grid.reactor,
            checkpointer=EngineCheckpointer(path),
        )
        engine.start()
        # Stop mid-workflow: run only until task "a" finished (t=10).
        grid.kernel.run_until(12.0)
        spec, instance = load_checkpoint(path)
        assert spec.name == "chain"
        assert instance.node("a").status is NodeStatus.DONE
        # "b" was RUNNING at save time; the loader resets it for re-launch.
        assert instance.node("b").status is NodeStatus.PENDING
        assert instance.node("c").status is NodeStatus.PENDING


class TestResume:
    def test_resume_completes_remaining_work_only(self, tmp_path):
        path = tmp_path / "engine.ckpt"
        grid1 = fresh_grid()
        engine1 = WorkflowEngine(
            chain_workflow(),
            grid1,
            reactor=grid1.reactor,
            checkpointer=EngineCheckpointer(path),
        )
        engine1.start()
        grid1.kernel.run_until(12.0)  # a done, b in flight; engine "dies"

        grid2 = fresh_grid()
        engine2 = WorkflowEngine.resume(
            str(path), grid2, reactor=grid2.reactor
        )
        result = engine2.run(timeout=1e6)
        assert result.succeeded
        # Only b and c run in the new engine's timeline: 20 virtual seconds.
        assert result.completion_time == pytest.approx(20.0)
        assert result.variables["a"] == "ok"  # carried over in variables

    def test_resume_preserves_retry_budget(self, tmp_path):
        path = tmp_path / "engine.ckpt"
        wf = single_task_workflow(policy=FailurePolicy.retrying(3))

        grid1 = SimulatedGrid(config=GridConfig(heartbeats=False))
        grid1.add_host(RELIABLE("h1"))
        grid1.install(
            "h1", "task", CrashingTask(duration=30.0, crash_at=5.0, crashes=None)
        )
        engine1 = WorkflowEngine(
            wf, grid1, reactor=grid1.reactor,
            checkpointer=EngineCheckpointer(path),
        )
        engine1.start()
        grid1.kernel.run_until(7.0)  # first try crashed (budget: 1 used)...
        engine1._checkpoint()  # ...engine dies right after recording it

        grid2 = SimulatedGrid(config=GridConfig(heartbeats=False))
        grid2.add_host(RELIABLE("h1"))
        grid2.install(
            "h1", "task", CrashingTask(duration=30.0, crash_at=5.0, crashes=None)
        )
        engine2 = WorkflowEngine.resume(str(path), grid2, reactor=grid2.reactor)
        result = engine2.run(timeout=1e6)
        assert result.status is WorkflowStatus.FAILED
        # Fresh grid counts attempts from 1 again, but the *budget* carries:
        # only 3 total tries ever happen (1 before + 2 after the restart).
        assert result.tries["task"] == 3

    def test_a_checkpoints_progress_reaches_the_engine_checkpoint(self, tmp_path):
        # Six segments of 5 s plus 0.5 s per checkpoint: the 3rd is written
        # at t=16.5 and the 4th would be at 22; the host crashes at 17.
        path = tmp_path / "engine.ckpt"
        grid = SimulatedGrid(config=GridConfig(heartbeats=False))
        grid.add_host(RELIABLE("h1"))
        grid.install(
            "h1", "task", CheckpointingTask(duration=30.0, checkpoints=6, overhead=0.5)
        )
        inject_crash(grid.kernel, grid.host("h1"), at=17.0, duration=0.0)
        engine = WorkflowEngine(
            single_task_workflow(policy=FailurePolicy.retrying(None)),
            grid,
            reactor=grid.reactor,
            checkpointer=EngineCheckpointer(path),
        )
        engine.start()
        grid.kernel.run_until(18.0)  # crashed after 3 of 6, retrying...
        engine._checkpoint()  # ...and the engine dies right after recording it
        assert engine.runtime.checkpoints.progress_of("task@slot0") == 0.5
        state = json.loads(ET.fromstring(path.read_text()).find("InstanceState").text)
        [slot] = state["nodes"]["task"]["recovery_state"]["slots"]
        assert slot["progress"] == 0.5
        # A resumed engine reads it back with the flag at its first launch.
        grid2 = SimulatedGrid(config=GridConfig(heartbeats=False))
        grid2.add_host(RELIABLE("h1"))
        grid2.install(
            "h1", "task", CheckpointingTask(duration=30.0, checkpoints=6, overhead=0.5)
        )
        resumed = WorkflowEngine.resume(str(path), grid2, reactor=grid2.reactor)
        resumed.start()
        grid2.kernel.run_until(0.1)
        assert resumed.runtime.checkpoints.progress_of("task@slot0") == 0.5

    def test_resume_after_success_is_terminal_noop(self, tmp_path):
        path = tmp_path / "engine.ckpt"
        grid1 = fresh_grid()
        WorkflowEngine(
            chain_workflow(), grid1, reactor=grid1.reactor,
            checkpointer=EngineCheckpointer(path),
        ).run(timeout=1e6)

        grid2 = fresh_grid()
        engine2 = WorkflowEngine.resume(str(path), grid2, reactor=grid2.reactor)
        result = engine2.run(timeout=1e6)
        assert result.succeeded
        assert result.completion_time == pytest.approx(0.0)  # nothing re-ran
        assert grid2.gram.submitted_count == 0


class TestCheckpointFileFormat:
    def test_load_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "missing.ckpt")

    def test_load_corrupt_xml(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("<EngineCheckpoint><unclosed>")
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(path)

    def test_load_wrong_root(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("<NotACheckpoint/>")
        with pytest.raises(CheckpointError, match="not an engine checkpoint"):
            load_checkpoint(path)

    def test_load_incomplete_structure(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("<EngineCheckpoint><Specification/></EngineCheckpoint>")
        with pytest.raises(CheckpointError, match="incomplete"):
            load_checkpoint(path)

    @pytest.mark.parametrize("damage", sorted(DAMAGED_STATES))
    def test_damaged_instance_state_is_a_checkpoint_error(self, tmp_path, damage):
        path = damaged_checkpoint(tmp_path, damage)
        with pytest.raises(CheckpointError, match="malformed instance state"):
            load_checkpoint(path)

    def test_remove_is_idempotent(self, tmp_path):
        ckpt = Checkpointer(tmp_path / "x.ckpt")
        ckpt.remove()
        ckpt.remove()
        assert not ckpt.exists()
