"""Engine checkpointing and restart tests (Section 7's engine fault
tolerance): the engine saves the instance tree after every task termination
and resumes navigation from the saved state."""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET

import pytest

from tests.helpers import single_task_workflow
from repro.core import FailurePolicy
from repro.core.policy import ResourceSelection
from repro.engine import (
    EngineCheckpointer,
    NodeStatus,
    WorkflowEngine,
    WorkflowStatus,
    load_checkpoint,
)
from repro.engine.checkpoint import EngineCheckpointer as Checkpointer
from repro.engine.instance import WorkflowInstance
from repro.errors import CheckpointError
from repro.grid import (
    RELIABLE,
    CheckpointingTask,
    CrashingTask,
    ExceptionProneTask,
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

    @pytest.mark.contract
    def test_resume_keeps_a_rotated_slots_option(self, tmp_path):
        # ``a`` crashes once on h1 and rotates to h2; ``b``'s completion at
        # t=5 checkpoints the engine while that second try runs.
        path = tmp_path / "engine.ckpt"
        rotate = FailurePolicy.retrying(5, resource_selection=ResourceSelection.ROTATE)
        spec = (
            WorkflowBuilder("rotated")
            .program("rot", hosts=["h1", "h2", "h3"])
            .program("short", hosts=["h1"])
            .activity("a", implement="rot", policy=rotate)
            .activity("b", implement="short")
            .build()
        )

        def grid_and_submissions():
            grid = SimulatedGrid(config=GridConfig(heartbeats=False))
            for name in ("h1", "h2", "h3"):
                grid.add_host(RELIABLE(name, slots=None))
            grid.install_everywhere(
                "rot", CrashingTask(duration=10.0, crash_at=1.0, crashes=1)
            )
            grid.install("h1", "short", FixedDurationTask(5.0, result="ok"))
            submitted = []
            submit = grid.submit

            def recording(request, **kwargs):
                submitted.append(request.hostname)
                return submit(request, **kwargs)

            grid.submit = recording
            return grid, submitted

        grid1, submitted1 = grid_and_submissions()
        engine1 = WorkflowEngine(
            spec, grid1, reactor=grid1.reactor, checkpointer=EngineCheckpointer(path)
        )
        engine1.start()
        grid1.kernel.run_until(6.0)
        assert submitted1 == ["h1", "h1", "h2"]  # a, b, then a again
        state = json.loads(ET.fromstring(path.read_text()).find("InstanceState").text)
        [slot] = state["nodes"]["a"]["recovery_state"]["slots"]
        assert slot["option"] == 1 and slot["tries"] == 2

        grid2, submitted2 = grid_and_submissions()
        resumed = WorkflowEngine.resume(str(path), grid2, reactor=grid2.reactor)
        assert resumed.run(timeout=1e6).succeeded
        assert submitted2[0] == "h2"

    @pytest.mark.contract
    def test_a_restored_option_out_of_range_is_a_checkpoint_error(self, tmp_path):
        path = tmp_path / "engine.ckpt"
        wf = single_task_workflow(policy=FailurePolicy.retrying(3))
        grid1 = SimulatedGrid(config=GridConfig(heartbeats=False))
        grid1.add_host(RELIABLE("h1"))
        grid1.install(
            "h1", "task", CrashingTask(duration=30.0, crash_at=5.0, crashes=None)
        )
        engine1 = WorkflowEngine(
            wf, grid1, reactor=grid1.reactor, checkpointer=EngineCheckpointer(path)
        )
        engine1.start()
        grid1.kernel.run_until(7.0)
        engine1._checkpoint()
        root = ET.fromstring(path.read_text())
        holder = root.find("InstanceState")
        state = json.loads(holder.text)
        state["nodes"]["task"]["recovery_state"]["slots"][0]["option"] = 4
        holder.text = json.dumps(state)
        path.write_text(ET.tostring(root, encoding="unicode"))

        grid2 = SimulatedGrid(config=GridConfig(heartbeats=False))
        grid2.add_host(RELIABLE("h1"))
        grid2.install("h1", "task", FixedDurationTask(1.0, result="ok"))
        resumed = WorkflowEngine.resume(str(path), grid2, reactor=grid2.reactor)
        with pytest.raises(CheckpointError, match="'task'.*option index 4"):
            resumed.run(timeout=1e6)
        assert grid2.gram.submitted_count == 0

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


class _Reads(dict):
    """One level of a checkpoint that remembers which of its keys were
    read."""

    def __init__(self, data) -> None:
        super().__init__(data)
        self.read: set[str] = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def _unread(spec, state, coordinator) -> set[tuple[str, str]]:
    """``(level, key)`` for every key *state* holds that ``restore`` (the
    instance and its nodes) or ``_restore_slots`` (each activity's slots)
    does not read."""
    levels: list[tuple[str, _Reads]] = []

    def level(name: str, data: dict) -> _Reads:
        levels.append((name, _Reads(data)))
        return levels[-1][1]

    recovery = []
    nodes = {}
    for name, node in state["nodes"].items():
        node = dict(node)
        if node["exception"] is not None:
            node["exception"] = level("exception", node["exception"])
        slots = [level("slot", s) for s in node["recovery_state"].get("slots", ())]
        if slots:
            recovery.append((name, level("recovery_state", {"slots": slots})))
        nodes[name] = level("node", node)
    WorkflowInstance.restore(spec, level("instance", {**state, "nodes": nodes}))
    for name, recovery_state in recovery:
        coordinator._restore_slots(coordinator._runs[name], recovery_state)
    return {(name, key) for name, data in levels for key in data.keys() - data.read}


@pytest.mark.contract
class TestCheckpointSchema:
    def test_every_written_key_is_read_back(self, tmp_path):
        """Every key ``WorkflowInstance.snapshot``, ``NodeInstance.snapshot``
        and ``RecoveryCoordinator.snapshot_activity`` write is read by
        ``restore`` / ``_restore_slots``: a field saved but never restored
        is state a resume silently loses."""
        path = tmp_path / "engine.ckpt"
        spec = (
            WorkflowBuilder("schema")
            .program("solve", hosts=["h1"])
            .program("probe", hosts=["h2"])
            .variable("x", 1)
            .activity("solve", implement="solve", policy=FailurePolicy.retrying(5))
            .activity("probe", implement="probe")
            .dummy("handled")
            .on_exception("probe", "disk_full", "handled")
            .build()
        )

        def grid():
            grid = SimulatedGrid(config=GridConfig(heartbeats=False))
            grid.add_host(RELIABLE("h1"))
            grid.add_host(RELIABLE("h2"))
            grid.install("h1", "solve", CheckpointingTask(duration=30.0, checkpoints=6))
            grid.install(
                "h2", "probe", ExceptionProneTask(duration=2.0, checks=1, probability=1)
            )
            return grid

        grid1 = grid()
        inject_crash(grid1.kernel, grid1.host("h1"), at=17.0, duration=0.0)
        engine = WorkflowEngine(
            spec, grid1, reactor=grid1.reactor, checkpointer=EngineCheckpointer(path)
        )
        engine.start()
        grid1.kernel.run_until(18.0)  # probe failed on its exception; solve
        engine._checkpoint()  # retries from its third checkpoint
        state = json.loads(ET.fromstring(path.read_text()).find("InstanceState").text)
        # Every optional part of the schema is there to be read.
        assert state["nodes"]["probe"]["exception"]["name"] == "disk_full"
        [slot] = state["nodes"]["solve"]["recovery_state"]["slots"]
        assert slot["flag"] and slot["progress"] == 0.5

        grid2 = grid()
        resumed = WorkflowEngine.resume(str(path), grid2, reactor=grid2.reactor)
        resumed.start()
        grid2.kernel.run_until(0.1)  # solve is relaunched with its slot
        assert _unread(spec, state, resumed.coordinator) == set()
        # And a key written but not read is found, at any level.
        state["nodes"]["probe"]["planted"] = 1
        state["nodes"]["probe"]["exception"]["planted"] = 1
        slot["planted"] = 1
        assert _unread(spec, state, resumed.coordinator) == {
            ("node", "planted"),
            ("exception", "planted"),
            ("slot", "planted"),
        }
