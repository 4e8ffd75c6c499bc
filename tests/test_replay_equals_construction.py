"""A run starts from one definition: a reused world replays a fresh one.

Rewinding a world in place (``grid.reset(seed)`` then ``engine.reset()``)
must leave it exactly as a newly built world at the same seed, down to the
kernel's timer counters: the Monte-Carlo sampler and a restart at any event
boundary both rely on it.  Two properties make that hold by construction
rather than by discipline, and both are pinned here:

* every layer with a rewind writes its run state in one place — its
  constructor sets the wiring and then calls ``reset()`` (``clear()`` for
  the timer heap, ``_begin()`` for an engine, whose ``reset()`` calls it
  too), and no attribute is assigned in both;
* a kernel reset disowns every entry still queued, so a handle kept from
  the previous run cancels nothing in the next one, whoever holds it (the
  detector's liveness sweep, a coordinator's pending backoff retry).
"""

from __future__ import annotations

import ast
import inspect
import textwrap

import pytest

from repro.detection.detector import FailureDetector
from repro.engine.engine import WorkflowEngine
from repro.errors import EngineError
from repro.grid.gram import GramService
from repro.grid.host import Host
from repro.grid.network import Network
from repro.grid.resource import ResourceSpec
from repro.grid.simgrid import GridConfig, SimulatedGrid
from repro.grid.simkernel import SimKernel
from repro.sim import EXTENDED_TECHNIQUES, SimulationParams
from repro.sim.engine_mc import _installs, build_technique_workflow
from repro.timerheap import TimerHeap

#: Every test here pins a contract of the program (CI's contract step).
pytestmark = pytest.mark.contract

PARAMS = SimulationParams(mttf=20, runs=10, seed=7)
HEARTBEAT_TIMEOUT = 3.0


def build_world(technique: str, seed: int, *, heartbeats: bool):
    """The engine Monte-Carlo world of *technique*, with heartbeat
    detection on or off."""
    grid = SimulatedGrid(
        seed=seed,
        config=GridConfig(crash_detection="prompt", heartbeats=heartbeats),
    )
    for hostname, program, behavior in _installs(technique, PARAMS):
        grid.add_host(
            ResourceSpec(
                hostname=hostname, mttf=PARAMS.mttf, mean_downtime=PARAMS.downtime
            )
        )
        grid.install(hostname, program, behavior)
    engine = WorkflowEngine(
        build_technique_workflow(technique, PARAMS),
        grid,
        reactor=grid.reactor,
        heartbeat_timeout=HEARTBEAT_TIMEOUT if heartbeats else None,
        validate_spec=False,
    )
    return grid, engine


def observe(grid: SimulatedGrid, engine: WorkflowEngine) -> dict:
    """Run *engine* to completion and read everything a run leaves behind."""
    result = engine.run(timeout=1e6)
    detector = engine.runtime.detector
    return {
        "result": result,
        "kernel": grid.kernel.stats(),
        "network": grid.network.stats,
        "submitted": grid.gram.submitted_count,
        "heartbeats": detector.heartbeats_observed,
        "liveness": detector.liveness_snapshot(),
    }


def replay(grid: SimulatedGrid, engine: WorkflowEngine, seed: int) -> dict:
    grid.reset(seed=seed)
    engine.reset()
    return observe(grid, engine)


def fresh(technique: str, seed: int, *, heartbeats: bool) -> dict:
    return observe(*build_world(technique, seed, heartbeats=heartbeats))


class TestAReusedWorldReplaysAFreshOne:
    @pytest.mark.parametrize("heartbeats", [False, True], ids=["prompt", "heartbeats"])
    @pytest.mark.parametrize("technique", EXTENDED_TECHNIQUES)
    def test_after_a_finished_run(self, technique, heartbeats):
        grid, engine = build_world(technique, 7, heartbeats=heartbeats)
        observe(grid, engine)
        reused = replay(grid, engine, 2)
        assert reused == fresh(technique, 2, heartbeats=heartbeats)
        # And again: a second rewind is no different from the first.
        assert replay(grid, engine, 3) == fresh(technique, 3, heartbeats=heartbeats)

    def test_after_a_run_cut_off_in_a_backoff_wait(self):
        # At seed 1 the first attempt crashes before t=20 and the retry
        # waits out its backoff past it: the cut leaves that timer queued.
        grid, engine = build_world("backoff_retry", 1, heartbeats=False)
        with pytest.raises(EngineError, match="did not terminate"):
            engine.run(timeout=20.0)
        assert grid.kernel.pending() and engine.coordinator.running_activities()
        reused = replay(grid, engine, 2)
        assert reused == fresh("backoff_retry", 2, heartbeats=False)


class TestAHandleFromBeforeAResetCancelsNothing:
    def test_heap_and_lane_entries_are_disowned(self):
        kernel = SimKernel()
        later = kernel.schedule(5.0, lambda: None)
        now = kernel.schedule(0.0, lambda: None)
        kernel.reset()
        later.cancel()
        now.cancel()
        assert kernel.stats() == SimKernel().stats()
        assert not later.cancelled and not now.cancelled


# -- one definition of run state ---------------------------------------------

#: Every layer with a rewind, and the method that writes its run state.
REWINDABLE = [
    (TimerHeap, "clear"),
    (SimKernel, "reset"),
    (Network, "reset"),
    (Host, "reset"),
    (GramService, "reset"),
    (FailureDetector, "reset"),
    # Its public reset also rewinds the shared detector and coordinator.
    (WorkflowEngine, "_begin"),
]


def _method(cls: type, name: str) -> ast.FunctionDef:
    tree = ast.parse(textwrap.dedent(inspect.getsource(getattr(cls, name))))
    return tree.body[0]


def _assigned(function: ast.FunctionDef) -> set[str]:
    """``self.<attr>`` names *function* assigns (plainly, annotated or
    augmented)."""
    names = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for leaf in ast.walk(target):
                if (
                    isinstance(leaf, ast.Attribute)
                    and isinstance(leaf.value, ast.Name)
                    and leaf.value.id == "self"
                ):
                    names.add(leaf.attr)
    return names


def _self_calls(function: ast.FunctionDef) -> set[str]:
    return {
        node.func.attr
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "self"
    }


def _assigned_through(cls: type, name: str) -> set[str]:
    """What *name* assigns, itself or through the methods it calls on self."""
    seen, todo, names = set(), [name], set()
    while todo:
        method = todo.pop()
        if method in seen or not inspect.isfunction(getattr(cls, method, None)):
            continue
        seen.add(method)
        function = _method(cls, method)
        names |= _assigned(function)
        todo.extend(_self_calls(function))
    return names


@pytest.mark.parametrize(
    "cls, rewind", REWINDABLE, ids=[cls.__name__ for cls, _ in REWINDABLE]
)
def test_construction_is_a_rewind(cls, rewind):
    init = _method(cls, "__init__")
    calls = _self_calls(init)
    assert rewind in calls, f"{cls.__name__}.__init__ does not call {rewind}()"
    both = _assigned(init) & _assigned_through(cls, rewind)
    assert not both, f"{cls.__name__} writes {sorted(both)} in __init__ and {rewind}"
    if rewind != "reset" and hasattr(cls, "reset"):
        assert rewind in _self_calls(_method(cls, "reset"))


def test_one_kernel_loop_pops_events():
    def pops(function: ast.FunctionDef) -> bool:
        return any(
            (isinstance(node, ast.Name) and node.id == "heappop")
            or (isinstance(node, ast.Attribute) and node.attr in {"heappop", "popleft"})
            for node in ast.walk(function)
        )

    popping = [
        name
        for name, member in vars(SimKernel).items()
        if inspect.isfunction(member) and pops(_method(SimKernel, name))
    ]
    assert popping == ["run_until_done"]
