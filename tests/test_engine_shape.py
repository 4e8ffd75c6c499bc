"""The engine layer's shape: a coordinator is built on the runtime its
engine runs on and reads every collaborator off it, a runtime is built in
one place, and the engines of a host's instances and of a loop's
iterations hold their parent's runtime by identity."""

from __future__ import annotations

import inspect
import types

import pytest

from repro.engine import EngineHost, WorkflowEngine
from repro.engine.engine import EngineRuntime
from repro.engine.recovery import RecoveryCoordinator
from tests.test_engine_loops_resume import loop_workflow, make_grid

#: What a coordinator reads off its runtime.
PARTS = ("reactor", "bus", "service", "detector", "broker", "checkpoints", "tracer")


def _holds_its_runtime(engine: WorkflowEngine, runtime: EngineRuntime) -> None:
    assert engine.runtime is runtime
    kept = vars(engine.coordinator)
    for part in PARTS:
        value = getattr(runtime, part)
        if value is not None:
            assert any(v is value for v in kept.values()), part
    # Each part is kept as the object it is, never as one of its bound
    # methods, so a wrapper set on the part later is what the coordinator
    # calls.
    parts = [getattr(runtime, part) for part in PARTS]
    for name, value in kept.items():
        if isinstance(value, types.MethodType):
            assert not any(value.__self__ is part for part in parts), name


@pytest.fixture
def children(monkeypatch):
    """Every engine built on another's runtime, as (runtime given, engine)."""
    built = []
    build = WorkflowEngine._on_runtime.__func__

    def recording(cls, runtime, *args, **kwargs):
        engine = build(cls, runtime, *args, **kwargs)
        built.append((runtime, engine))
        return engine

    monkeypatch.setattr(WorkflowEngine, "_on_runtime", classmethod(recording))
    return built


@pytest.mark.contract
def test_a_coordinator_is_built_on_a_runtime():
    parameters = inspect.signature(RecoveryCoordinator).parameters
    assert list(parameters) == ["runtime", "plans", "on_resolution", "workflow_id"]
    kinds = [p.kind for p in parameters.values()]
    assert kinds == [inspect.Parameter.POSITIONAL_OR_KEYWORD] * 2 + [
        inspect.Parameter.KEYWORD_ONLY
    ] * 2


@pytest.mark.contract
def test_an_engine_builds_its_own_runtime():
    parameters = inspect.signature(WorkflowEngine).parameters
    assert not {"runtime", "on_finished"} & set(parameters)
    assert len(parameters) == 12
    # What the runtime is built from cannot be given beside a runtime, so
    # none of it can be silently ignored.
    grid = make_grid()
    with pytest.raises(TypeError):
        WorkflowEngine(loop_workflow(2), grid, reactor=grid.reactor, runtime=None)


@pytest.mark.contract
def test_every_loop_child_holds_its_parents_runtime(children):
    grid = make_grid()
    engine = WorkflowEngine(loop_workflow(3), grid, reactor=grid.reactor)
    assert engine.run(timeout=1e7).succeeded
    _holds_its_runtime(engine, engine.runtime)
    assert len(children) == 3
    for runtime, child in children:
        assert runtime is engine.runtime
        _holds_its_runtime(child, engine.runtime)


@pytest.mark.contract
def test_every_engine_of_a_host_holds_the_hosts_runtime(children):
    grid = make_grid()
    host = EngineHost(grid, reactor=grid.reactor)
    # Taken at submit: the host drops an engine when it finishes.
    engines = [host.engine(w) for w in host.submit_many(loop_workflow(2), count=3)]
    assert all(r.succeeded for r in host.wait_all(timeout=1e7).values())
    for engine in engines:
        _holds_its_runtime(engine, host.runtime)
    # Three instances and two iterations of each one's loop.
    assert len(children) == 3 + 3 * 2
    for runtime, child in children:
        assert runtime is host.runtime
        _holds_its_runtime(child, host.runtime)


@pytest.mark.contract
def test_a_host_builds_its_runtime_as_an_engine_does():
    # The one builder: the service delivers to the runtime's detector, and
    # a detector the host builds batches heartbeats where an engine's
    # does not.
    grids = [make_grid(), make_grid()]
    engine = WorkflowEngine(loop_workflow(1), grids[0], reactor=grids[0].reactor)
    host = EngineHost(grids[1], reactor=grids[1].reactor)
    for runtime, grid in ((engine.runtime, grids[0]), (host.runtime, grids[1])):
        assert grid.network._sink == runtime.detector.deliver
    assert not engine.runtime.detector.batch_heartbeats
    assert host.runtime.detector.batch_heartbeats
