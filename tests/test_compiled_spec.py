"""The specification is compiled once: one shared graph per ``Workflow``.

``Workflow.compiled`` is the one derivation of the graph; every instance,
the navigator, the engine and the validator read it.  The per-instance
adjacency build and the by-name navigator it replaced live on in
``tests/eager_models.py`` as the reference, and the property test here
holds the two to exact equivalence step by step.  The rest pins what the
sharing must not break: instances stay independent, the shared form is
immutable and outside ``==`` / ``repr`` / serialisation / pickles, the
parser interns per document, and per-task cost stays flat in graph size.
"""

from __future__ import annotations

import copy
import cProfile
import pickle
import sys
from collections import Counter
from types import MappingProxyType

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.engine.navigator as navigator
import repro.wpdl.parser as parser_module
from repro.core import FailurePolicy
from repro.core.exceptions import ExceptionTable, UserException
from repro.engine import WorkflowEngine
from repro.engine.instance import EdgeState, NodeStatus, WorkflowInstance
from repro.errors import ParseError
from repro.grid import GridConfig, SimulatedGrid
from repro.sim import EngineSampler, SimulationParams
from repro.sim.samplers import EXTENDED_TECHNIQUES
from repro.workloads import chain, diamond_ladder, fork_join, layered_dag
from repro.wpdl import (
    JoinMode,
    TransitionCondition,
    WorkflowBuilder,
    parse_wpdl,
    serialize_wpdl,
)
from repro.wpdl.model import CompiledNode, Loop, Program
from tests.eager_models import EagerNavigator, EagerWorkflowInstance
from tests.helpers import MINTED_TYPES

# ---------------------------------------------------------------------------
# Generated specifications
# ---------------------------------------------------------------------------

_CONDITIONS = (
    TransitionCondition.done(),
    TransitionCondition.done(),
    TransitionCondition.failed(),
    TransitionCondition.always(),
    TransitionCondition.on_exception("disk_full"),
    TransitionCondition.on_exception("disk_*"),
    TransitionCondition.when("x > 1"),
    TransitionCondition.when("x < 1"),
)


def _body(name: str):
    return (
        WorkflowBuilder(name)
        .program("step", hosts=["h0"])
        .activity("step", implement="step")
        .build()
    )


@st.composite
def mixed_graphs(draw):
    """Builder-made DAGs over every construct navigation distinguishes:
    OR joins, ``failed`` / ``exception`` / ``always`` / ``condition=``
    edges, dummies, a loop and a sub-workflow (forward edges only)."""
    n = draw(st.integers(3, 8))
    builder = WorkflowBuilder("mixed").program("work", hosts=["h0", "h1"])
    builder.variable("x", draw(st.integers(0, 2)))
    names = [f"n{i}" for i in range(n)]
    composites = draw(st.sets(st.integers(0, n - 1), max_size=2))
    for i, name in enumerate(names):
        join = draw(st.sampled_from([JoinMode.AND, JoinMode.AND, JoinMode.OR]))
        if i in composites and i % 2:
            builder.loop(name, _body(f"{name}_body"), "x < 0", join=join)
        elif i in composites:
            builder.subworkflow(name, _body(f"{name}_body"), join=join)
        elif draw(st.booleans()):
            builder.dummy(name, join=join)
        else:
            builder.activity(name, implement="work", join=join)
    for j in range(1, n):
        sources = draw(
            st.lists(st.integers(0, j - 1), min_size=1, max_size=3, unique=True)
        )
        for i in sources:
            builder.transition(names[i], names[j], draw(st.sampled_from(_CONDITIONS)))
    return builder.build()


@st.composite
def specs(draw):
    kind = draw(st.sampled_from(["layered", "ladder", "mixed", "mixed"]))
    if kind == "layered":
        return layered_dag(
            draw(st.integers(1, 4)), draw(st.integers(1, 4)), seed=draw(st.integers(0, 99))
        )[0]
    if kind == "ladder":
        return diamond_ladder(draw(st.integers(1, 3)))[0]
    return draw(mixed_graphs())


#: One completion: which running node (an index into the sorted running
#: list, modulo its length) and how it ends.
_OUTCOMES = (
    (NodeStatus.DONE, None),
    (NodeStatus.DONE, None),
    (NodeStatus.DONE, None),
    (NodeStatus.FAILED, None),
    (NodeStatus.EXCEPTION, "disk_full"),
    (NodeStatus.EXCEPTION, "disk_quota"),
    (NodeStatus.EXCEPTION, "oom"),
)
completions = st.lists(
    st.tuples(st.integers(0, 10_000), st.sampled_from(_OUTCOMES)), max_size=60
)


def _state(instance):
    """Everything navigation may have touched, comparable across models."""
    return (
        {name: inst.status for name, inst in instance.nodes.items()},
        list(instance.edges),
    )


def _counters(instance):
    if isinstance(instance, EagerWorkflowInstance):
        return instance._fired_in, instance._dead_in, instance._dead_error_in
    return instance.fired_in, instance.dead_in, instance.dead_error_in


def navigate(make_instance, nav, spec, picks, stop_after=None):
    """Drive one instance the way ``WorkflowEngine._advance`` does —
    incrementally, from the targets of what just resolved — through the
    generated completions, then drain the rest as plain successes (or stop
    after *stop_after* completions).  Returns the step-by-step trace and
    the instance."""
    feeders: dict[str, list[str]] = {name: [] for name in spec.nodes}
    targets: dict[str, list[str]] = {name: [] for name in spec.nodes}
    for t in spec.transitions:
        feeders[t.target].append(t.source)
        targets[t.source].append(t.target)
    instance = make_instance(spec)
    trace = []

    def advance(changed):
        skipped = nav.propagate_skips(instance, changed)
        zombie_candidates = None if changed is None else []
        if zombie_candidates is not None:
            for name in skipped:
                zombie_candidates += feeders[name]
        ready = nav.ready_nodes(instance, changed)
        for name in ready:
            instance.node(name).status = NodeStatus.RUNNING
            if zombie_candidates is not None:
                zombie_candidates += feeders[name]
                zombie_candidates.append(name)
        zombies = nav.irrelevant_running_nodes(instance, zombie_candidates)
        for name in zombies:
            nav.cancel_node(instance, name)
        # The incremental round launches and reaps exactly what a full scan
        # would — a node launched when no target of its own is PENDING any
        # more included.
        assert nav.ready_nodes(instance) == []
        assert nav.irrelevant_running_nodes(instance) == []
        trace.append(
            (skipped, ready, zombies, nav.irrelevant_running_nodes(instance)),
        )
        trace.append(_state(instance))

    advance(None)
    picks = list(picks)
    completed = 0
    while True:
        running = sorted(instance.running_nodes())
        if not running:
            break
        if completed == stop_after:
            return trace, instance
        completed += 1
        pick, (status, exception) = (
            picks.pop(0) if picks else (0, (NodeStatus.DONE, None))
        )
        name = running[pick % len(running)]
        instance.node(name).status = status
        fired = nav.fire_outgoing_edges(
            instance, name, status, UserException(exception) if exception else None
        )
        trace.append((name, fired))
        advance(targets[name])
    nav.assert_no_deadlock(instance)
    trace.append(nav.evaluate_outcome(instance))
    return trace, instance


class TestEquivalentToThePerInstanceGraph:
    @given(specs(), completions)
    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_same_navigation_step_by_step(self, spec, picks):
        expected, reference = navigate(
            EagerWorkflowInstance, EagerNavigator, spec, picks
        )
        trace, instance = navigate(WorkflowInstance, navigator, spec, picks)
        assert trace == expected
        assert _counters(instance) == _counters(reference)
        assert instance.snapshot() == reference.snapshot()

    @given(specs(), completions, st.integers(0, 12))
    @settings(
        max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_same_snapshot_restore_round_trip(self, spec, picks, cut):
        """Stop after *cut* completions, snapshot, restore: each model comes
        back with the state it had and the counters ``_recount_edges``
        rebuilds, both models agree on all of it, and the restored instance
        navigates on (a full scan first, as after a resume) identically."""
        seen = []
        for model, nav in (
            (EagerWorkflowInstance, EagerNavigator),
            (WorkflowInstance, navigator),
        ):
            _, instance = navigate(model, nav, spec, picks, stop_after=cut)
            snapshot = instance.snapshot()
            restored = model.restore(spec, copy.deepcopy(snapshot))
            assert restored.snapshot() == snapshot
            assert _counters(restored) == _counters(instance)
            counters = [dict(c) for c in _counters(restored)]
            rest, _ = navigate(lambda _spec: restored, nav, spec, [])
            seen.append((snapshot, counters, rest))
        assert seen[0] == seen[1]


# ---------------------------------------------------------------------------
# Shared, immutable, invisible
# ---------------------------------------------------------------------------

_IMMUTABLE_LEAVES = (str, int, bool, type(None), Program, Loop, ExceptionTable)


def _assert_immutable(value, path="compiled"):
    if isinstance(value, (tuple, frozenset)):
        for i, item in enumerate(value):
            _assert_immutable(item, f"{path}[{i}]")
    elif isinstance(value, MappingProxyType):
        for key, item in value.items():
            _assert_immutable(item, f"{path}[{key!r}]")
    else:
        # Specification nodes are frozen dataclasses; the rest are leaves.
        frozen = getattr(type(value), "__dataclass_params__", None)
        assert isinstance(value, _IMMUTABLE_LEAVES) or (
            frozen is not None and frozen.frozen
        ), f"{path}: {type(value).__name__} is shared between instances"


class TestSharedByEveryInstance:
    def spec(self):
        return (
            WorkflowBuilder("w")
            .program("work", hosts=["h0"])
            .activity("a", implement="work")
            .activity("b", implement="work", join=JoinMode.OR)
            .activity("c", implement="work")
            .transition("a", "b")
            .transition("a", "c", TransitionCondition.failed())
            .build()
        )

    def test_two_instances_share_one_compiled_form(self):
        spec = self.spec()
        first, second = WorkflowInstance(spec), WorkflowInstance(spec)
        assert first.compiled is second.compiled is spec.compiled
        # The instance owns status only: no adjacency of its own.
        assert not any("incoming" in k or "outgoing" in k for k in vars(first))

    def test_everything_shared_is_immutable(self):
        compiled = self.spec().compiled
        assert isinstance(compiled.nodes, MappingProxyType)
        assert all(isinstance(n, CompiledNode) for n in compiled.nodes.values())
        for field_name, value in vars(compiled).items():
            _assert_immutable(value, field_name)
        with pytest.raises(TypeError):
            compiled.nodes["ghost"] = compiled.nodes["a"]
        with pytest.raises(AttributeError):
            compiled.exits = ()

    def test_driving_one_instance_leaves_the_other_untouched(self):
        spec = self.spec()
        idle, driven = WorkflowInstance(spec), WorkflowInstance(spec)
        before = idle.snapshot()
        _, finished = navigate(lambda s: driven, navigator, spec, [])
        assert finished is driven and driven.terminal()
        assert idle.snapshot() == before
        assert set(idle.edges) == {EdgeState.PENDING}
        assert not any(idle.fired_in.values()) and not any(idle.dead_in.values())

    def test_a_loop_iteration_reuses_its_bodys_compiled_form(self):
        body = _body("body")
        iteration = body.with_variables("body#3", {"x": 1})
        assert iteration.compiled is body.compiled
        assert (iteration.name, iteration.variables) == ("body#3", {"x": 1})
        assert iteration.nodes is body.nodes

    def test_compiled_form_is_outside_equality_repr_and_serialisation(self):
        used, fresh = self.spec(), self.spec()
        used.compiled
        assert used == fresh and repr(used) == repr(fresh)
        assert serialize_wpdl(used) == serialize_wpdl(fresh)
        assert "compiled" not in repr(used)


class TestCopiesOfAUsedSpec:
    """(c) ``pickle`` / ``copy.deepcopy`` of a spec that has been compiled
    and run still equal the original and run to the same result."""

    def run(self, spec):
        wf, setup = spec
        grid = setup(SimulatedGrid(seed=3, config=GridConfig(heartbeats=False)))
        return WorkflowEngine(wf, grid, reactor=grid.reactor).run(timeout=1e6)

    @pytest.mark.parametrize(
        "clone",
        [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"],
    )
    def test_copy_equals_and_runs_like_the_original(self, clone):
        wf, setup = diamond_ladder(3, policy=FailurePolicy.retrying(3))
        expected = self.run((wf, setup))
        assert "compiled" in vars(wf)  # used
        duplicate = clone(wf)
        assert duplicate == wf and duplicate is not wf
        assert "compiled" not in vars(duplicate)  # derived again, not carried
        assert self.run((duplicate, setup)) == expected
        assert duplicate.compiled.nodes.keys() == wf.compiled.nodes.keys()


# ---------------------------------------------------------------------------
# Per-document interning in the parser
# ---------------------------------------------------------------------------


class TestParserInterning:
    def test_60x60_document_constructs_two_policies_and_no_condition(
        self, monkeypatch
    ):
        spec, _ = layered_dag(60, 60, seed=20030623, policy=FailurePolicy.retrying(3))
        text = serialize_wpdl(spec)
        built = {"policy": 0, "condition": 0}

        def counting_policy(*args, **kwargs):
            built["policy"] += 1
            return FailurePolicy(*args, **kwargs)

        new_condition = TransitionCondition.__new__

        def counting_condition(cls, *args, **kwargs):
            built["condition"] += 1
            return new_condition(cls, *args, **kwargs)

        monkeypatch.setattr(parser_module, "FailurePolicy", counting_policy)
        monkeypatch.setattr(TransitionCondition, "__new__", counting_condition)
        parsed = parse_wpdl(text)
        assert built["policy"] <= 2 and built["condition"] <= 1, built
        assert parsed == spec
        policies = {id(a.policy) for a in parsed.activities()}
        assert len(policies) <= 2
        # The attribute-free conditions are shared values wherever a spec
        # comes from: the parsed document and the built one use the same.
        conditions = {id(t.condition) for t in parsed.transitions + spec.transitions}
        assert conditions == {id(TransitionCondition.done())}

    def test_equal_policies_are_one_object_across_bodies(self):
        text = """
        <Workflow name='w'>
          <Activity name='a' max_tries='3' interval='2'><Implement>p</Implement></Activity>
          <Loop name='l' condition='x &lt; 1'>
            <Body>
              <Activity name='b' max_tries='3' interval='2'><Implement>p</Implement></Activity>
              <Program name='p'><Option hostname='h'/></Program>
            </Body>
          </Loop>
          <Transition from='a' to='l'/>
          <Program name='p'><Option hostname='h'/></Program>
        </Workflow>
        """
        wf = parse_wpdl(text)
        assert wf.nodes["a"].policy is wf.nodes["l"].body.nodes["b"].policy
        # Interning is per document: another parse makes its own objects.
        assert parse_wpdl(text).nodes["a"].policy is not wf.nodes["a"].policy

    def test_malformed_policy_on_the_second_twin_names_that_activity(self):
        text = """
        <Workflow name='w'>
          <Activity name='first' max_tries='{first}'/>
          <Activity name='second' max_tries='{second}'/>
        </Workflow>
        """
        with pytest.raises(ParseError, match="'second'.*max_tries"):
            parse_wpdl(text.format(first="3", second="three"))
        # A failed parse is not memoised: the same bad attributes on both
        # still blame the first activity they are found on.
        with pytest.raises(ParseError, match="'first'.*max_tries"):
            parse_wpdl(text.format(first="three", second="three"))

    def test_parse_serialize_parse_is_unchanged(self):
        spec, _ = layered_dag(4, 5, seed=7, policy=FailurePolicy.retrying(3, 2.0))
        text = serialize_wpdl(spec)
        once = parse_wpdl(text)
        assert once == spec
        assert serialize_wpdl(once) == text
        assert parse_wpdl(serialize_wpdl(once)) == once


# ---------------------------------------------------------------------------
# Flat per-task cost (ROADMAP item 1: what was "the 80x80 cliff")
# ---------------------------------------------------------------------------


def _total_calls(profile: cProfile.Profile) -> int:
    """Every call *profile* saw, Python frames and C functions alike.  Not
    ``pstats.Stats.total_calls``: pstats keys a function by (file, line,
    name), so the ``__init__`` methods that ``dataclasses`` generates, all
    named ``("<string>", 2, "__init__")``, overwrite each other there and
    most of their calls go uncounted."""
    return sum(entry.callcount for entry in profile.getstats())


def _calls_per_task(spec, setup) -> float:
    """Calls (:func:`_total_calls`) per task of one fault-free run of
    *spec*, from XML text to result."""
    text = serialize_wpdl(spec)

    def run():
        parsed = parse_wpdl(text)
        grid = setup(
            SimulatedGrid(
                seed=1, config=GridConfig(crash_detection="prompt", heartbeats=True)
            )
        )
        engine = WorkflowEngine(parsed, grid, reactor=grid.reactor, validate_spec=False)
        return engine.run(timeout=1e9)

    run()  # condition programs, routes and imports are warm
    profile = cProfile.Profile()
    profile.enable()
    result = run()
    profile.disable()
    assert result.succeeded
    return _total_calls(profile) / len(spec.nodes)


class TestFlatPerTaskCost:
    #: Calls per task on CPython 3.11 (216.1 / 211.4 / 210.6 at 10x10 /
    #: 40x40 / 80x80), plus 5%.  Every call counts, generated ``__init__``
    #: methods included (:func:`_total_calls`), so a record built by one
    #: again instead of minted shows here.  A per-node scan of the graph
    #: reintroduced anywhere between the XML and the result fails here
    #: instead of in a benchmark.
    CEILING = 226.9
    #: The same for a chain (pure sequential navigation: 209.8 / 208.5 /
    #: 208.1 at 100 / 400 / 1 600 nodes) and a fork-join (one ready set
    #: 1 600 wide: 207.9 / 207.2 / 207.1), plus 5%.
    SHAPE_CEILINGS = {"chain": 220.3, "fork_join": 218.3}

    def test_calls_per_task_flat_from_10x10_to_80x80(self):
        policy = FailurePolicy.retrying(3)
        costs = {
            size: _calls_per_task(
                *layered_dag(size, size, hosts=4, seed=20030623, policy=policy)
            )
            for size in (10, 40, 80)
        }
        assert max(costs.values()) <= 1.03 * min(costs.values()), costs
        assert max(costs.values()) <= self.CEILING, costs

    @pytest.mark.parametrize("shape", sorted(SHAPE_CEILINGS))
    def test_calls_per_task_flat_to_1600_nodes(self, shape):
        build = {"chain": chain, "fork_join": fork_join}[shape]
        costs = {
            n: _calls_per_task(*build(n, policy=FailurePolicy.retrying(3)))
            for n in (100, 400, 1600)
        }
        assert max(costs.values()) <= 1.03 * min(costs.values()), costs
        assert max(costs.values()) <= self.SHAPE_CEILINGS[shape], costs


# ---------------------------------------------------------------------------
# Per-attempt cost: what one task attempt builds and calls
# ---------------------------------------------------------------------------


def _calls_per_attempt(technique: str) -> float:
    """Calls (:func:`_total_calls`) per submitted attempt over 20
    ``EngineSampler.run`` calls at MTTF 10, after a warm-up run."""
    sampler = EngineSampler(technique, SimulationParams(mttf=10.0))
    sampler.run(1)
    gram = sampler.engine.runtime.service.gram
    calls = attempts = 0
    for seed in range(2, 22):
        profile = cProfile.Profile()
        profile.enable()
        sampler.run(seed)
        profile.disable()
        calls += _total_calls(profile)
        attempts += gram.submitted_count
    return calls / attempts


class TestFlatPerAttemptCost:
    #: Calls per attempt on CPython 3.11 (:func:`_total_calls`), plus 5%.
    #: ``pstats``' ``total_calls``, read here before, missed most generated
    #: ``__init__`` methods: 113.2 / 216.2 / 109.8 / 191.3 / 135.9 by that
    #: count before the attempt's records became tuples.  An object built,
    #: a clock read or a property called again per attempt anywhere
    #: between submission and verdict fails here.
    CEILINGS = {
        "retrying": 124.3,  # 118.4
        "checkpointing": 239.4,  # 228.0
        "replication": 120.5,  # 114.8
        "replication_checkpointing": 210.8,  # 200.8
        "backoff_retry": 148.2,  # 141.1
    }

    def test_ceilings_cover_every_technique(self):
        assert set(self.CEILINGS) == set(EXTENDED_TECHNIQUES)

    @pytest.mark.parametrize("technique", EXTENDED_TECHNIQUES)
    def test_calls_per_attempt_under_the_ceiling(self, technique):
        cost = _calls_per_attempt(technique)
        assert cost <= self.CEILINGS[technique], cost


def _generated_frames(run) -> Counter:
    """Frames of code that ``dataclasses`` and ``NamedTuple`` generate
    (``co_filename == "<string>"``: an ``__init__``, a ``__new__``) and of
    ``__post_init__`` methods, by the class that owns them, while *run*
    runs."""
    owners: Counter = Counter()

    def hook(frame, event, _arg):
        if event != "call":
            return
        code = frame.f_code
        if code.co_filename == "<string>" or code.co_name == "__post_init__":
            local = frame.f_locals
            owner = local.get("self", local.get("_cls"))
            owners[owner if isinstance(owner, type) else type(owner)] += 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return owners


def _minted(owners: Counter) -> dict:
    return {owner: n for owner, n in owners.items() if owner in MINTED_TYPES}


class TestRecordsAreMintedNotInitialised:
    """A record on the attempt path — a message, a verdict, a resolution,
    a retry decision, a checkpoint record, a request — is a tuple its
    producer mints with one ``tuple.__new__``, and so are the parsed
    activities, transitions and conditions, the compiled nodes and the
    result; per-node and per-attempt state has a hand-written constructor.
    None of them runs a generated ``__init__``, ``__new__`` or a
    ``__post_init__``, whatever the technique."""

    @pytest.mark.parametrize("technique", EXTENDED_TECHNIQUES)
    def test_no_record_runs_generated_code(self, technique):
        """Over 20 ``EngineSampler.run`` calls at MTTF 10, after a warm-up
        run."""
        sampler = EngineSampler(technique, SimulationParams(mttf=10.0))
        sampler.run(1)
        owners = _generated_frames(lambda: [sampler.run(s) for s in range(2, 22)])
        assert owners, "the hook saw no generated frame at all"
        assert not _minted(owners), owners

    def test_a_parsed_dag_runs_no_generated_code(self):
        """From WPDL text to result: parse, validate, compile, instance,
        every attempt, the result (a 10x10 layered DAG)."""
        spec, setup = layered_dag(
            10, 10, hosts=4, seed=20030623, policy=FailurePolicy.retrying(3)
        )
        text = serialize_wpdl(spec)
        results = []

        def run():
            parsed = parse_wpdl(text)
            grid = setup(
                SimulatedGrid(
                    seed=1,
                    config=GridConfig(crash_detection="prompt", heartbeats=True),
                )
            )
            engine = WorkflowEngine(parsed, grid, reactor=grid.reactor)
            results.append(engine.run(timeout=1e9))

        owners = _generated_frames(run)
        assert results[0].succeeded and len(results[0].node_statuses) == 102
        assert owners, "the hook saw no generated frame at all"
        assert not _minted(owners), owners
