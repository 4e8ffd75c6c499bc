"""Property-based tests (hypothesis) on core data structures and invariants.

Covers the properties DESIGN.md commits to: WPDL parse∘serialize identity,
navigator invariants over random DAGs, the detector's verdicts, sampler
monotonicity/dominance, and condition-evaluator safety.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.core.exceptions import ExceptionBinding, ExceptionTable, UserException
from repro.core.policy import FailurePolicy
from repro.engine.instance import NodeStatus, WorkflowInstance, WorkflowStatus
from repro.engine.navigator import (
    evaluate_outcome,
    fire_outgoing_edges,
    propagate_skips,
    ready_nodes,
)
from repro.errors import SpecificationError
from repro.sim.analytical import checkpoint_expected_time, retry_expected_time
from repro.sim.params import SimulationParams
from repro.sim.samplers import sample_technique
from repro.wpdl import parse_wpdl, serialize_wpdl
from repro.wpdl.conditions import compile_condition
from repro.wpdl.model import Activity, JoinMode, Option, Program, Transition, Workflow
from tests.eager_models import reference_verdict
from tests.test_states import DONE_VARIANTS, drive

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8
)
#: Attribute text: markup characters, and the whitespace a parser reads
#: back as spaces unless it is written as character references.
values = st.text(alphabet="ab_ &<>\"'\n\r\t", max_size=8)


@st.composite
def policies(draw):
    return FailurePolicy(
        max_tries=draw(st.one_of(st.none(), st.integers(1, 50))),
        interval=draw(st.floats(0, 100, allow_nan=False)),
        restart_from_checkpoint=draw(st.booleans()),
        retry_on_exception=draw(st.booleans()),
        attempt_timeout=draw(
            st.one_of(st.none(), st.floats(0.1, 1e4, allow_nan=False))
        ),
    )


@st.composite
def rethrows(draw):
    from repro.wpdl.model import Rethrow

    pattern = draw(names) + draw(st.sampled_from(["", "*"]))
    return Rethrow(pattern=pattern, as_name=draw(names))


@st.composite
def workflows(draw):
    """Random DAGs: nodes a0..aN, edges only forward (i < j) — acyclic by
    construction; programs attached to every activity; random join modes."""
    n = draw(st.integers(2, 7))
    node_names = [f"a{i}" for i in range(n)]
    nodes = {}
    for name in node_names:
        dummy = draw(st.booleans())
        nodes[name] = Activity(
            name=name,
            implement=None if dummy else "prog",
            policy=draw(policies()) if not dummy else FailurePolicy(),
            join=draw(st.sampled_from([JoinMode.AND, JoinMode.OR])),
            rethrows=tuple(draw(st.lists(rethrows(), max_size=2)))
            if not dummy
            else (),
        )
    edges = []
    for j in range(1, n):
        # Every non-entry node gets at least one incoming edge, keeping the
        # whole graph reachable from a0.
        sources = draw(
            st.lists(
                st.integers(0, j - 1), min_size=1, max_size=min(3, j), unique=True
            )
        )
        for i in sources:
            edges.append(Transition(f"a{i}", f"a{j}"))
    return Workflow(
        name="random",
        nodes=nodes,
        transitions=tuple(edges),
        programs={"prog": Program("prog", (Option(hostname="h1"),))},
        variables=draw(st.dictionaries(names, values, max_size=3)),
    )


# ---------------------------------------------------------------------------
# WPDL round-trip
# ---------------------------------------------------------------------------


class TestWpdlRoundTrip:
    @given(workflows())
    @settings(max_examples=60, deadline=None)
    def test_serialize_parse_identity(self, wf):
        assert parse_wpdl(serialize_wpdl(wf), validate_graph=False) == wf

    @given(
        st.one_of(st.none(), st.just(""), names),
        st.lists(st.one_of(st.just(""), names), max_size=3),
    )
    @example("", [])
    @example(None, [""])
    @settings(max_examples=60, deadline=None)
    def test_an_activity_reads_back_or_is_refused(self, implement, outputs):
        """What WPDL cannot write back is refused where it is made: an
        empty implement would read back as a dummy, an empty output name
        would not parse."""
        try:
            activity = Activity(name="a", implement=implement, outputs=tuple(outputs))
        except SpecificationError:
            assert implement == "" or "" in outputs
            return
        wf = Workflow(name="w", nodes={"a": activity})
        assert parse_wpdl(serialize_wpdl(wf), validate_graph=False) == wf

    @given(workflows())
    @settings(max_examples=30, deadline=None)
    def test_serialization_is_deterministic(self, wf):
        assert serialize_wpdl(wf) == serialize_wpdl(wf)

    @given(workflows())
    @settings(max_examples=60, deadline=None)
    def test_compact_text_is_what_element_tree_writes(self, wf):
        """Read back into an element tree, the compact text is written out
        by ``ET.tostring`` as the same bytes: its escapes, its attribute
        order and its ``" />"`` are the tree writer's."""
        text = serialize_wpdl(wf, pretty=False)
        assert ET.tostring(ET.fromstring(text), encoding="unicode") == text


# ---------------------------------------------------------------------------
# Navigator invariants on random DAGs
# ---------------------------------------------------------------------------


def drive_to_completion(instance, status_for):
    """Resolve every launched node with status_for(name); returns visit order."""
    order = []
    guard = 0
    while True:
        guard += 1
        assert guard < 1000, "navigation did not converge"
        propagate_skips(instance)
        ready = ready_nodes(instance)
        if not ready:
            break
        for name in ready:
            instance.node(name).status = NodeStatus.RUNNING
        for name in ready:
            status = status_for(name)
            instance.node(name).status = status
            fire_outgoing_edges(instance, name, status)
            order.append(name)
    return order


class TestNavigatorProperties:
    @given(workflows())
    @settings(max_examples=80, deadline=None)
    def test_all_success_visits_every_node_respecting_joins(self, wf):
        instance = WorkflowInstance(wf)
        order = drive_to_completion(instance, lambda n: NodeStatus.DONE)
        assert set(order) == set(wf.nodes)
        position = {name: i for i, name in enumerate(order)}
        for name, node in wf.nodes.items():
            preds = [t.source for t in wf.transitions if t.target == name]
            if not preds:
                continue
            if node.join is JoinMode.AND:
                # AND joins wait for every predecessor.
                assert all(position[p] < position[name] for p in preds)
            else:
                # OR joins activate on the FIRST predecessor — later ones
                # may legitimately finish after the join itself.
                assert any(position[p] < position[name] for p in preds)
        assert evaluate_outcome(instance) is WorkflowStatus.DONE

    @given(workflows(), st.data())
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_failures_always_terminate_with_verdict(self, wf, data):
        fail = data.draw(
            st.sets(st.sampled_from(sorted(wf.nodes)), max_size=len(wf.nodes))
        )
        instance = WorkflowInstance(wf)
        drive_to_completion(
            instance,
            lambda n: NodeStatus.FAILED if n in fail else NodeStatus.DONE,
        )
        propagate_skips(instance)
        # Termination: every node resolved, outcome decidable, no deadlock.
        assert instance.terminal()
        assert evaluate_outcome(instance) in (
            WorkflowStatus.DONE,
            WorkflowStatus.FAILED,
        )

    @given(workflows())
    @settings(max_examples=40, deadline=None)
    def test_entry_failure_fails_workflow(self, wf):
        entry = wf.entry_nodes()[0]
        instance = WorkflowInstance(wf)
        drive_to_completion(
            instance,
            lambda n: NodeStatus.FAILED if n == entry else NodeStatus.DONE,
        )
        propagate_skips(instance)
        # a0 is the ancestor of everything (graph is built rooted at a0):
        # its unhandled failure can never produce success.
        assert evaluate_outcome(instance) is WorkflowStatus.FAILED


# ---------------------------------------------------------------------------
# State machine
# ---------------------------------------------------------------------------


class TestStateMachineProperties:
    @given(
        st.lists(
            st.sampled_from(
                [
                    ("start",),
                    ("checkpoint", "f1"),
                    ("checkpoint", "f2"),
                    ("end", 1),
                    ("exception", UserException("disk_full")),
                    *DONE_VARIANTS,
                    ("suspect",),
                ]
            ),
            max_size=8,
        )
    )
    def test_machine_accepts_exactly_the_legal_relation(self, events):
        # Any sequence, repeats and all: the detector's narration and
        # verdict are the reference's, which walks LEGAL_TRANSITIONS.
        topics, verdict, _ = drive(events)
        assert (topics, verdict) == reference_verdict(events)


# ---------------------------------------------------------------------------
# Exception table
# ---------------------------------------------------------------------------


class TestExceptionTableProperties:
    @given(
        st.lists(names, min_size=1, max_size=6, unique=True),
        names,
    )
    def test_exact_binding_always_wins(self, patterns, probe):
        bindings = [ExceptionBinding(p + "*", handler="pat") for p in patterns]
        bindings.append(ExceptionBinding(probe, handler="exact"))
        table = ExceptionTable(bindings)
        assert table.lookup(probe).handler == "exact"

    @given(st.lists(names, min_size=1, max_size=6))
    def test_lookup_result_actually_matches(self, patterns):
        table = ExceptionTable(
            [ExceptionBinding(p, handler="h") for p in set(patterns)]
        )
        for p in patterns:
            found = table.lookup(p)
            assert found is not None and found.matches(p)


# ---------------------------------------------------------------------------
# Samplers: stochastic-dominance style properties
# ---------------------------------------------------------------------------


class TestSamplerProperties:
    @given(st.floats(5.0, 200.0), st.floats(5.0, 200.0))
    @settings(max_examples=20, deadline=None)
    def test_retry_mean_monotone_in_mttf(self, m1, m2):
        lo, hi = sorted((m1, m2))
        if hi - lo < 1.0:
            return
        p_lo = SimulationParams(mttf=lo, runs=8000)
        p_hi = SimulationParams(mttf=hi, runs=8000)
        mean_lo = sample_technique("retrying", p_lo).mean()
        mean_hi = sample_technique("retrying", p_hi).mean()
        ana_lo = retry_expected_time(30.0, 1 / lo)
        ana_hi = retry_expected_time(30.0, 1 / hi)
        assert ana_hi <= ana_lo
        # Sampled means track the analytical ordering within noise.
        assert mean_hi <= mean_lo * 1.25

    @given(st.floats(8.0, 100.0))
    @settings(max_examples=20, deadline=None)
    def test_samples_never_below_failure_free_time(self, mttf):
        # mttf >= 8 keeps λF <= 3.75: the retry process needs e^{λF}
        # attempts on average, so smaller MTTFs are astronomically slow by
        # *physics*, not by implementation (λF = 15 means ~3M attempts).
        params = SimulationParams(mttf=mttf, runs=2000)
        assert sample_technique("retrying", params).min() >= 30.0 - 1e-9
        assert sample_technique("checkpointing", params).min() >= 40.0 - 1e-9

    @given(st.floats(2.0, 100.0), st.integers(1, 60))
    @settings(max_examples=20, deadline=None)
    def test_checkpoint_sampler_tracks_analytical_for_any_k(self, mttf, k):
        # Keep the per-segment exposure λa modest: e^{λa} attempts per
        # segment make extreme corners (tiny MTTF with K=1) both absurdly
        # slow to sample and heavy-tailed beyond any fixed MC tolerance.
        assume(30.0 / (mttf * k) <= 2.0)
        params = SimulationParams(mttf=mttf, checkpoints=k, runs=30_000)
        sim = sample_technique("checkpointing", params).mean()
        ana = checkpoint_expected_time(
            30.0, 1 / mttf, checkpoint_overhead=0.5, recovery_time=0.5,
            checkpoints=k,
        )
        assert abs(sim - ana) / ana < 0.08


# ---------------------------------------------------------------------------
# Condition evaluator safety
# ---------------------------------------------------------------------------


class TestConditionProperties:
    @given(st.text(max_size=40))
    @settings(max_examples=200)
    def test_arbitrary_text_never_escapes_the_sandbox(self, text):
        """compile_condition either raises SpecificationError or returns a
        program; it never raises anything else and never executes code."""
        try:
            prog = compile_condition(text)
        except SpecificationError:
            return
        # If it compiled, evaluation with empty variables must be total
        # (bool or SpecificationError; nothing else).
        try:
            result = prog.evaluate({})
        except SpecificationError:
            return
        assert isinstance(result, bool)

    @given(
        st.integers(-1000, 1000),
        st.integers(-1000, 1000),
    )
    def test_comparison_semantics_match_python(self, a, b):
        variables = {"a": a, "b": b}
        assert compile_condition("a < b").evaluate(variables) is (a < b)
        assert compile_condition("a >= b").evaluate(variables) is (a >= b)
        assert compile_condition("a == b").evaluate(variables) is (a == b)
