"""Unit tests for whole-graph workflow validation."""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.policy import FailurePolicy
from repro.errors import ValidationError
from repro.wpdl import WorkflowBuilder, validate, validation_problems
from repro.wpdl.model import Activity, Loop, Transition, Workflow


def problems_of(workflow):
    return validation_problems(workflow)


class TestStructure:
    def test_valid_workflow_passes(self):
        wf = (
            WorkflowBuilder("ok")
            .program("p", hosts=["h"])
            .activity("a", implement="p")
            .activity("b", implement="p")
            .transition("a", "b")
            .build(validate_graph=False)
        )
        assert problems_of(wf) == []
        assert validate(wf) is wf

    def test_empty_workflow_rejected(self):
        wf = Workflow(name="empty")
        assert any("no nodes" in p for p in problems_of(wf))

    def test_unknown_transition_endpoints(self):
        wf = Workflow(
            name="w",
            nodes={"a": Activity(name="a")},
            transitions=(Transition("a", "ghost"), Transition("phantom", "a")),
        )
        msgs = problems_of(wf)
        assert any("unknown target 'ghost'" in p for p in msgs)
        assert any("unknown source 'phantom'" in p for p in msgs)

    def test_unknown_program_reference(self):
        wf = Workflow(
            name="w", nodes={"a": Activity(name="a", implement="nope")}
        )
        assert any("unknown program" in p for p in problems_of(wf))

    def test_duplicate_transition_flagged(self):
        wf = Workflow(
            name="w",
            nodes={"a": Activity(name="a"), "b": Activity(name="b")},
            transitions=(Transition("a", "b"), Transition("a", "b")),
        )
        assert any("duplicate transition" in p for p in problems_of(wf))

    def test_cycle_detected_with_path(self):
        wf = Workflow(
            name="w",
            nodes={n: Activity(name=n) for n in "abc"},
            transitions=(
                Transition("a", "b"),
                Transition("b", "c"),
                Transition("c", "a"),
            ),
        )
        msgs = problems_of(wf)
        assert any("cycle" in p for p in msgs)

    def test_island_beside_an_entry_is_reported_as_its_cycle(self):
        wf = Workflow(
            name="w",
            nodes={n: Activity(name=n) for n in ("a", "b", "island1", "island2")},
            transitions=(
                Transition("a", "b"),
                Transition("island1", "island2"),
                Transition("island2", "island1"),
            ),
        )
        # A node no entry reaches sits on, or below, a cycle.
        [problem] = problems_of(wf)
        assert "cycle: island1 -> island2 -> island1" in problem

    def test_graph_without_entry_is_reported_as_its_cycle(self):
        wf = Workflow(
            name="w",
            nodes={n: Activity(name=n) for n in ("a", "b")},
            transitions=(Transition("a", "b"), Transition("b", "a")),
        )
        [problem] = problems_of(wf)
        assert "cycle: a -> b -> a" in problem


@st.composite
def acyclic_graphs(draw):
    """A DAG over 1-12 nodes whose names are shuffled against the edge
    direction (edges run from lower to higher rank, names are random)."""
    size = draw(st.integers(1, 12))
    names = draw(st.permutations([f"n{i}" for i in range(size)]))
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Workflow(
        name="dag",
        nodes={name: Activity(name=name) for name in sorted(names)},
        transitions=tuple(Transition(names[i], names[j]) for i, j in edges),
    )


class TestAcyclicMeansReachable:
    """Why the validator has no reachability check: once no cycle is
    found, a breadth-first walk from the entry nodes reaches every node."""

    @seed(20030623)
    @given(acyclic_graphs())
    @settings(max_examples=200, deadline=None)
    def test_entries_reach_every_node_of_a_dag(self, wf):
        assert problems_of(wf) == []
        compiled = wf.compiled
        assert compiled.entries
        seen = set(compiled.entries)
        queue = deque(compiled.entries)
        while queue:
            for child in compiled.nodes[queue.popleft()].targets:
                if child not in seen:
                    seen.add(child)
                    queue.append(child)
        assert seen == set(wf.nodes)


class TestPolicies:
    def test_replica_needs_multiple_options(self):
        wf = (
            WorkflowBuilder("w")
            .program("p", hosts=["only-one"])
            .activity("t", implement="p", policy=FailurePolicy.replica())
            .build(validate_graph=False)
        )
        assert any("only" in p and "option" in p for p in problems_of(wf))

    def test_replica_on_dummy_rejected(self):
        wf = Workflow(
            name="w",
            nodes={"t": Activity(name="t", policy=FailurePolicy.replica())},
        )
        msgs = problems_of(wf)
        assert any("replica" in p for p in msgs)

    def test_replica_with_enough_options_ok(self):
        wf = (
            WorkflowBuilder("w")
            .program("p", hosts=["h1", "h2", "h3"])
            .activity("t", implement="p", policy=FailurePolicy.replica())
            .build(validate_graph=False)
        )
        assert problems_of(wf) == []

    def test_backoff_without_interval_reported(self):
        wf = (
            WorkflowBuilder("w")
            .program("p", hosts=["h"])
            .activity(
                "t",
                implement="p",
                policy=FailurePolicy(max_tries=3, backoff_factor=2.0),
            )
            .build(validate_graph=False)
        )
        assert any("backoff" in p for p in problems_of(wf))

    def test_max_interval_below_interval_reported(self):
        wf = (
            WorkflowBuilder("w")
            .program("p", hosts=["h"])
            .activity(
                "t",
                implement="p",
                policy=FailurePolicy(max_tries=3, interval=5.0, max_interval=1.0),
            )
            .build(validate_graph=False)
        )
        assert any("max_interval" in p for p in problems_of(wf))

    def test_consistent_backoff_policy_ok(self):
        wf = (
            WorkflowBuilder("w")
            .program("p", hosts=["h"])
            .activity(
                "t",
                implement="p",
                policy=FailurePolicy.backoff_retrying(
                    None, interval=1.0, backoff_factor=2.0, max_interval=8.0
                ),
            )
            .build(validate_graph=False)
        )
        assert problems_of(wf) == []


class TestConditionsAndRefs:
    def test_bad_expr_condition_flagged(self):
        wf = (
            WorkflowBuilder("w")
            .dummy("a")
            .dummy("b")
            .when("a", "import os", "b")
            .build(validate_graph=False)
        )
        assert any("condition" in p for p in problems_of(wf))

    def test_bad_loop_condition_flagged(self):
        body = WorkflowBuilder("body").dummy("t").build()
        wf = (
            WorkflowBuilder("w")
            .loop("l", body, "open('x')")
            .build(validate_graph=False)
        )
        assert any("loop 'l'" in p for p in problems_of(wf))

    def test_loop_body_validated_recursively(self):
        bad_body = Workflow(
            name="body",
            nodes={"t": Activity(name="t", implement="missing")},
        )
        wf = Workflow(
            name="w",
            nodes={"l": Loop(name="l", body=bad_body, condition="x")},
        )
        assert any("unknown program" in p for p in problems_of(wf))

    def test_unknown_value_ref_flagged(self):
        wf = (
            WorkflowBuilder("w")
            .program("p", hosts=["h"])
            .activity("a", implement="p", outputs=["total"])
            .activity(
                "b",
                implement="p",
                inputs=[__import__("repro.wpdl.model", fromlist=["Parameter"]).Parameter(
                    name="x", ref="bogus"
                )],
            )
            .transition("a", "b")
            .build(validate_graph=False)
        )
        assert any("unknown output 'bogus'" in p for p in problems_of(wf))

    def test_ref_to_declared_output_ok(self):
        from repro.wpdl.model import Parameter

        wf = (
            WorkflowBuilder("w")
            .program("p", hosts=["h"])
            .activity("a", implement="p", outputs=["total"])
            .activity("b", implement="p", inputs=[Parameter(name="x", ref="total")])
            .transition("a", "b")
            .build(validate_graph=False)
        )
        assert problems_of(wf) == []

    def test_ref_to_activity_name_ok(self):
        from repro.wpdl.model import Parameter

        wf = (
            WorkflowBuilder("w")
            .program("p", hosts=["h"])
            .activity("a", implement="p")
            .activity("b", implement="p", inputs=[Parameter(name="x", ref="a")])
            .transition("a", "b")
            .build(validate_graph=False)
        )
        assert problems_of(wf) == []


class TestErrorAggregation:
    def test_all_problems_reported_together(self):
        wf = Workflow(
            name="w",
            nodes={
                "a": Activity(name="a", implement="missing"),
                "b": Activity(name="b", policy=FailurePolicy.replica()),
            },
            transitions=(Transition("a", "ghost"),),
        )
        with pytest.raises(ValidationError) as exc_info:
            validate(wf)
        message = str(exc_info.value)
        assert "unknown program" in message
        assert "ghost" in message
        assert "replica" in message
