"""Unit tests for the runtime workflow instance (parse tree with status)."""

from __future__ import annotations

import pytest

from repro.core.exceptions import UserException
from repro.engine.instance import (
    EdgeState,
    NodeInstance,
    NodeStatus,
    WorkflowInstance,
    WorkflowStatus,
)
from repro.errors import NavigationError, SpecificationError
from repro.wpdl import WorkflowBuilder, validation_problems
from repro.wpdl.model import Activity, Transition, Workflow


@pytest.fixture
def instance():
    wf = (
        WorkflowBuilder("w")
        .dummy("a")
        .dummy("b")
        .dummy("c")
        .transition("a", "b")
        .transition("a", "c")
        .build()
    )
    return WorkflowInstance(wf)


class TestBasics:
    def test_nodes_start_pending(self, instance):
        assert all(
            inst.status is NodeStatus.PENDING for inst in instance.nodes.values()
        )
        assert instance.status is WorkflowStatus.RUNNING

    def test_edges_start_pending(self, instance):
        assert instance.edges == [EdgeState.PENDING, EdgeState.PENDING]

    def test_unknown_node_raises(self, instance):
        with pytest.raises(NavigationError):
            instance.node("ghost")

    def test_edge_queries(self, instance):
        nodes = instance.compiled.nodes
        assert nodes["a"].outgoing == (0, 1)
        assert nodes["b"].incoming == (0,) and nodes["c"].incoming == (1,)
        assert instance.edges[1] is EdgeState.PENDING

    def test_set_edge_once(self, instance):
        instance.set_edge(0, EdgeState.FIRED)
        assert instance.edges[0] is EdgeState.FIRED
        with pytest.raises(NavigationError, match="already resolved"):
            instance.set_edge(0, EdgeState.DEAD_OK)

    def test_set_edge_same_value_idempotent(self, instance):
        instance.set_edge(0, EdgeState.FIRED)
        instance.set_edge(0, EdgeState.FIRED)  # no error

    def test_terminal_and_failed_tasks(self, instance):
        assert not instance.terminal()
        instance.node("a").status = NodeStatus.DONE
        instance.node("b").status = NodeStatus.FAILED
        instance.node("c").status = NodeStatus.EXCEPTION
        assert instance.terminal()
        assert instance.failed_tasks() == ("b", "c")

    def test_status_counts(self, instance):
        instance.node("a").status = NodeStatus.DONE
        counts = instance.status_counts()
        assert counts == {"done": 1, "pending": 2}

    def test_running_nodes(self, instance):
        instance.node("b").status = NodeStatus.RUNNING
        assert instance.running_nodes() == ["b"]


class TestDanglingTransition:
    """With validation off, an edge into a node that does not exist used
    to be tolerated by ``__init__`` and then escape as a bare ``KeyError``
    from the counters; compiling the spec is where every endpoint is looked
    at, and it answers in the library's own hierarchy."""

    def spec(self, source="a", target="ghost"):
        return Workflow("w", {"a": Activity("a")}, (Transition(source, target),))

    @pytest.mark.parametrize("edge", [("a", "ghost"), ("ghost", "a")])
    def test_raises_specification_error_naming_the_transition(self, edge):
        with pytest.raises(SpecificationError, match="'ghost'") as caught:
            WorkflowInstance(self.spec(*edge)).set_edge(0, EdgeState.FIRED)
        assert all(repr(end) in str(caught.value) for end in edge)
        assert not isinstance(caught.value, KeyError)

    def test_validator_still_reports_it_in_its_own_words(self):
        # It collects its messages first and asks for the compiled form
        # only past its "broken edge list" early return.
        assert validation_problems(self.spec()) == [
            "w: transition references unknown target 'ghost'"
        ]


class TestSnapshotRestore:
    def test_roundtrip_preserves_everything(self, instance):
        instance.node("a").status = NodeStatus.DONE
        instance.node("a").result = {"total": 10}
        instance.node("a").tries_used = 2
        instance.node("b").status = NodeStatus.EXCEPTION
        instance.node("b").exception = UserException("oom", "boom", data={"gb": 3})
        instance.node("c").recovery_state = {"slots": [{"tries": 1}]}
        instance.edges[0] = EdgeState.FIRED
        instance.edges[1] = EdgeState.DEAD_ERROR
        instance.variables["a"] = {"total": 10}
        instance.started_at = 1.0

        restored = WorkflowInstance.restore(instance.spec, instance.snapshot())
        assert restored.node("a").status is NodeStatus.DONE
        assert restored.node("a").result == {"total": 10}
        assert restored.node("a").tries_used == 2
        assert restored.node("b").exception == UserException(
            "oom", "boom", data={"gb": 3}
        )
        assert restored.node("c").recovery_state == {"slots": [{"tries": 1}]}
        assert restored.edges == [EdgeState.FIRED, EdgeState.DEAD_ERROR]
        assert restored.variables == {"a": {"total": 10}}
        assert restored.started_at == 1.0

    def test_restore_rejects_wrong_workflow(self, instance):
        other = WorkflowBuilder("other").dummy("x").build()
        with pytest.raises(NavigationError, match="snapshot is for workflow"):
            WorkflowInstance.restore(other, instance.snapshot())

    def test_restore_rejects_unknown_node(self, instance):
        snap = instance.snapshot()
        snap["nodes"]["ghost"] = NodeInstance(name="ghost").snapshot()
        with pytest.raises(NavigationError, match="unknown node"):
            WorkflowInstance.restore(instance.spec, snap)

    def test_restore_rejects_edge_count_mismatch(self, instance):
        snap = instance.snapshot()
        snap["edges"].append("pending")
        with pytest.raises(NavigationError, match="edges"):
            WorkflowInstance.restore(instance.spec, snap)

    def test_snapshot_is_json_serialisable(self, instance):
        import json

        json.dumps(instance.snapshot())
