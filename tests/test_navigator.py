"""Unit tests for navigation semantics: joins, edge firing, skips, outcome."""

from __future__ import annotations

import pytest

from repro.core.exceptions import UserException
from repro.engine.instance import EdgeState, NodeStatus, WorkflowInstance, WorkflowStatus
from repro.engine.navigator import (
    assert_no_deadlock,
    cancel_node,
    evaluate_outcome,
    fire_outgoing_edges,
    irrelevant_running_nodes,
    propagate_skips,
    ready_nodes,
)
from repro.errors import NavigationError
from repro.wpdl import JoinMode, TransitionCondition, WorkflowBuilder


def finish(instance, name, status, exception=None):
    instance.node(name).status = status
    fire_outgoing_edges(instance, name, status, exception)
    propagate_skips(instance)


class TestReadiness:
    def test_entry_nodes_ready_initially(self):
        wf = WorkflowBuilder("w").dummy("a").dummy("b").transition("a", "b").build()
        inst = WorkflowInstance(wf)
        assert ready_nodes(inst) == ["a"]

    def test_and_join_waits_for_all(self):
        wf = (
            WorkflowBuilder("w")
            .dummy("x").dummy("y").dummy("j")
            .fan_in("j", "x", "y")
            .build()
        )
        inst = WorkflowInstance(wf)
        finish(inst, "x", NodeStatus.DONE)
        assert "j" not in ready_nodes(inst)
        finish(inst, "y", NodeStatus.DONE)
        assert "j" in ready_nodes(inst)

    def test_or_join_fires_on_first(self):
        wf = (
            WorkflowBuilder("w")
            .dummy("x").dummy("y").dummy("j", join=JoinMode.OR)
            .fan_in("j", "x", "y")
            .build()
        )
        inst = WorkflowInstance(wf)
        finish(inst, "x", NodeStatus.DONE)
        assert "j" in ready_nodes(inst)


class TestEdgeFiring:
    def build(self, *conds):
        builder = WorkflowBuilder("w").dummy("src")
        for i, cond in enumerate(conds):
            builder.dummy(f"t{i}").transition("src", f"t{i}", cond)
        return WorkflowInstance(builder.build(validate_graph=False))

    def test_done_fires_done_and_always(self):
        inst = self.build(
            TransitionCondition.done(),
            TransitionCondition.always(),
            TransitionCondition.failed(),
            TransitionCondition.on_exception("oom"),
        )
        fired = fire_outgoing_edges(inst, "src", NodeStatus.DONE)
        assert fired == [0, 1]
        assert inst.edges[2] is EdgeState.DEAD_OK  # moot failure edge
        assert inst.edges[3] is EdgeState.DEAD_OK

    def test_done_evaluates_expr_edges(self):
        inst = self.build(
            TransitionCondition.when("x > 1"),
            TransitionCondition.when("x > 100"),
        )
        inst.variables["x"] = 5
        fired = fire_outgoing_edges(inst, "src", NodeStatus.DONE)
        assert fired == [0]
        assert inst.edges[1] is EdgeState.DEAD_OK

    def test_failed_fires_failed_and_always(self):
        inst = self.build(
            TransitionCondition.done(),
            TransitionCondition.failed(),
            TransitionCondition.always(),
        )
        fired = fire_outgoing_edges(inst, "src", NodeStatus.FAILED)
        assert fired == [1, 2]
        assert inst.edges[0] is EdgeState.DEAD_ERROR

    def test_exception_matches_most_specific(self):
        inst = self.build(
            TransitionCondition.on_exception("disk_*"),
            TransitionCondition.on_exception("disk_full"),
            TransitionCondition.done(),
        )
        fired = fire_outgoing_edges(
            inst, "src", NodeStatus.EXCEPTION, UserException("disk_full")
        )
        assert fired == [1]
        assert inst.edges[0] is EdgeState.DEAD_OK  # out-specialised, benign
        assert inst.edges[2] is EdgeState.DEAD_ERROR

    def test_exception_unmatched_falls_back_to_failed_edge(self):
        inst = self.build(
            TransitionCondition.on_exception("oom"),
            TransitionCondition.failed(),
        )
        fired = fire_outgoing_edges(
            inst, "src", NodeStatus.EXCEPTION, UserException("disk_full")
        )
        assert fired == [1]
        assert inst.edges[0] is EdgeState.DEAD_ERROR

    def test_exception_matched_does_not_fire_failed_edge(self):
        inst = self.build(
            TransitionCondition.on_exception("disk_full"),
            TransitionCondition.failed(),
        )
        fired = fire_outgoing_edges(
            inst, "src", NodeStatus.EXCEPTION, UserException("disk_full")
        )
        assert fired == [0]
        assert inst.edges[1] is EdgeState.DEAD_ERROR

    def test_exception_requires_exception_object(self):
        inst = self.build(TransitionCondition.done())
        with pytest.raises(NavigationError):
            fire_outgoing_edges(inst, "src", NodeStatus.EXCEPTION, None)

    def test_nonterminal_status_rejected(self):
        inst = self.build(TransitionCondition.done())
        with pytest.raises(NavigationError):
            fire_outgoing_edges(inst, "src", NodeStatus.RUNNING)


class TestSkipPropagation:
    def test_and_join_skips_on_any_dead_edge(self):
        wf = (
            WorkflowBuilder("w")
            .dummy("x").dummy("y").dummy("j").dummy("after")
            .fan_in("j", "x", "y")
            .transition("j", "after")
            .build()
        )
        inst = WorkflowInstance(wf)
        finish(inst, "x", NodeStatus.DONE)
        finish(inst, "y", NodeStatus.FAILED)
        assert inst.node("j").status is NodeStatus.SKIPPED_ERROR
        assert inst.node("after").status is NodeStatus.SKIPPED_ERROR

    def test_or_join_skips_only_when_all_dead(self):
        wf = (
            WorkflowBuilder("w")
            .dummy("x").dummy("y").dummy("j", join=JoinMode.OR)
            .fan_in("j", "x", "y")
            .build()
        )
        inst = WorkflowInstance(wf)
        finish(inst, "x", NodeStatus.FAILED)
        assert inst.node("j").status is NodeStatus.PENDING  # y can still save it
        finish(inst, "y", NodeStatus.FAILED)
        assert inst.node("j").status is NodeStatus.SKIPPED_ERROR

    def test_benign_skip_of_untaken_handler(self):
        wf = (
            WorkflowBuilder("w")
            .dummy("a").dummy("handler").dummy("j", join=JoinMode.OR)
            .transition("a", "j")
            .on_failure("a", "handler")
            .transition("handler", "j")
            .build()
        )
        inst = WorkflowInstance(wf)
        finish(inst, "a", NodeStatus.DONE)
        assert inst.node("handler").status is NodeStatus.SKIPPED_OK

    def test_skip_cascades_transitively(self):
        wf = (
            WorkflowBuilder("w")
            .dummy("a").dummy("b").dummy("c").dummy("d")
            .sequence("a", "b", "c", "d")
            .build()
        )
        inst = WorkflowInstance(wf)
        finish(inst, "a", NodeStatus.FAILED)
        for name in ("b", "c", "d"):
            assert inst.node(name).status is NodeStatus.SKIPPED_ERROR


class TestOutcome:
    def test_running_until_terminal(self):
        wf = WorkflowBuilder("w").dummy("a").build()
        inst = WorkflowInstance(wf)
        assert evaluate_outcome(inst) is WorkflowStatus.RUNNING

    def test_all_exits_done_is_success(self):
        wf = WorkflowBuilder("w").dummy("a").dummy("b").transition("a", "b").build()
        inst = WorkflowInstance(wf)
        finish(inst, "a", NodeStatus.DONE)
        finish(inst, "b", NodeStatus.DONE)
        assert evaluate_outcome(inst) is WorkflowStatus.DONE

    def test_exit_benign_skip_is_success(self):
        # Cleanup task that only runs on failure: skipped benignly on the
        # success path, and the workflow still succeeds.
        wf = (
            WorkflowBuilder("w")
            .dummy("a").dummy("done_path").dummy("cleanup")
            .transition("a", "done_path")
            .on_failure("a", "cleanup")
            .build()
        )
        inst = WorkflowInstance(wf)
        finish(inst, "a", NodeStatus.DONE)
        finish(inst, "done_path", NodeStatus.DONE)
        assert inst.node("cleanup").status is NodeStatus.SKIPPED_OK
        assert evaluate_outcome(inst) is WorkflowStatus.DONE

    def test_exit_erroneous_skip_is_failure(self):
        wf = (
            WorkflowBuilder("w")
            .dummy("chain1").dummy("exit1")
            .dummy("chain2").dummy("exit2")
            .transition("chain1", "exit1")
            .transition("chain2", "exit2")
            .build()
        )
        inst = WorkflowInstance(wf)
        finish(inst, "chain1", NodeStatus.DONE)
        finish(inst, "exit1", NodeStatus.DONE)
        finish(inst, "chain2", NodeStatus.FAILED)
        assert evaluate_outcome(inst) is WorkflowStatus.FAILED

    def test_failed_exit_is_failure(self):
        wf = WorkflowBuilder("w").dummy("a").build()
        inst = WorkflowInstance(wf)
        finish(inst, "a", NodeStatus.FAILED)
        assert evaluate_outcome(inst) is WorkflowStatus.FAILED

    def test_all_exits_skipped_benign_is_failure(self):
        # Nothing actually ran to completion: not a success.
        wf = WorkflowBuilder("w").dummy("a").build()
        inst = WorkflowInstance(wf)
        inst.node("a").status = NodeStatus.SKIPPED_OK
        assert evaluate_outcome(inst) is WorkflowStatus.FAILED


class TestCancellation:
    def test_zombie_detection_after_or_join_fires(self):
        wf = (
            WorkflowBuilder("w")
            .dummy("fast").dummy("slow").dummy("j", join=JoinMode.OR)
            .fan_in("j", "fast", "slow")
            .build()
        )
        inst = WorkflowInstance(wf)
        inst.node("fast").status = NodeStatus.RUNNING
        inst.node("slow").status = NodeStatus.RUNNING
        finish(inst, "fast", NodeStatus.DONE)
        inst.node("j").status = NodeStatus.DONE
        assert irrelevant_running_nodes(inst) == ["slow"]
        cancel_node(inst, "slow")
        assert inst.node("slow").status is NodeStatus.CANCELLED
        assert inst.edges[inst.compiled.nodes["j"].incoming[1]] is EdgeState.DEAD_OK

    def test_running_node_feeding_pending_target_is_relevant(self):
        wf = WorkflowBuilder("w").dummy("a").dummy("b").transition("a", "b").build()
        inst = WorkflowInstance(wf)
        inst.node("a").status = NodeStatus.RUNNING
        assert irrelevant_running_nodes(inst) == []

    def test_exit_node_always_relevant(self):
        wf = WorkflowBuilder("w").dummy("a").build()
        inst = WorkflowInstance(wf)
        inst.node("a").status = NodeStatus.RUNNING
        assert irrelevant_running_nodes(inst) == []

    def test_cancel_requires_running(self):
        wf = WorkflowBuilder("w").dummy("a").build()
        inst = WorkflowInstance(wf)
        with pytest.raises(NavigationError):
            cancel_node(inst, "a")


class TestDeadlockInvariant:
    def test_consistent_instance_passes(self):
        wf = WorkflowBuilder("w").dummy("a").dummy("b").transition("a", "b").build()
        inst = WorkflowInstance(wf)
        assert_no_deadlock(inst)  # "a" is ready

    def test_detects_impossible_state(self):
        wf = WorkflowBuilder("w").dummy("a").dummy("b").transition("a", "b").build()
        inst = WorkflowInstance(wf)
        # Corrupt: a terminal without firing its edges; b pending forever.
        inst.node("a").status = NodeStatus.DONE
        with pytest.raises(NavigationError, match="deadlock"):
            assert_no_deadlock(inst)
