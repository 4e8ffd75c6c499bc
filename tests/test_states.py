"""Unit tests for the task state machine."""

from __future__ import annotations

import pytest

from repro.core.states import (
    LEGAL_TRANSITIONS,
    TERMINAL_STATES,
    TaskState,
    TaskStateMachine,
)
from repro.errors import DetectionError

ALL_STATES = list(TaskState)


class TestTransitionRelation:
    def test_terminal_states_have_no_outgoing_transitions(self):
        for src, _dst in LEGAL_TRANSITIONS:
            assert src not in TERMINAL_STATES

    def test_done_failed_exception_are_terminal(self):
        assert TERMINAL_STATES == {
            TaskState.DONE,
            TaskState.FAILED,
            TaskState.EXCEPTION,
        }

    def test_inactive_can_fail_directly(self):
        # A rejected submission fails before ever running.
        assert (TaskState.INACTIVE, TaskState.FAILED) in LEGAL_TRANSITIONS

    def test_inactive_cannot_complete_directly(self):
        assert (TaskState.INACTIVE, TaskState.DONE) not in LEGAL_TRANSITIONS
        assert (TaskState.INACTIVE, TaskState.EXCEPTION) not in LEGAL_TRANSITIONS


class TestMachine:
    def test_initial_state_inactive(self):
        m = TaskStateMachine("t")
        assert m.state is TaskState.INACTIVE
        assert not m.terminal

    def test_happy_path(self):
        m = TaskStateMachine("t")
        m.transition(TaskState.ACTIVE)
        m.transition(TaskState.DONE)
        assert m.terminal

    def test_crash_path(self):
        m = TaskStateMachine("t")
        m.transition(TaskState.ACTIVE)
        m.transition(TaskState.FAILED)
        assert m.state is TaskState.FAILED

    def test_exception_path(self):
        m = TaskStateMachine("t")
        m.transition(TaskState.ACTIVE)
        m.transition(TaskState.EXCEPTION)
        assert m.state is TaskState.EXCEPTION

    def test_illegal_transition_raises(self):
        m = TaskStateMachine("t")
        with pytest.raises(DetectionError, match="illegal transition"):
            m.transition(TaskState.DONE)

    def test_no_transition_out_of_terminal(self):
        m = TaskStateMachine("t")
        m.transition(TaskState.ACTIVE)
        m.transition(TaskState.DONE)
        for target in ALL_STATES:
            assert not m.can_transition(target)

    def test_state_enum_string_form(self):
        assert str(TaskState.ACTIVE) == "active"
        assert TaskState("failed") is TaskState.FAILED
