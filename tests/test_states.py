"""Task states: the legal transition relation and the verdict table.

The detector keeps one :class:`TaskState` per attempt and checks every move
against :data:`LEGAL_TRANSITIONS`.  Every ordering of one job's messages is
held to :func:`tests.eager_models.reference_verdict`, the determination
rules walked on a state machine object per attempt.
"""

from __future__ import annotations

from itertools import permutations

import pytest

from repro.core.exceptions import UserException
from repro.core.states import LEGAL_TRANSITIONS, TERMINAL_STATES, TaskState
from repro.detection.detector import FailureDetector
from repro.detection.messages import (
    CheckpointNotice,
    Done,
    ExceptionNotice,
    TaskEnd,
    TaskStart,
)
from repro.errors import DetectionError
from repro.events import EventBus
from repro.grid.simkernel import SimReactor
from tests.eager_models import reference_verdict

ALL_STATES = list(TaskState)
HOST = "n1"
DISK_FULL = UserException("disk_full")

#: ``Done`` as the substrate sends it: clean exit, nonzero exit, host crash.
DONE_VARIANTS = (("done", 0, False), ("done", 3, False), ("done", 137, True))


def drive(events):
    """Feed *events* (``reference_verdict``'s vocabulary) for one job to a
    fresh detector; return the topics it narrated, its verdict in the
    reference's shape, and the detector."""
    bus = EventBus()
    published: list[str] = []
    bus.add_tap(lambda topic, payload: published.append(topic))
    detector = FailureDetector(SimReactor(), bus)
    verdicts = []
    detector.track("j", "t", HOST, on_verdict=verdicts.append)
    for event in events:
        kind = event[0]
        if kind == "start":
            detector.deliver(TaskStart(job_id="j", hostname=HOST))
        elif kind == "checkpoint":
            detector.deliver(CheckpointNotice(job_id="j", hostname=HOST, flag=event[1]))
        elif kind == "end":
            detector.deliver(TaskEnd(job_id="j", hostname=HOST, result=event[1]))
        elif kind == "exception":
            detector.deliver(ExceptionNotice(job_id="j", hostname=HOST, exception=event[1]))
        elif kind == "done":
            detector.deliver(
                Done(job_id="j", hostname=HOST, exit_code=event[1], host_crashed=event[2])
            )
        else:
            # What the heartbeat monitor calls on a suspicion.
            detector._on_host_suspected(HOST)
    assert len(verdicts) <= 1
    verdict = None
    if verdicts:
        v = verdicts[0]
        verdict = (v.state, v.reason, v.checkpoint_flag, v.result, v.exception)
    return published, verdict, detector


def orderings(done):
    """Every ordering of the five messages, each bare and with the host
    suspected at every point in between."""
    messages = [("start",), ("checkpoint", "f1"), ("end", 42), ("exception", DISK_FULL), done]
    for order in permutations(messages):
        yield list(order)
        for at in range(len(order) + 1):
            yield [*order[:at], ("suspect",), *order[at:]]


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
    """One attempt's state as the detector holds it."""

    def test_initial_state_inactive(self):
        _, verdict, detector = drive([])
        assert verdict is None
        assert detector.state_of("j") is TaskState.INACTIVE

    def test_happy_path(self):
        topics, verdict, detector = drive([("start",), ("end", 1), DONE_VARIANTS[0]])
        assert topics == ["task.active", "task.done"]
        assert verdict[:2] == (TaskState.DONE, "done-with-taskend")
        assert detector.state_of("j") is None

    def test_crash_path(self):
        _, verdict, _ = drive([("start",), ("done", 139, False)])
        assert verdict[:2] == (TaskState.FAILED, "done-without-taskend")

    def test_exception_path(self):
        _, verdict, _ = drive([("start",), ("exception", DISK_FULL)])
        assert verdict[:2] == (TaskState.EXCEPTION, "exception-notice")
        assert verdict[4] is DISK_FULL

    def test_illegal_transition_raises(self):
        _, _, detector = drive([])
        attempt = detector._attempts["j"]
        with pytest.raises(DetectionError, match="illegal transition inactive -> done"):
            detector._finish(attempt, TaskState.DONE, reason="")
        # The refused move left the attempt as it was, and tracked.
        assert detector.state_of("j") is TaskState.INACTIVE

    def test_no_transition_out_of_terminal(self):
        _, _, detector = drive([])
        attempt = detector._attempts["j"]
        detector._finish(attempt, TaskState.FAILED, reason="")
        for target in TERMINAL_STATES:
            with pytest.raises(DetectionError, match="illegal transition failed"):
                detector._finish(attempt, target, reason="")

    def test_state_enum_string_form(self):
        assert str(TaskState.ACTIVE) == "active"
        assert TaskState("failed") is TaskState.FAILED


class TestVerdictTable:
    @pytest.mark.parametrize("done", DONE_VARIANTS, ids=["exit0", "exit3", "crashed"])
    def test_every_ordering_matches_the_reference(self, done):
        cases = list(orderings(done))
        assert len(cases) == 120 * 7
        reasons = set()
        for events in cases:
            topics, verdict, _ = drive(events)
            assert (topics, verdict) == reference_verdict(events), events
            reasons.add(verdict[1])
        expected = {"exception-notice", "host-suspected", "host-crashed"}
        if done[2]:
            assert reasons == expected
        else:
            exit_reason = "done-with-taskend" if done[1] == 0 else "nonzero-exit(3)"
            assert reasons == expected - {"host-crashed"} | {
                "done-without-taskend",
                exit_reason,
            }

    @pytest.mark.parametrize(
        "start, target",
        [(s, t) for s in ALL_STATES for t in TERMINAL_STATES],
    )
    def test_a_terminal_move_is_legal_exactly_when_listed(self, start, target):
        _, _, detector = drive([])
        attempt = detector._attempts["j"]
        attempt.state = start
        if (start, target) in LEGAL_TRANSITIONS:
            detector._finish(attempt, target, reason="")
            assert attempt.state is target
        else:
            with pytest.raises(DetectionError):
                detector._finish(attempt, target, reason="")
            assert attempt.state is start
