"""Unit tests for the per-task failure detector (paper's state rules)."""

from __future__ import annotations

import pytest

from repro.core.exceptions import UserException
from repro.core.states import TaskState
from repro.detection.detector import (
    TASK_ACTIVE,
    TASK_DONE,
    TASK_EXCEPTION,
    TASK_FAILED,
    FailureDetector,
)
from repro.detection.messages import (
    CheckpointNotice,
    Done,
    ExceptionNotice,
    Heartbeat,
    TaskEnd,
    TaskStart,
)
from repro.errors import DetectionError
from repro.events import EventBus


@pytest.fixture
def detector(reactor, bus):
    return FailureDetector(reactor, bus)


def outcomes(bus, topic):
    return [payload for at, payload in bus.published if at == topic]


def track(detector, job="j1", activity="act", host="n1"):
    detector.track(job, activity, host)
    return job


class TestDeterminationRules:
    def test_done_with_taskend_is_success(self, detector, bus):
        job = track(detector)
        detector.deliver(TaskStart(job_id=job, hostname="n1"))
        detector.deliver(TaskEnd(job_id=job, hostname="n1", result=7))
        detector.deliver(Done(job_id=job, hostname="n1"))
        done = outcomes(bus, TASK_DONE)
        assert len(done) == 1
        assert done[0].state is TaskState.DONE
        assert done[0].result == 7
        assert done[0].reason == "done-with-taskend"

    def test_done_without_taskend_is_task_crash(self, detector, bus):
        job = track(detector)
        detector.deliver(TaskStart(job_id=job, hostname="n1"))
        detector.deliver(Done(job_id=job, hostname="n1", exit_code=0))
        failed = outcomes(bus, TASK_FAILED)
        assert len(failed) == 1
        assert failed[0].reason == "done-without-taskend"

    def test_nonzero_exit_with_taskend_still_fails(self, detector, bus):
        job = track(detector)
        detector.deliver(TaskStart(job_id=job, hostname="n1"))
        detector.deliver(TaskEnd(job_id=job, hostname="n1"))
        detector.deliver(Done(job_id=job, hostname="n1", exit_code=3))
        assert outcomes(bus, TASK_DONE) == []
        assert len(outcomes(bus, TASK_FAILED)) == 1

    def test_host_crashed_done_fails(self, detector, bus):
        job = track(detector)
        detector.deliver(TaskStart(job_id=job, hostname="n1"))
        detector.deliver(TaskEnd(job_id=job, hostname="n1"))
        detector.deliver(Done(job_id=job, hostname="n1", host_crashed=True))
        failed = outcomes(bus, TASK_FAILED)
        assert failed and failed[0].reason == "host-crashed"

    def test_exception_notice_surfaces_user_exception(self, detector, bus):
        job = track(detector)
        detector.deliver(TaskStart(job_id=job, hostname="n1"))
        detector.deliver(
            ExceptionNotice(
                job_id=job, hostname="n1", exception=UserException("disk_full")
            )
        )
        exc = outcomes(bus, TASK_EXCEPTION)
        assert len(exc) == 1
        assert exc[0].exception.name == "disk_full"

    def test_taskstart_publishes_active(self, detector, bus):
        job = track(detector)
        detector.deliver(TaskStart(job_id=job, hostname="n1"))
        active = outcomes(bus, TASK_ACTIVE)
        assert len(active) == 1 and active[0].state is TaskState.ACTIVE

    def test_done_before_taskstart_promotes_to_active_first(self, detector, bus):
        # A submission rejected host-side never sends TaskStart.
        job = track(detector)
        detector.deliver(Done(job_id=job, hostname="n1", exit_code=127))
        assert len(outcomes(bus, TASK_FAILED)) == 1

    def test_checkpoint_flag_recorded_and_reported(self, detector, bus):
        job = track(detector)
        detector.deliver(TaskStart(job_id=job, hostname="n1"))
        detector.deliver(
            CheckpointNotice(job_id=job, hostname="n1", flag="k3", progress=0.6)
        )
        assert detector.checkpoint_flag(job) == "k3"
        detector.deliver(Done(job_id=job, hostname="n1", exit_code=1))
        failed = outcomes(bus, TASK_FAILED)
        assert failed[0].checkpoint_flag == "k3"

    def test_messages_after_terminal_ignored(self, detector, bus):
        job = track(detector)
        detector.deliver(TaskStart(job_id=job, hostname="n1"))
        detector.deliver(Done(job_id=job, hostname="n1", exit_code=1))
        detector.deliver(TaskEnd(job_id=job, hostname="n1"))  # late
        detector.deliver(Done(job_id=job, hostname="n1"))  # duplicate
        assert len(outcomes(bus, TASK_FAILED)) == 1
        assert outcomes(bus, TASK_DONE) == []

    def test_message_subclasses_are_handled_as_their_base_type(self, detector, bus):
        class VerboseDone(Done):
            """A subclass of a tuple message: it adds behaviour, not fields."""

            def describe(self) -> str:
                return f"{self.job_id} exited {self.exit_code}"

        class SignedHeartbeat(Heartbeat):
            pass

        class Telegram:
            """Not a message type at all, though it names a tracked job."""

            def __init__(self, job_id: str) -> None:
                self.job_id = job_id

        job = track(detector)
        detector.deliver(TaskStart(job_id=job, hostname="n1"))
        detector.deliver(SignedHeartbeat(hostname="n1", seq=0))
        assert detector.heartbeats_observed == 1
        detector.deliver(VerboseDone(job_id=job, hostname="n1", exit_code=3))
        assert [o.reason for o in outcomes(bus, TASK_FAILED)] == [
            "done-without-taskend"
        ]
        with pytest.raises(DetectionError):
            detector.deliver(Telegram(job_id=job))  # type: ignore[arg-type]

    def test_unknown_job_messages_ignored(self, detector, bus):
        detector.deliver(Done(job_id="ghost", hostname="n1"))
        assert outcomes(bus, TASK_FAILED) == []


class TestRegistration:
    def test_double_track_rejected(self, detector):
        track(detector)
        with pytest.raises(DetectionError):
            detector.track("j1", "act", "n1")

    def test_forget_stops_tracking(self, detector, bus):
        job = track(detector)
        detector.forget(job)
        detector.deliver(Done(job_id=job, hostname="n1"))
        assert outcomes(bus, TASK_FAILED) == []
        assert detector.state_of(job) is None

    def test_submission_rejected_fails_without_tracking_first(self, detector, bus):
        detector.submission_rejected("jx", "act", "n1", reason="host-down")
        failed = outcomes(bus, TASK_FAILED)
        assert failed and failed[0].reason == "host-down"

    def test_attempt_log_records_messages(self, detector, bus):
        # The detector lets go of an attempt at its verdict; the record of
        # what it was delivered is whatever sink the caller puts in front.
        delivered = []

        def deliver(msg):
            delivered.append(msg)
            detector.deliver(msg)

        job = track(detector)
        sent = [
            TaskStart(job_id=job, hostname="n1"),
            Done(job_id=job, hostname="n1"),
            Done(job_id=job, hostname="n1"),  # late duplicate: still logged
        ]
        for msg in sent:
            deliver(msg)
        assert delivered == sent
        assert len(outcomes(bus, TASK_FAILED)) == 1
        assert detector.live_attempts == 0
        assert detector.state_of(job) is None


class TestVerdictCallback:
    """Control by call: the tracker of an attempt is handed its verdict,
    once, after the bus has narrated it."""

    def test_called_once_per_verdict_after_the_narration(self, detector, bus):
        calls = []

        def narrated(topic, _outcome):
            if topic.startswith("task."):
                calls.append(("bus", topic))

        bus.add_tap(narrated)
        disk_full = UserException("disk_full")
        endings = {
            "j1": [
                TaskEnd(job_id="j1", hostname="n1"),
                Done(job_id="j1", hostname="n1"),
            ],
            "j2": [Done(job_id="j2", hostname="n1", exit_code=1)],
            "j3": [ExceptionNotice(job_id="j3", hostname="n1", exception=disk_full)],
        }
        for job, ending in endings.items():
            detector.track(
                job, "act", "n1", on_verdict=lambda o: calls.append(("call", o))
            )
            detector.deliver(TaskStart(job_id=job, hostname="n1"))
            for msg in ending:
                detector.deliver(msg)
            detector.deliver(Done(job_id=job, hostname="n1"))  # late: ignored
        # task.active is narration only; each verdict is narrated, then
        # handed over — once, and as the very object that was published.
        assert [kind for kind, _ in calls] == ["bus", "bus", "call"] * 3
        assert [what for kind, what in calls if kind == "bus"] == [
            TASK_ACTIVE,
            TASK_DONE,
            TASK_ACTIVE,
            TASK_FAILED,
            TASK_ACTIVE,
            TASK_EXCEPTION,
        ]
        handed = [what for kind, what in calls if kind == "call"]
        narrated = [payload for topic, payload in bus.published if topic != TASK_ACTIVE]
        assert [o.job_id for o in handed] == ["j1", "j2", "j3"]
        assert all(a is b for a, b in zip(handed, narrated))

    def test_called_when_nobody_listens(self, reactor):
        bus = EventBus()
        detector = FailureDetector(reactor, bus)
        verdicts = []
        detector.track("j1", "act", "n1", on_verdict=verdicts.append)
        detector.deliver(Done(job_id="j1", hostname="n1", exit_code=1))
        assert [o.state for o in verdicts] == [TaskState.FAILED]
        assert bus.stats()["declined"] == 1  # offered once, built for the call

    def test_never_called_after_forget(self, detector, bus):
        verdicts = []
        detector.track("j1", "act", "n1", on_verdict=verdicts.append)
        detector.deliver(TaskStart(job_id="j1", hostname="n1"))
        detector.forget("j1")
        detector.deliver(Done(job_id="j1", hostname="n1"))
        assert verdicts == [] and outcomes(bus, TASK_FAILED) == []

    def test_untracked_submission_rejected_only_narrates(self, detector, bus):
        verdicts = []
        detector.track("j1", "act", "n1", on_verdict=verdicts.append)
        detector.submission_rejected("jx", "act", "n1", reason="host-down")
        assert [o.job_id for o in outcomes(bus, TASK_FAILED)] == ["jx"]
        assert verdicts == []
        detector.submission_rejected("j1", "act", "n1", reason="host-down")
        assert [o.job_id for o in verdicts] == ["j1"]


class TestHostSuspicionIntegration:
    def test_suspected_host_fails_its_attempts(self, reactor, kernel, bus):
        detector = FailureDetector(reactor, bus, heartbeat_timeout=5.0)
        detector.start()
        detector.track("j1", "act", "flaky-host")
        detector.deliver(TaskStart(job_id="j1", hostname="flaky-host"))
        detector.deliver(Heartbeat(hostname="flaky-host", seq=0))
        kernel.run_until(20.0)  # silence > timeout
        failed = outcomes(bus, TASK_FAILED)
        assert failed and failed[0].reason == "host-suspected"
        detector.stop()

    def test_attempts_on_other_hosts_unaffected(self, reactor, kernel, bus):
        detector = FailureDetector(reactor, bus, heartbeat_timeout=5.0)
        detector.start()
        detector.track("j1", "a", "dead")
        detector.track("j2", "b", "alive")
        detector.deliver(Heartbeat(hostname="dead", seq=0))

        def keep_beating(seq=[0]):
            detector.deliver(Heartbeat(hostname="alive", seq=seq[0]))
            seq[0] += 1
            reactor.call_later(1.0, keep_beating)

        keep_beating()
        kernel.run_until(20.0)
        failed = outcomes(bus, TASK_FAILED)
        assert [o.job_id for o in failed] == ["j1"]
        detector.stop()

    def test_attempt_forgotten_during_the_walk_gets_no_verdict(
        self, reactor, kernel, bus
    ):
        # Failing one attempt can cancel a sibling on the same host (the
        # coordinator forgets it): the walk must not fail that one too.
        detector = FailureDetector(reactor, bus, heartbeat_timeout=5.0)
        detector.start()
        verdicts = []

        def first_failed(outcome):
            verdicts.append(outcome.job_id)
            detector.forget("j2")

        detector.track("j1", "a", "h", on_verdict=first_failed)
        detector.track(
            "j2", "b", "h", on_verdict=lambda outcome: verdicts.append(outcome.job_id)
        )
        kernel.run_until(20.0)
        assert verdicts == ["j1"]
        assert [o.job_id for o in outcomes(bus, TASK_FAILED)] == ["j1"]
        detector.stop()
