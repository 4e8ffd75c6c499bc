"""Unit tests for the two-level recovery coordinator.

Uses a scripted fake execution service so every outcome is hand-delivered:
this isolates the coordinator's decision logic (retry budgets, resource
rotation, replication bookkeeping, checkpoint flags, escalation) from the
grid simulation, which is covered by the end-to-end engine tests.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.exceptions import UserException
from repro.core.policy import FailurePolicy, ResourceSelection
from repro.core.states import TaskState
from repro.detection.detector import AttemptOutcome, FailureDetector
from repro.engine.broker import Broker
from repro.engine.recovery import RecoveryCoordinator
from repro.errors import RecoveryError
from repro.execution import ExecutionService, SubmitRequest
from repro.wpdl.model import Activity, Option, Program


class FakeService(ExecutionService):
    def __init__(self):
        self.submissions: list[SubmitRequest] = []
        #: The ``checkpoint_flag`` each submission was given, in order.
        self.flags: list[str | None] = []
        self.cancelled: list[str] = []
        self._seq = itertools.count(1)

    def submit(
        self, request: SubmitRequest, *, checkpoint_flag=None, workflow_id=""
    ) -> str:
        self.submissions.append(request)
        self.flags.append(checkpoint_flag)
        return f"fake-{next(self._seq)}"

    def cancel(self, job_id: str) -> None:
        self.cancelled.append(job_id)

    def connect(self, sink) -> None:  # pragma: no cover - unused here
        pass


@pytest.fixture
def setup(reactor, bus):
    service = FakeService()
    detector = FailureDetector(reactor, bus)
    resolutions = []
    coordinator = RecoveryCoordinator(
        service,
        detector,
        Broker(),
        reactor,
        on_resolution=resolutions.append,
    )
    return service, detector, coordinator, resolutions


def program(*hosts):
    return Program(name="p", options=tuple(Option(hostname=h) for h in hosts))


def activity(policy, name="act"):
    return Activity(name=name, implement="p", policy=policy)


def outcome(job_id, state, *, flag=None, exception=None, result=None):
    return AttemptOutcome(
        job_id=job_id,
        activity="act",
        state=state,
        checkpoint_flag=flag,
        exception=exception,
        result=result,
    )


def last_job(service):
    return f"fake-{len(service.submissions)}"


class TestSingleSlot:
    def test_success_resolves_done(self, setup):
        service, _, coord, resolutions = setup
        coord.start_activity(activity(FailurePolicy()), program("h1"))
        assert len(service.submissions) == 1
        coord.handle_outcome(outcome("fake-1", TaskState.DONE, result=42))
        assert resolutions[0].state is TaskState.DONE
        assert resolutions[0].result == 42
        assert resolutions[0].tries_used == 1

    def test_failure_without_retries_escalates(self, setup):
        _, _, coord, resolutions = setup
        coord.start_activity(activity(FailurePolicy()), program("h1"))
        coord.handle_outcome(outcome("fake-1", TaskState.FAILED))
        assert resolutions[0].state is TaskState.FAILED

    def test_retry_until_budget_exhausted(self, setup, kernel):
        service, _, coord, resolutions = setup
        coord.start_activity(activity(FailurePolicy.retrying(3)), program("h1"))
        for i in range(1, 4):
            coord.handle_outcome(outcome(f"fake-{i}", TaskState.FAILED))
            kernel.run()
        assert len(service.submissions) == 3
        assert resolutions and resolutions[0].state is TaskState.FAILED
        assert resolutions[0].tries_used == 3

    def test_retry_interval_respected(self, setup, kernel):
        service, _, coord, _ = setup
        coord.start_activity(
            activity(FailurePolicy.retrying(2, interval=10.0)), program("h1")
        )
        coord.handle_outcome(outcome("fake-1", TaskState.FAILED))
        kernel.run_until(5.0)
        assert len(service.submissions) == 1  # still waiting
        kernel.run_until(11.0)
        assert len(service.submissions) == 2

    def test_success_after_retry(self, setup, kernel):
        service, _, coord, resolutions = setup
        coord.start_activity(activity(FailurePolicy.retrying(3)), program("h1"))
        coord.handle_outcome(outcome("fake-1", TaskState.FAILED))
        kernel.run()
        coord.handle_outcome(outcome("fake-2", TaskState.DONE))
        assert resolutions[0].state is TaskState.DONE
        assert resolutions[0].tries_used == 2

    def test_rotate_retries_on_other_resource(self, setup, kernel):
        service, _, coord, _ = setup
        policy = FailurePolicy.retrying(
            3, resource_selection=ResourceSelection.ROTATE
        )
        coord.start_activity(activity(policy), program("h1", "h2"))
        assert service.submissions[0].hostname == "h1"
        coord.handle_outcome(outcome("fake-1", TaskState.FAILED))
        kernel.run()
        assert service.submissions[1].hostname == "h2"

    def test_exception_escalates_immediately(self, setup):
        _, _, coord, resolutions = setup
        exc = UserException("disk_full")
        coord.start_activity(activity(FailurePolicy.retrying(5)), program("h1"))
        coord.handle_outcome(outcome("fake-1", TaskState.EXCEPTION, exception=exc))
        assert resolutions[0].state is TaskState.EXCEPTION
        assert resolutions[0].exception is exc
        assert resolutions[0].tries_used == 1  # retries NOT consumed

    def test_retry_on_exception_policy_masks(self, setup, kernel):
        service, _, coord, resolutions = setup
        exc = UserException("disk_full")
        policy = FailurePolicy(max_tries=2, retry_on_exception=True)
        coord.start_activity(activity(policy), program("h1"))
        coord.handle_outcome(outcome("fake-1", TaskState.EXCEPTION, exception=exc))
        kernel.run()
        assert len(service.submissions) == 2
        # Budget exhausted on a masked exception: reported as EXCEPTION so
        # workflow-level handlers still see the true cause.
        coord.handle_outcome(outcome("fake-2", TaskState.EXCEPTION, exception=exc))
        assert resolutions[0].state is TaskState.EXCEPTION


class TestCheckpointFlags:
    def test_flag_recorded_and_sent_back_on_retry(self, setup, kernel):
        service, _, coord, _ = setup
        coord.start_activity(activity(FailurePolicy.retrying(3)), program("h1"))
        assert service.flags[0] is None
        coord.handle_outcome(outcome("fake-1", TaskState.FAILED, flag="ck-7"))
        kernel.run()
        assert service.flags[1] == "ck-7"

    def test_flag_not_sent_when_restart_disabled(self, setup, kernel):
        service, _, coord, _ = setup
        policy = FailurePolicy(max_tries=3, restart_from_checkpoint=False)
        coord.start_activity(activity(policy), program("h1"))
        coord.handle_outcome(outcome("fake-1", TaskState.FAILED, flag="ck-7"))
        kernel.run()
        assert service.flags[1] is None

    def test_flags_cleared_on_success(self, setup, kernel):
        service, _, coord, _ = setup
        coord.start_activity(activity(FailurePolicy.retrying(None)), program("h1"))
        coord.handle_outcome(outcome("fake-1", TaskState.FAILED, flag="ck-1"))
        kernel.run()
        coord.handle_outcome(outcome("fake-2", TaskState.DONE))
        assert coord.checkpoints.flag_for("act@slot0") is None


class TestReplication:
    def test_all_options_submitted_simultaneously(self, setup):
        service, _, coord, _ = setup
        coord.start_activity(
            activity(FailurePolicy.replica()), program("h1", "h2", "h3")
        )
        assert [r.hostname for r in service.submissions] == ["h1", "h2", "h3"]

    def test_first_success_wins_and_cancels_siblings(self, setup):
        service, _, coord, resolutions = setup
        coord.start_activity(
            activity(FailurePolicy.replica()), program("h1", "h2", "h3")
        )
        coord.handle_outcome(outcome("fake-2", TaskState.DONE, result="r2"))
        assert resolutions[0].state is TaskState.DONE
        assert set(service.cancelled) == {"fake-1", "fake-3"}

    def test_single_replica_failure_not_fatal(self, setup, kernel):
        _, _, coord, resolutions = setup
        coord.start_activity(
            activity(FailurePolicy.replica()), program("h1", "h2")
        )
        coord.handle_outcome(outcome("fake-1", TaskState.FAILED))
        kernel.run()
        assert resolutions == []  # h2 still running

    def test_all_replicas_exhausted_escalates(self, setup, kernel):
        _, _, coord, resolutions = setup
        coord.start_activity(
            activity(FailurePolicy.replica()), program("h1", "h2")
        )
        coord.handle_outcome(outcome("fake-1", TaskState.FAILED))
        coord.handle_outcome(outcome("fake-2", TaskState.FAILED))
        kernel.run()
        assert resolutions and resolutions[0].state is TaskState.FAILED

    def test_replicas_retry_independently(self, setup, kernel):
        service, _, coord, resolutions = setup
        coord.start_activity(
            activity(FailurePolicy.replica(max_tries=2)), program("h1", "h2")
        )
        coord.handle_outcome(outcome("fake-1", TaskState.FAILED))
        kernel.run()
        assert len(service.submissions) == 3  # h1 resubmitted
        assert service.submissions[2].hostname == "h1"
        coord.handle_outcome(outcome("fake-3", TaskState.DONE))
        assert resolutions[0].state is TaskState.DONE
        assert resolutions[0].tries_used == 3

    def test_exception_on_one_replica_cancels_all(self, setup):
        service, _, coord, resolutions = setup
        coord.start_activity(
            activity(FailurePolicy.replica()), program("h1", "h2", "h3")
        )
        exc = UserException("disk_full")
        coord.handle_outcome(outcome("fake-1", TaskState.EXCEPTION, exception=exc))
        assert resolutions[0].state is TaskState.EXCEPTION
        assert set(service.cancelled) == {"fake-2", "fake-3"}


class TestLifecycle:
    def test_double_start_rejected(self, setup):
        _, _, coord, _ = setup
        coord.start_activity(activity(FailurePolicy()), program("h1"))
        with pytest.raises(RecoveryError, match="already running"):
            coord.start_activity(activity(FailurePolicy()), program("h1"))

    def test_cancel_activity_silences_everything(self, setup, kernel):
        service, _, coord, resolutions = setup
        coord.start_activity(activity(FailurePolicy.retrying(5)), program("h1"))
        coord.cancel_activity("act")
        assert service.cancelled == ["fake-1"]
        coord.handle_outcome(outcome("fake-1", TaskState.FAILED))
        kernel.run()
        assert resolutions == [] and len(service.submissions) == 1

    def test_unknown_outcome_ignored(self, setup):
        _, _, coord, resolutions = setup
        coord.handle_outcome(outcome("ghost", TaskState.DONE))
        assert resolutions == []

    def test_active_outcome_is_informational(self, setup):
        _, _, coord, resolutions = setup
        coord.start_activity(activity(FailurePolicy()), program("h1"))
        coord.handle_outcome(outcome("fake-1", TaskState.ACTIVE))
        assert resolutions == []
        assert coord.running_activities() == ["act"]


class TestSnapshotRestore:
    def test_snapshot_reflects_spent_budget(self, setup, kernel):
        _, _, coord, _ = setup
        coord.start_activity(activity(FailurePolicy.retrying(3)), program("h1"))
        coord.handle_outcome(outcome("fake-1", TaskState.FAILED, flag="ck-2"))
        kernel.run()
        snap = coord.snapshot_activity("act")
        assert snap["slots"][0]["tries"] == 2
        assert snap["slots"][0]["flag"] == "ck-2"

    def test_restore_preserves_budget_across_restart(self, reactor, bus, kernel):
        service = FakeService()
        detector = FailureDetector(reactor, bus)
        resolutions = []
        coord = RecoveryCoordinator(
            service, detector, Broker(), reactor, on_resolution=resolutions.append
        )
        # The engine died after 2 of 3 tries; restart with the snapshot.
        coord.start_activity(
            activity(FailurePolicy.retrying(3)),
            program("h1"),
            restored_state={"slots": [{"tries": 2, "option": 0, "flag": "ck-9"}]},
        )
        assert len(service.submissions) == 1
        assert service.flags[0] == "ck-9"
        coord.handle_outcome(outcome("fake-1", TaskState.FAILED))
        kernel.run()
        # 3 tries total consumed (2 before restart + 1 after): escalate.
        assert resolutions and resolutions[0].state is TaskState.FAILED

    def test_restore_with_exhausted_budget_fails_immediately(self, reactor, bus):
        service = FakeService()
        detector = FailureDetector(reactor, bus)
        resolutions = []
        coord = RecoveryCoordinator(
            service, detector, Broker(), reactor, on_resolution=resolutions.append
        )
        coord.start_activity(
            activity(FailurePolicy.retrying(2)),
            program("h1"),
            restored_state={"slots": [{"tries": 2, "option": 0}]},
        )
        assert service.submissions == []
        assert resolutions and resolutions[0].state is TaskState.FAILED


class TestAttemptTimeout:
    def test_timeout_cancels_and_retries(self, setup, kernel):
        service, _, coord, resolutions = setup
        policy = FailurePolicy(max_tries=2, attempt_timeout=20.0)
        coord.start_activity(activity(policy), program("h1"))
        kernel.run_until(25.0)  # no outcome ever arrives: watchdog fires
        assert service.cancelled == ["fake-1"]
        assert len(service.submissions) == 2  # retry submitted
        kernel.run_until(50.0)  # second attempt also times out
        assert resolutions and resolutions[0].state is TaskState.FAILED
        assert resolutions[0].tries_used == 2

    def test_outcome_disarms_watchdog(self, setup, kernel):
        service, _, coord, resolutions = setup
        policy = FailurePolicy(max_tries=2, attempt_timeout=20.0)
        coord.start_activity(activity(policy), program("h1"))
        coord.handle_outcome(outcome("fake-1", TaskState.DONE))
        kernel.run_until(100.0)
        assert service.cancelled == []
        assert len(service.submissions) == 1
        assert resolutions[0].state is TaskState.DONE

    def test_cancel_activity_disarms_watchdog(self, setup, kernel):
        service, _, coord, resolutions = setup
        policy = FailurePolicy(max_tries=None, attempt_timeout=20.0)
        coord.start_activity(activity(policy), program("h1"))
        coord.cancel_activity("act")
        kernel.run_until(100.0)
        assert len(service.submissions) == 1  # watchdog never resubmitted
        assert resolutions == []

    def test_late_timeout_after_resolution_is_harmless(self, setup, kernel):
        service, _, coord, resolutions = setup
        policy = FailurePolicy(max_tries=None, attempt_timeout=20.0)
        coord.start_activity(activity(policy), program("h1"))
        coord.handle_outcome(outcome("fake-1", TaskState.DONE))
        kernel.run_until(21.0)
        assert resolutions == [resolutions[0]]  # exactly one resolution
