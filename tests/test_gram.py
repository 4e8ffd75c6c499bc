"""Unit tests for the GRAM-style submission service on the simulated grid."""

from __future__ import annotations

import pytest

from repro.detection.messages import (
    CheckpointNotice,
    Done,
    ExceptionNotice,
    TaskEnd,
    TaskStart,
)
from repro.errors import GridError
from repro.execution import SubmitRequest
from repro.grid import (
    RELIABLE,
    CheckpointingTask,
    CrashingTask,
    ExceptionProneTask,
    FixedDurationTask,
    GridConfig,
    SimulatedGrid,
)


@pytest.fixture
def grid():
    g = SimulatedGrid(config=GridConfig(heartbeats=False))
    g.add_host(RELIABLE("n1"))
    return g


def collect(grid):
    seen = []
    grid.connect(seen.append)
    return seen


def req(**kwargs):
    defaults = dict(activity="act", executable="task", hostname="n1")
    defaults.update(kwargs)
    return SubmitRequest(**defaults)


class TestHappyPath:
    def test_successful_job_message_sequence(self, grid):
        seen = collect(grid)
        grid.install("n1", "task", FixedDurationTask(10.0, result=5))
        job = grid.submit(req())
        grid.run()
        kinds = [type(m).__name__ for m in seen]
        assert kinds == ["TaskStart", "TaskEnd", "Done"]
        assert seen[1].result == 5
        assert seen[2].exit_code == 0
        assert all(m.job_id == job for m in seen)

    def test_task_end_time_scales_with_host_speed(self):
        grid = SimulatedGrid(config=GridConfig(heartbeats=False))
        grid.add_host(RELIABLE("fast", speed=2.0))
        grid.install("fast", "task", FixedDurationTask(10.0))
        seen = collect(grid)
        grid.submit(req(hostname="fast"))
        grid.run()
        done = [m for m in seen if isinstance(m, Done)][0]
        assert done.sent_at == pytest.approx(5.0)

    def test_job_record_status_transitions(self, grid):
        grid.install("n1", "task", FixedDurationTask(10.0))
        job = grid.submit(req())
        [process] = grid.gram.jobs_for_activity("act")
        assert process.job_id == job and process.attempt == 1
        assert process.status == "running"
        grid.run()
        # The table holds live jobs only; the process kept the final status.
        assert process.status == "finished"
        assert grid.gram.jobs_for_activity("act") == []
        assert grid.gram.live_jobs == 0
        assert grid.gram.submitted_count == 1


class TestFailures:
    def test_unknown_executable_gets_exit_127(self, grid):
        seen = collect(grid)
        grid.submit(req(executable="missing"))
        grid.run()
        assert len(seen) == 1
        assert isinstance(seen[0], Done) and seen[0].exit_code == 127

    def test_unknown_host_raises(self, grid):
        with pytest.raises(GridError, match="unknown host"):
            grid.submit(req(hostname="ghost"))

    def test_crashing_task_done_without_taskend(self, grid):
        seen = collect(grid)
        grid.install("n1", "task", CrashingTask(duration=10.0, crash_at=3.0))
        grid.submit(req())
        grid.run()
        kinds = [type(m).__name__ for m in seen]
        assert kinds == ["TaskStart", "Done"]
        assert seen[1].exit_code != 0

    def test_exception_task_sends_notice_then_abnormal_done(self, grid):
        seen = collect(grid)
        grid.install(
            "n1", "task", ExceptionProneTask(duration=30.0, checks=5, probability=1.0)
        )
        grid.submit(req())
        grid.run()
        kinds = [type(m).__name__ for m in seen]
        assert kinds == ["TaskStart", "ExceptionNotice", "Done"]
        assert seen[1].exception.name == "disk_full"


class TestHostCrashInteraction:
    def test_prompt_crash_detection_synthesises_done(self, grid):
        seen = collect(grid)
        grid.install("n1", "task", FixedDurationTask(100.0))
        grid.submit(req())
        grid.kernel.schedule(10.0, grid.host("n1").crash)
        grid.kernel.run_until(20.0)
        dones = [m for m in seen if isinstance(m, Done)]
        assert len(dones) == 1
        assert dones[0].host_crashed
        assert dones[0].sent_at == pytest.approx(10.0)

    def test_heartbeat_mode_synthesises_nothing_while_down(self):
        grid = SimulatedGrid(
            config=GridConfig(heartbeats=False, crash_detection="heartbeat")
        )
        grid.add_host(RELIABLE("n1"))
        grid.install("n1", "task", FixedDurationTask(100.0))
        seen = collect(grid)
        grid.submit(req())
        grid.kernel.schedule(
            10.0, lambda: grid.host("n1").crash(schedule_recovery=False)
        )
        grid.kernel.run_until(50.0)
        # Nothing crosses the wire while the host is down — the client can
        # only notice the silence (the detector's heartbeat timeout).
        assert [type(m).__name__ for m in seen] == ["TaskStart"]

    def test_heartbeat_mode_reports_orphan_on_recovery(self):
        grid = SimulatedGrid(
            config=GridConfig(heartbeats=False, crash_detection="heartbeat")
        )
        grid.add_host(RELIABLE("n1"))
        grid.install("n1", "task", FixedDurationTask(100.0))
        seen = collect(grid)
        grid.submit(req())
        grid.kernel.schedule(
            10.0, lambda: grid.host("n1").crash(schedule_recovery=False)
        )
        host = grid.host("n1")
        grid.kernel.schedule(25.0, host.recover)
        # A second outage, with nothing running, has nothing to report.
        grid.kernel.schedule(30.0, lambda: host.crash(schedule_recovery=False))
        grid.kernel.schedule(35.0, host.recover)
        grid.kernel.run_until(50.0)
        # The restarted job manager reports the orphaned job, once, and
        # the host keeps no listener for it afterwards.
        dones = [m for m in seen if isinstance(m, Done)]
        assert len(dones) == 1
        assert dones[0].host_crashed
        assert dones[0].sent_at == pytest.approx(25.0)
        assert host._recover_listeners == []

    def test_queued_submission_starts_after_recovery(self, grid):
        seen = collect(grid)
        grid.install("n1", "task", FixedDurationTask(10.0))
        host = grid.host("n1")
        host.crash(schedule_recovery=False)
        job = grid.submit(req(queue_when_down=True))
        [process] = grid.gram.jobs_for_activity("act")
        assert process.job_id == job and process.status == "queued"
        grid.kernel.schedule(5.0, host.recover)
        grid.run()
        starts = [m for m in seen if isinstance(m, TaskStart)]
        assert starts and starts[0].sent_at == pytest.approx(5.0)
        ends = [m for m in seen if isinstance(m, TaskEnd)]
        assert ends and ends[0].sent_at == pytest.approx(15.0)

    def test_rejected_when_not_queueing(self, grid):
        seen = collect(grid)
        grid.install("n1", "task", FixedDurationTask(10.0))
        grid.host("n1").crash(schedule_recovery=False)
        grid.submit(req(queue_when_down=False))
        grid.run()
        dones = [m for m in seen if isinstance(m, Done)]
        assert dones and dones[0].exit_code == 75


class TestCheckpointFlow:
    def test_checkpoint_notices_and_store_writes(self, grid):
        seen = collect(grid)
        grid.install(
            "n1",
            "task",
            CheckpointingTask(duration=10.0, checkpoints=2, overhead=0.5),
        )
        grid.submit(req())
        grid.run()
        notices = [m for m in seen if isinstance(m, CheckpointNotice)]
        assert len(notices) == 2
        # The flags are live store keys.
        state = grid.store.load(notices[-1].flag)
        assert state == {"segments_done": 2}

    def test_resubmission_with_flag_resumes(self, grid):
        seen = collect(grid)
        grid.install(
            "n1",
            "task",
            CheckpointingTask(duration=10.0, checkpoints=2, overhead=0.0,
                              recovery_time=1.0),
        )
        request = req()
        grid.submit(request)
        grid.run()
        flag = [m for m in seen if isinstance(m, CheckpointNotice)][0].flag
        seen.clear()
        # The same request: the flag is the submission's, not the request's.
        grid.submit(request, checkpoint_flag=flag)
        [process] = grid.gram.jobs_for_activity("act")
        assert process.request is request and process.checkpoint_flag == flag
        grid.run()
        end = [m for m in seen if isinstance(m, TaskEnd)][0]
        # Resume: R(1.0) + one remaining segment (5.0).
        start_time = [m for m in seen if isinstance(m, TaskStart)][0].sent_at
        assert end.sent_at - start_time == pytest.approx(6.0)

    def test_lost_checkpoint_falls_back_to_cold_start(self, grid):
        seen = collect(grid)
        grid.install(
            "n1", "task", CheckpointingTask(duration=10.0, checkpoints=2, overhead=0.0)
        )
        grid.submit(req(), checkpoint_flag="nonexistent")
        grid.run()
        end = [m for m in seen if isinstance(m, TaskEnd)][0]
        assert end.sent_at == pytest.approx(10.0)


class TestCancel:
    def test_cancel_suppresses_all_further_messages(self, grid):
        seen = collect(grid)
        grid.install("n1", "task", FixedDurationTask(10.0))
        job = grid.submit(req())
        [process] = grid.gram.jobs_for_activity("act")
        grid.kernel.schedule(5.0, lambda: grid.cancel(job))
        grid.run()
        assert [type(m).__name__ for m in seen] == ["TaskStart"]
        assert process.status == "cancelled"
        assert grid.gram.jobs_for_activity("act") == []

    def test_cancel_unknown_job_is_noop(self, grid):
        grid.cancel("ghost")  # no error

    def test_cancel_queued_job(self, grid):
        grid.install("n1", "task", FixedDurationTask(10.0))
        host = grid.host("n1")
        host.crash(schedule_recovery=False)
        job = grid.submit(req())
        grid.cancel(job)
        host.recover()
        seen = collect(grid)
        grid.run()
        assert seen == []


class TestTimerChurn:
    def test_finished_jobs_leave_no_timer_cancellations(self, grid):
        # Every job cancels all of its step handles when it terminates,
        # and by then every one of them has fired: 100 jobs x 2 steps must
        # read as zero cancellations (and never compact the heap).
        grid.install("n1", "task", CrashingTask(duration=9.0, crash_at=1.0, crashes=1))
        collect(grid)
        for i in range(100):
            grid.kernel.schedule(
                float(i), lambda i=i: grid.submit(req(activity=f"a{i}"))
            )
        grid.run()
        stats = grid.kernel.stats()
        assert stats["timers_scheduled"] > 300
        assert stats["timers_cancelled"] == 0
        assert stats["compactions"] == 0
        assert grid.gram.submitted_count == 100

    def test_only_pending_steps_count_when_a_job_is_cancelled(self, grid):
        grid.install("n1", "task", CheckpointingTask(30.0, checkpoints=3))
        collect(grid)
        job = grid.submit(req())
        # start and the first checkpoint have fired; two checkpoints and
        # the end are still to come, but a job keeps one timer and re-arms
        # it step by step: only the second checkpoint's is queued.
        grid.kernel.schedule(15.0, lambda: grid.cancel(job))
        grid.run()
        stats = grid.kernel.stats()
        assert stats["timers_cancelled"] == 1
        # The sequence numbers of all five steps were taken at begin().
        assert stats["timers_scheduled"] == 5 + 1 + 2  # steps, cancel, 2 deliveries


class TestAttemptNumbers:
    def test_attempts_count_per_activity(self, grid):
        grid.install("n1", "task", CrashingTask(duration=10.0, crash_at=1.0, crashes=2))
        seen = collect(grid)
        for _ in range(3):
            grid.submit(req())
            grid.run()
        # Third attempt succeeds (crashes=2).
        ends = [m for m in seen if isinstance(m, TaskEnd)]
        assert len(ends) == 1

    def test_instances_sharing_a_request_number_attempts_independently(self, grid):
        grid.install("n1", "task", CrashingTask(duration=10.0, crash_at=1.0, crashes=1))
        seen = collect(grid)
        request = req()
        attempts = []
        for workflow_id in ("wf-1", "wf-2", "wf-1", "wf-2", ""):
            job = grid.submit(request, workflow_id=workflow_id)
            [process] = grid.gram.jobs_for_activity("act")
            assert process.job_id == job and process.request is request
            attempts.append(process.attempt)
            grid.run()
        assert attempts == [1, 1, 2, 2, 1]
        # Each instance crashed on its own first attempt only.
        exits = [m.exit_code for m in seen if isinstance(m, Done)]
        assert exits == [139, 139, 0, 0, 139]
