"""Tests for host execution slots (jobmanager queueing) and the
detection-service message log (record/replay)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import UserException
from repro.core.states import TaskState
from repro.detection.detector import TASK_DONE, FailureDetector
from repro.detection.log import MessageLog
from repro.detection.messages import (
    CheckpointNotice,
    Done,
    ExceptionNotice,
    Heartbeat,
    TaskEnd,
    TaskStart,
    decode,
    encode,
)
from repro.errors import DetectionError
from repro.events import EventBus
from repro.execution import SubmitRequest
from repro.grid import FixedDurationTask, GridConfig, ResourceSpec, SimulatedGrid


def slotted_grid(slots):
    grid = SimulatedGrid(config=GridConfig(heartbeats=False))
    grid.add_host(ResourceSpec(hostname="h1", mttf=math.inf, slots=slots))
    grid.install("h1", "t", FixedDurationTask(10.0))
    return grid


def submit_n(grid, n):
    for i in range(n):
        grid.submit(SubmitRequest(activity=f"a{i}", executable="t", hostname="h1"))


class TestSlots:
    def test_single_slot_serialises_jobs(self):
        grid = slotted_grid(1)
        seen = []
        grid.connect(seen.append)
        submit_n(grid, 3)
        grid.run()
        ends = [m.sent_at for m in seen if isinstance(m, TaskEnd)]
        assert ends == [10.0, 20.0, 30.0]

    def test_two_slots_pair_up(self):
        grid = slotted_grid(2)
        seen = []
        grid.connect(seen.append)
        submit_n(grid, 4)
        grid.run()
        ends = [m.sent_at for m in seen if isinstance(m, TaskEnd)]
        assert ends == [10.0, 10.0, 20.0, 20.0]

    def test_unlimited_by_default(self):
        grid = slotted_grid(None)
        seen = []
        grid.connect(seen.append)
        submit_n(grid, 5)
        grid.run()
        ends = [m.sent_at for m in seen if isinstance(m, TaskEnd)]
        assert ends == [10.0] * 5

    def test_cancelled_queued_job_releases_no_slot_twice(self):
        grid = slotted_grid(1)
        seen = []
        grid.connect(seen.append)
        j1 = grid.submit(SubmitRequest(activity="a", executable="t", hostname="h1"))
        j2 = grid.submit(SubmitRequest(activity="b", executable="t", hostname="h1"))
        grid.cancel(j2)  # cancelled while queued
        grid.run()
        ends = [m for m in seen if isinstance(m, TaskEnd)]
        assert len(ends) == 1

    def test_crash_kills_running_and_preserves_queue(self):
        grid = slotted_grid(1)
        seen = []
        grid.connect(seen.append)
        submit_n(grid, 2)
        grid.kernel.schedule(5.0, lambda: grid.host("h1").crash(schedule_recovery=False))
        grid.kernel.schedule(8.0, grid.host("h1").recover)
        grid.run()
        ends = [m.sent_at for m in seen if isinstance(m, TaskEnd)]
        # Job 1 killed at 5; job 2 starts at recovery (8) and ends at 18.
        assert ends == [18.0]

    def test_invalid_slots_rejected(self):
        with pytest.raises(ValueError):
            ResourceSpec(hostname="h", slots=0)


MESSAGES = [
    Heartbeat(sent_at=1.0, hostname="n1", seq=3),
    TaskStart(sent_at=2.0, job_id="j1", hostname="n1"),
    CheckpointNotice(sent_at=3.0, job_id="j1", hostname="n1", flag="k", progress=0.5),
    ExceptionNotice(
        sent_at=4.0, job_id="j1", hostname="n1",
        exception=UserException("disk_full", "x", data={"gb": 1}),
    ),
    TaskEnd(sent_at=5.0, job_id="j1", hostname="n1", result=[1, 2]),
    Done(sent_at=6.0, job_id="j1", hostname="n1", exit_code=137, host_crashed=True),
]


class TestMessageLog:
    def test_record_and_read_roundtrip(self, tmp_path):
        log = MessageLog(tmp_path / "msgs.jsonl")
        for msg in MESSAGES:
            log.record(msg)
        assert log.recorded == len(MESSAGES)
        assert list(MessageLog.read(log.path)) == MESSAGES

    def test_tee_records_while_forwarding(self, tmp_path):
        log = MessageLog(tmp_path / "msgs.jsonl")
        forwarded = []
        sink = log.tee(forwarded.append)
        for msg in MESSAGES[:3]:
            sink(msg)
        assert forwarded == MESSAGES[:3]
        assert list(MessageLog.read(log.path)) == MESSAGES[:3]

    def test_tee_records_before_delivery_so_failing_sink_loses_nothing(
        self, tmp_path
    ):
        # The tee contract: record first, deliver second.  A downstream
        # sink that blows up mid-stream must still leave a log covering
        # every message it was offered — including the fatal one — so a
        # replay can reproduce the crash.
        log = MessageLog(tmp_path / "msgs.jsonl")
        seen = []

        def failing_sink(msg):
            if len(seen) == 2:
                raise RuntimeError("downstream detector exploded")
            seen.append(msg)

        sink = log.tee(failing_sink)
        sink(MESSAGES[0])
        sink(MESSAGES[1])
        with pytest.raises(RuntimeError, match="exploded"):
            sink(MESSAGES[2])
        # The sink saw two messages, but all three were offered — and all
        # three are on disk, in offer order.
        assert seen == MESSAGES[:2]
        assert list(MessageLog.read(log.path)) == MESSAGES[:3]
        assert log.recorded == 3

    def test_replay_into_fresh_detector_reproduces_verdict(
        self, tmp_path, reactor, kernel
    ):
        # Record a full successful attempt, replay it into a new detector:
        # the detector reaches the same DONE verdict from the log alone.
        log = MessageLog(tmp_path / "incident.jsonl")
        for msg in (
            TaskStart(job_id="j1", hostname="n1"),
            TaskEnd(job_id="j1", hostname="n1", result=42),
            Done(job_id="j1", hostname="n1"),
        ):
            log.record(msg)
        bus = EventBus()
        done = []
        bus.subscribe(TASK_DONE, lambda _topic, outcome: done.append(outcome))
        detector = FailureDetector(reactor, bus)
        detector.track("j1", "act", "n1")
        count = MessageLog.replay(log.path, detector.deliver)
        assert count == 3
        assert done and done[0].state is TaskState.DONE and done[0].result == 42

    def test_corrupt_line_raises_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "done", "job_id": "j"}\n{broken\n')
        with pytest.raises(DetectionError, match="line 2"):
            list(MessageLog.read(path))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DetectionError, match="cannot read"):
            list(MessageLog.read(tmp_path / "nope.jsonl"))

    def test_end_to_end_grid_recording(self, tmp_path):
        grid = slotted_grid(None)
        log = MessageLog(tmp_path / "run.jsonl")
        collected = []
        grid.connect(log.tee(collected.append))
        submit_n(grid, 2)
        grid.run()
        assert list(MessageLog.read(log.path)) == collected


class TestWireFormatProperty:
    @given(
        st.sampled_from(["task_start", "task_end", "checkpoint", "done"]),
        st.text(min_size=1, max_size=12),
        st.floats(0, 1e6, allow_nan=False),
    )
    @settings(max_examples=80)
    def test_encode_decode_identity(self, kind, job_id, sent_at):
        if kind == "task_start":
            msg = TaskStart(sent_at=sent_at, job_id=job_id, hostname="h")
        elif kind == "task_end":
            msg = TaskEnd(sent_at=sent_at, job_id=job_id, hostname="h", result=None)
        elif kind == "checkpoint":
            msg = CheckpointNotice(
                sent_at=sent_at, job_id=job_id, hostname="h", flag="f"
            )
        else:
            msg = Done(sent_at=sent_at, job_id=job_id, hostname="h", exit_code=1)
        assert decode(encode(msg)) == msg
