"""Unit tests for detection-service message types."""

from __future__ import annotations

import pytest

from repro.ckpt.manager import CheckpointRecord
from repro.core.exceptions import UserException
from repro.core.states import TaskState
from repro.detection.detector import AttemptOutcome
from repro.detection.messages import (
    CheckpointNotice,
    Done,
    ExceptionNotice,
    Heartbeat,
    TaskEnd,
    TaskStart,
)
from repro.engine.recovery import TaskResolution
from repro.errors import DetectionError

ALL_MESSAGES = [
    Heartbeat(sent_at=1.0, hostname="n1", seq=7),
    TaskStart(sent_at=2.0, job_id="j1", hostname="n1"),
    TaskEnd(sent_at=3.0, job_id="j1", hostname="n1", result={"sum": 42}),
    ExceptionNotice(
        sent_at=4.0,
        job_id="j1",
        hostname="n1",
        exception=UserException("disk_full", "no space", data={"free_gb": 0.1}),
    ),
    CheckpointNotice(sent_at=5.0, job_id="j1", hostname="n1", flag="k1", progress=0.5),
    Done(sent_at=6.0, job_id="j1", hostname="n1", exit_code=137, host_crashed=True),
]


def records() -> list:
    """One record of each immutable type on the attempt path (built per
    call: a census of live per-attempt objects must not find one held by
    this module)."""
    return [
        *ALL_MESSAGES,
        AttemptOutcome("j1", "act", TaskState.DONE),
        TaskResolution("act", TaskState.DONE),
        CheckpointRecord(activity="act", flag="k1"),
    ]


class TestRecords:
    def test_messages_are_frozen(self):
        # And every other record on the attempt path.
        for record in records():
            last = record._fields[-1]
            with pytest.raises(AttributeError):
                setattr(record, last, None)
            with pytest.raises(AttributeError):
                record.extra = 1  # type: ignore[attr-defined]


class TestValidation:
    def test_heartbeat_requires_hostname(self):
        with pytest.raises(DetectionError):
            Heartbeat(seq=1)

    def test_each_exception_notice_gets_its_own_default(self):
        first, second = ExceptionNotice(), ExceptionNotice()
        assert first.exception == UserException("unknown")
        assert first.exception is not second.exception
        first.exception.data["seen"] = True
        assert second.exception.data == {}

    def test_done_defaults_clean_exit(self):
        msg = Done(job_id="j")
        assert msg.exit_code == 0 and not msg.host_crashed
