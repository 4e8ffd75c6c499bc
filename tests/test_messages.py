"""Unit tests for detection-service message types and wire format."""

from __future__ import annotations

from dataclasses import dataclass

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
    decode,
    encode,
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

#: ``encode`` of each ``ALL_MESSAGES`` entry, as the dataclass messages
#: (``dataclasses.asdict`` plus ``kind``) wrote it: the wire format.
WIRE = [
    {"sent_at": 1.0, "hostname": "n1", "seq": 7, "kind": "heartbeat"},
    {"sent_at": 2.0, "job_id": "j1", "hostname": "n1", "kind": "task_start"},
    {
        "sent_at": 3.0,
        "job_id": "j1",
        "hostname": "n1",
        "result": {"sum": 42},
        "kind": "task_end",
    },
    {
        "sent_at": 4.0,
        "job_id": "j1",
        "hostname": "n1",
        "exception": {
            "name": "disk_full",
            "message": "no space",
            "data": {"free_gb": 0.1},
        },
        "kind": "exception",
    },
    {
        "sent_at": 5.0,
        "job_id": "j1",
        "hostname": "n1",
        "flag": "k1",
        "progress": 0.5,
        "kind": "checkpoint",
    },
    {
        "sent_at": 6.0,
        "job_id": "j1",
        "hostname": "n1",
        "exit_code": 137,
        "host_crashed": True,
        "kind": "done",
    },
]


@dataclass
class Point:
    x: int
    y: list


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


class TestWireFormat:
    @pytest.mark.parametrize("msg", ALL_MESSAGES, ids=lambda m: m.kind)
    def test_encode_decode_roundtrip(self, msg):
        back = decode(encode(msg))
        # Tuples compare by value: the type must come back too.
        assert back == msg and type(back) is type(msg)

    @pytest.mark.parametrize(
        "msg, wire", zip(ALL_MESSAGES, WIRE), ids=[m.kind for m in ALL_MESSAGES]
    )
    def test_encode_is_the_dataclass_wire_format(self, msg, wire):
        payload = encode(msg)
        assert payload == wire
        assert list(payload) == list(wire)

    def test_a_dataclass_in_a_result_is_rendered_as_asdict_did(self):
        msg = TaskEnd(
            sent_at=3.0,
            job_id="j1",
            hostname="n1",
            result={"p": Point(1, [Point(2, [])]), "t": (Point(3, []), 4)},
        )
        assert encode(msg) == {
            "sent_at": 3.0,
            "job_id": "j1",
            "hostname": "n1",
            "result": {
                "p": {"x": 1, "y": [{"x": 2, "y": []}]},
                "t": ({"x": 3, "y": []}, 4),
            },
            "kind": "task_end",
        }

    def test_encode_includes_kind_discriminator(self):
        payload = encode(Done(job_id="j"))
        assert payload["kind"] == "done"

    def test_decode_unknown_kind_rejected(self):
        with pytest.raises(DetectionError, match="unknown message kind"):
            decode({"kind": "bogus"})

    def test_exception_payload_structure(self):
        payload = encode(ALL_MESSAGES[3])
        assert payload["exception"]["name"] == "disk_full"
        assert payload["exception"]["data"] == {"free_gb": 0.1}

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
