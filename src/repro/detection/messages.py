"""Notification and heartbeat message types of the failure detection service.

The paper's generic failure detection service ([18], summarised in its
Section 3) rests on two message families delivered from each Grid node to
the workflow client:

* **heartbeats** — periodic liveness beacons from the host's generic server;
  their absence beyond a timeout is interpreted as a host crash / network
  partition;
* **event notifications** — application-level events emitted through the
  task-side API: ``TaskStart``, ``TaskEnd``, ``Exception`` (user-defined),
  and ``Checkpoint`` (the piggybacked checkpoint flag of Section 4.3) —
  plus the substrate-level ``Done`` signal that the job's process
  terminated (the GRAM job state change).

Messages are ``NamedTuple`` records: each is built once, by its sender, and
never changed, and a tuple is the cheapest immutable record Python builds —
the simulated job runner mints them with one ``tuple.__new__`` per message.
The wire format is a stable dict (:func:`encode` / :func:`decode`), the one
the earlier dataclass messages had, so they can cross a real network or be
logged and replayed; inside the simulation they are passed as objects.
:data:`Message` is the union of the six types.  A subclass of one is
handled as that type; since tuples compare by value, compare ``type(m)``
too when the type matters.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, is_dataclass
from typing import Any, NamedTuple, Union

from ..core.exceptions import UserException
from ..core.records import FrozenRecord
from ..errors import DetectionError

__all__ = [
    "Message",
    "Heartbeat",
    "TaskStart",
    "TaskEnd",
    "ExceptionNotice",
    "CheckpointNotice",
    "Done",
    "encode",
    "decode",
]

_tuple_new = tuple.__new__

# Every message's first field is ``sent_at``: the send time (reactor /
# simulation seconds at the origin).  ``kind`` is the wire-format
# discriminator, a class attribute.


class _HeartbeatFields(NamedTuple):
    sent_at: float = 0.0
    hostname: str = ""
    seq: int = 0


class Heartbeat(_HeartbeatFields):
    """Periodic liveness beacon from a host's generic server."""

    __slots__ = ()
    kind = "heartbeat"

    def __new__(cls, sent_at: float = 0.0, hostname: str = "", seq: int = 0):
        if not hostname:
            raise DetectionError("heartbeat requires a hostname")
        return _tuple_new(cls, (sent_at, hostname, seq))


class TaskStart(NamedTuple):
    """The application entered its main body (task-side API call)."""

    sent_at: float = 0.0
    job_id: str = ""
    hostname: str = ""

    kind = "task_start"


class TaskEnd(NamedTuple):
    """The application reached its logical end.

    Per the paper's detection rule, only a ``Done`` *preceded by* this
    notification counts as success.
    """

    sent_at: float = 0.0
    job_id: str = ""
    hostname: str = ""
    #: Optional task result payload (kept small; large data goes through
    #: the data catalog, not the notification channel).
    result: Any = None

    kind = "task_end"


class _ExceptionNoticeFields(NamedTuple):
    sent_at: float = 0.0
    job_id: str = ""
    hostname: str = ""
    exception: UserException | None = None


class ExceptionNotice(_ExceptionNoticeFields):
    """A user-defined exception raised inside the task (Section 2.3).
    Without one, each notice gets its own ``UserException("unknown")``."""

    __slots__ = ()
    kind = "exception"

    def __new__(
        cls,
        sent_at: float = 0.0,
        job_id: str = "",
        hostname: str = "",
        exception: UserException | None = None,
    ):
        if exception is None:
            exception = UserException("unknown")
        return _tuple_new(cls, (sent_at, job_id, hostname, exception))


class CheckpointNotice(NamedTuple):
    """The task saved a checkpoint; the flag rides piggybacked (Section 4.3).

    ``flag`` is opaque to the framework: it is whatever the checkpoint
    library needs to resume (for :mod:`repro.ckpt` it is a store key).
    ``progress`` is advisory (fraction of work completed) and used only for
    reporting.
    """

    sent_at: float = 0.0
    job_id: str = ""
    hostname: str = ""
    flag: str = ""
    progress: float = 0.0

    kind = "checkpoint"


class Done(NamedTuple):
    """Substrate-level signal: the job's process is gone.

    Emitted by the execution service when the process exits — normally or
    not — or when the host it ran on crashed.  ``exit_code`` is 0 for a
    normal process exit; nonzero or ``host_crashed=True`` for abnormal ends.
    The detector does *not* trust ``exit_code`` alone: success additionally
    requires a prior ``TaskEnd``.
    """

    sent_at: float = 0.0
    job_id: str = ""
    hostname: str = ""
    exit_code: int = 0
    host_crashed: bool = False

    kind = "done"


#: Any detection-service message.
Message = Union[Heartbeat, TaskStart, TaskEnd, ExceptionNotice, CheckpointNotice, Done]

_KINDS: dict[str, type] = {
    cls.kind: cls
    for cls in (Heartbeat, TaskStart, TaskEnd, ExceptionNotice, CheckpointNotice, Done)
}


def _plain(value: Any) -> Any:
    """A field value as :func:`dataclasses.asdict` renders it: a dataclass,
    or a record that was one (:class:`~repro.core.records.FrozenRecord`),
    becomes a dict, a container is rebuilt around its rendered items, and
    anything else is deep-copied."""
    if is_dataclass(value) and not isinstance(value, type):
        return asdict(value)
    if isinstance(value, FrozenRecord):
        return {name: _plain(item) for name, item in zip(value._fields, value)}
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return type(value)(*map(_plain, value))
    if isinstance(value, (list, tuple)):
        return type(value)(map(_plain, value))
    if isinstance(value, dict):
        return type(value)((_plain(k), _plain(v)) for k, v in value.items())
    return copy.deepcopy(value)


def encode(msg: Message) -> dict[str, Any]:
    """Serialise a message to its dict wire format."""
    payload = {name: _plain(value) for name, value in zip(msg._fields, msg)}
    if isinstance(msg, ExceptionNotice):
        payload["exception"] = {
            "name": msg.exception.name,
            "message": msg.exception.message,
            "data": dict(msg.exception.data),
        }
    payload["kind"] = msg.kind
    return payload


def decode(payload: dict[str, Any]) -> Message:
    """Reconstruct a message from :func:`encode`'s output."""
    data = dict(payload)
    kind = data.pop("kind", None)
    cls = _KINDS.get(kind)
    if cls is None:
        raise DetectionError(f"unknown message kind: {kind!r}")
    if cls is ExceptionNotice:
        exc = data.pop("exception", None) or {}
        data["exception"] = UserException(
            name=exc.get("name", "unknown"),
            message=exc.get("message", ""),
            data=dict(exc.get("data", {})),
        )
    return cls(**data)
