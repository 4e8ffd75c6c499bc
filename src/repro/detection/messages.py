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
They are passed as objects and never serialised.
:data:`Message` is the union of the six types.  The detector dispatches on
a message's exact type, so it refuses a subclass of one; since tuples
compare by value, compare ``type(m)`` too when the type matters.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Union

from ..core.exceptions import UserException
from ..errors import DetectionError

__all__ = [
    "Message",
    "Heartbeat",
    "TaskStart",
    "TaskEnd",
    "ExceptionNotice",
    "CheckpointNotice",
    "Done",
]

_tuple_new = tuple.__new__

# Every message's first field is ``sent_at``: the send time (reactor /
# simulation seconds at the origin).


class _HeartbeatFields(NamedTuple):
    sent_at: float = 0.0
    hostname: str = ""
    seq: int = 0


class Heartbeat(_HeartbeatFields):
    """Periodic liveness beacon from a host's generic server."""

    __slots__ = ()

    def __new__(cls, sent_at: float = 0.0, hostname: str = "", seq: int = 0):
        if not hostname:
            raise DetectionError("heartbeat requires a hostname")
        return _tuple_new(cls, (sent_at, hostname, seq))


class TaskStart(NamedTuple):
    """The application entered its main body (task-side API call)."""

    sent_at: float = 0.0
    job_id: str = ""
    hostname: str = ""


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


class _ExceptionNoticeFields(NamedTuple):
    sent_at: float = 0.0
    job_id: str = ""
    hostname: str = ""
    exception: UserException | None = None


class ExceptionNotice(_ExceptionNoticeFields):
    """A user-defined exception raised inside the task (Section 2.3).
    Without one, each notice gets its own ``UserException("unknown")``."""

    __slots__ = ()

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


#: Any detection-service message.
Message = Union[Heartbeat, TaskStart, TaskEnd, ExceptionNotice, CheckpointNotice, Done]
