"""Generic failure detection service (heartbeats + event notifications).

Python reproduction of the service the paper cites as [18]: typed
notification messages, one failure detector — timeout-based host suspicion
from heartbeats, and the paper's per-attempt state determination rules —
and the task-side notification API.
"""

from .api import TaskContext, TaskFailedSignal, UserExceptionSignal
from .detector import (
    HOST_RECOVERED,
    HOST_SUSPECTED,
    TASK_ACTIVE,
    TASK_DONE,
    TASK_EXCEPTION,
    TASK_FAILED,
    AttemptOutcome,
    FailureDetector,
    HostLiveness,
)
from .messages import (
    CheckpointNotice,
    Done,
    ExceptionNotice,
    Heartbeat,
    Message,
    TaskEnd,
    TaskStart,
)

__all__ = [
    "TaskContext",
    "TaskFailedSignal",
    "UserExceptionSignal",
    "TASK_ACTIVE",
    "TASK_DONE",
    "TASK_EXCEPTION",
    "TASK_FAILED",
    "AttemptOutcome",
    "FailureDetector",
    "HOST_RECOVERED",
    "HOST_SUSPECTED",
    "HostLiveness",
    "CheckpointNotice",
    "Done",
    "ExceptionNotice",
    "Heartbeat",
    "Message",
    "TaskEnd",
    "TaskStart",
]
