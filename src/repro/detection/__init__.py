"""Generic failure detection service (heartbeats + event notifications).

Python reproduction of the service the paper cites as [18]: typed
notification messages, a heartbeat monitor with timeout-based host
suspicion, a per-task failure detector implementing the paper's state
determination rules, and the task-side notification API.
"""

from .api import TaskContext, TaskFailedSignal, UserExceptionSignal
from .detector import (
    TASK_ACTIVE,
    TASK_DONE,
    TASK_EXCEPTION,
    TASK_FAILED,
    AttemptOutcome,
    FailureDetector,
)
from .heartbeat import HOST_RECOVERED, HOST_SUSPECTED, HeartbeatMonitor, HostLiveness
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
    "HeartbeatMonitor",
    "HostLiveness",
    "CheckpointNotice",
    "Done",
    "ExceptionNotice",
    "Heartbeat",
    "Message",
    "TaskEnd",
    "TaskStart",
]
