"""Task states of the generic failure detection service.

The paper (Section 3, citing [18]) interprets heartbeat and event
notification messages to determine the state of each submitted task:
``inactive``, ``active``, ``done``, ``failed``, or ``exception``.  The key
detection rule is:

* receiving the substrate's **Done** signal *with* a prior **TaskEnd**
  application notification means the task completed successfully
  (``DONE``);
* receiving **Done** *without* **TaskEnd** means the process terminated
  before the application reached its end — a **task crash failure**
  (``FAILED``);
* an **Exception** notification moves the task to ``EXCEPTION`` (a
  task-specific, user-defined failure to be handled at the workflow level).

This module defines the state enum and the legal transition relation.  The
failure detector (:mod:`repro.detection.detector`) keeps one state per task
attempt and checks every move against :data:`LEGAL_TRANSITIONS`.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["TaskState", "TERMINAL_STATES", "LEGAL_TRANSITIONS"]


class TaskState(str, Enum):
    """States a task attempt moves through, as in the paper's Figure 1."""

    #: Defined but not yet submitted / not yet observed running.
    INACTIVE = "inactive"
    #: Running on a Grid resource (TaskStart seen or submission acknowledged).
    ACTIVE = "active"
    #: Completed successfully (Done preceded by TaskEnd).
    DONE = "done"
    #: Task crash failure (Done without TaskEnd, host crash, lost heartbeat).
    FAILED = "failed"
    #: A user-defined exception was raised by the task.
    EXCEPTION = "exception"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: States from which no further transition is legal for a single attempt.
TERMINAL_STATES = frozenset({TaskState.DONE, TaskState.FAILED, TaskState.EXCEPTION})

#: The legal transition relation.  ``INACTIVE -> FAILED`` is allowed because
#: a submission can be rejected before the task ever becomes active (e.g.
#: target host down); ``ACTIVE -> ACTIVE`` is not listed — repeated
#: heartbeats do not transition.
LEGAL_TRANSITIONS: frozenset[tuple[TaskState, TaskState]] = frozenset(
    {
        (TaskState.INACTIVE, TaskState.ACTIVE),
        (TaskState.INACTIVE, TaskState.FAILED),
        (TaskState.ACTIVE, TaskState.DONE),
        (TaskState.ACTIVE, TaskState.FAILED),
        (TaskState.ACTIVE, TaskState.EXCEPTION),
    }
)

