"""The paper's primary contribution: the flexible failure handling framework.

Task states and their legal transitions, task-level failure policies (retrying,
replication, checkpoint restart), user-defined exceptions with handler
bindings, and the two-level recovery coordinator that escalates unmasked
task failures to the workflow level.
"""

from .exceptions import ExceptionBinding, ExceptionTable, UserException
from .policy import (
    DEFAULT_POLICY,
    FailurePolicy,
    ReplicationMode,
    ResourceSelection,
)
from .states import LEGAL_TRANSITIONS, TERMINAL_STATES, TaskState

__all__ = [
    "ExceptionBinding",
    "ExceptionTable",
    "UserException",
    "DEFAULT_POLICY",
    "FailurePolicy",
    "ReplicationMode",
    "ResourceSelection",
    "LEGAL_TRANSITIONS",
    "TERMINAL_STATES",
    "TaskState",
]
