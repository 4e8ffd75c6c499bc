"""The Grid-WFS workflow engine: instance tree, navigator, broker,
two-level recovery coordination (task-level decisions read off each
activity's ``FailurePolicy`` by a ``RecoveryStrategy``), engine
checkpointing, and executors."""

from .broker import Broker, ResolvedOption
from .checkpoint import EngineCheckpointer, load_checkpoint
from .engine import EngineRuntime, WorkflowEngine, WorkflowResult
from .executors import LocalExecutor
from .host import EngineHost
from .instance import (
    EdgeState,
    NodeInstance,
    NodeStatus,
    WorkflowInstance,
    WorkflowStatus,
)
from .navigator import (
    evaluate_outcome,
    fire_outgoing_edges,
    propagate_skips,
    ready_nodes,
)
from .recovery import RecoveryCoordinator, TaskResolution
from .strategies import (
    RecoveryStrategy,
    RetryDecision,
    SlotPlan,
    resolve_strategy,
)
from .trace import EngineTrace

__all__ = [
    "Broker",
    "ResolvedOption",
    "EngineCheckpointer",
    "load_checkpoint",
    "EngineRuntime",
    "WorkflowEngine",
    "WorkflowResult",
    "EngineHost",
    "LocalExecutor",
    "EdgeState",
    "NodeInstance",
    "NodeStatus",
    "WorkflowInstance",
    "WorkflowStatus",
    "evaluate_outcome",
    "fire_outgoing_edges",
    "propagate_skips",
    "ready_nodes",
    "RecoveryCoordinator",
    "TaskResolution",
    "RecoveryStrategy",
    "RetryDecision",
    "SlotPlan",
    "resolve_strategy",
    "EngineTrace",
]
