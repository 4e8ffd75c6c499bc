"""Grid-WFS: a flexible failure handling framework for the Grid.

A from-scratch Python reproduction of *Grid Workflow: A Flexible Failure
Handling Framework for the Grid* (Hwang & Kesselman, HPDC 2003): the XML
WPDL workflow language, the navigating workflow engine with two-level
failure recovery (task-level retrying / replication / checkpointing,
workflow-level alternative tasks / redundancy / user-defined exception
handling), the generic failure detection service, a discrete-event
simulated Grid substrate, and the paper's complete evaluation harness.

Quickstart::

    from repro import (WorkflowBuilder, FailurePolicy, SimulatedGrid,
                       RELIABLE, FixedDurationTask, WorkflowEngine)

    wf = (WorkflowBuilder("hello")
          .program("sum", hosts=["bolas.isi.edu"])
          .activity("summation", implement="sum",
                    policy=FailurePolicy.retrying(3, interval=10))
          .build())

    grid = SimulatedGrid()
    grid.add_host(RELIABLE("bolas.isi.edu"))
    grid.install("bolas.isi.edu", "sum", FixedDurationTask(30.0, result=42))

    result = WorkflowEngine(wf, grid, reactor=grid.reactor).run()
    assert result.succeeded

See ``examples/`` for the paper's motivating scenarios and ``benchmarks/``
for the reproduction of every figure and table in the evaluation.
"""

from .core import (
    ExceptionBinding,
    ExceptionTable,
    FailurePolicy,
    ReplicationMode,
    ResourceSelection,
    TaskState,
    UserException,
)
from .engine import (
    EngineCheckpointer,
    EngineTrace,
    LocalExecutor,
    NodeStatus,
    WorkflowEngine,
    WorkflowResult,
    WorkflowStatus,
    load_checkpoint,
)
from .errors import (
    EngineError,
    GridWFSError,
    ParseError,
    SpecificationError,
    ValidationError,
)
from .execution import ExecutionService, SubmitRequest
from .grid import (
    RELIABLE,
    UNRELIABLE,
    CheckpointingTask,
    CrashingTask,
    ExceptionProneTask,
    FixedDurationTask,
    FlakyTask,
    ResourceSpec,
    SimulatedGrid,
)
from .reactor import RealTimeReactor
from .wpdl import (
    JoinMode,
    Option,
    Parameter,
    Rethrow,
    SubWorkflow,
    TransitionCondition,
    Workflow,
    WorkflowBuilder,
    parse_wpdl,
    parse_wpdl_file,
    serialize_wpdl,
)

__version__ = "1.0.0"

__all__ = [
    # core policies & exceptions
    "ExceptionBinding",
    "ExceptionTable",
    "FailurePolicy",
    "ReplicationMode",
    "ResourceSelection",
    "TaskState",
    "UserException",
    # engine
    "EngineCheckpointer",
    "EngineTrace",
    "LocalExecutor",
    "NodeStatus",
    "WorkflowEngine",
    "WorkflowResult",
    "WorkflowStatus",
    "load_checkpoint",
    # errors
    "EngineError",
    "GridWFSError",
    "ParseError",
    "SpecificationError",
    "ValidationError",
    # execution interface
    "ExecutionService",
    "SubmitRequest",
    # simulated grid
    "RELIABLE",
    "UNRELIABLE",
    "CheckpointingTask",
    "CrashingTask",
    "ExceptionProneTask",
    "FixedDurationTask",
    "FlakyTask",
    "ResourceSpec",
    "SimulatedGrid",
    # reactors
    "RealTimeReactor",
    # WPDL
    "JoinMode",
    "Option",
    "Parameter",
    "Rethrow",
    "SubWorkflow",
    "TransitionCondition",
    "Workflow",
    "WorkflowBuilder",
    "parse_wpdl",
    "parse_wpdl_file",
    "serialize_wpdl",
    "__version__",
]
