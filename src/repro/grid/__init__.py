"""Simulated Grid substrate.

Replaces the paper's Globus testbed: a discrete-event kernel, hosts with
Poisson crash / exponential-downtime lifecycles, a client-facing network
with latency and partitions, a GRAM-style submission service, and the task
behaviours used by the evaluation workloads.
"""

from .behaviors import (
    CheckpointingTask,
    CrashingTask,
    ExceptionProneTask,
    FixedDurationTask,
    FlakyTask,
    PlanContext,
    Step,
    TaskBehavior,
)
from .failures import FailureEvent, FailureScript, inject_crash, inject_partition
from .gram import GramService
from .host import Host, HostState
from .network import Network
from .random import DEFAULT_SEED, RandomStreams
from .resource import RELIABLE, UNRELIABLE, ResourceSpec
from .simgrid import GridConfig, SimulatedGrid
from .simkernel import PeriodicTask, SimKernel, SimReactor

__all__ = [
    "CheckpointingTask",
    "CrashingTask",
    "ExceptionProneTask",
    "FixedDurationTask",
    "FlakyTask",
    "PlanContext",
    "Step",
    "TaskBehavior",
    "FailureEvent",
    "FailureScript",
    "inject_crash",
    "inject_partition",
    "GramService",
    "Host",
    "HostState",
    "Network",
    "DEFAULT_SEED",
    "RandomStreams",
    "RELIABLE",
    "UNRELIABLE",
    "ResourceSpec",
    "GridConfig",
    "SimulatedGrid",
    "PeriodicTask",
    "SimKernel",
    "SimReactor",
]
