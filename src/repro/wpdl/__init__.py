"""XML Workflow Process Definition Language (WPDL): model, parser,
serializer, validator, safe condition expressions, and a fluent builder."""

from .builder import WorkflowBuilder
from .conditions import ConditionProgram, compile_condition, evaluate_condition
from .model import (
    Activity,
    ConditionKind,
    JoinMode,
    Loop,
    Node,
    Option,
    Parameter,
    Program,
    Rethrow,
    SubWorkflow,
    Transition,
    TransitionCondition,
    Workflow,
)
from .parser import parse_wpdl, parse_wpdl_file
from .schema import WPDL_DTD, check_vocabulary
from .serializer import serialize_wpdl
from .validator import validate, validation_problems

__all__ = [
    "WorkflowBuilder",
    "ConditionProgram",
    "compile_condition",
    "evaluate_condition",
    "Activity",
    "ConditionKind",
    "JoinMode",
    "Loop",
    "Node",
    "Option",
    "Parameter",
    "Program",
    "Rethrow",
    "SubWorkflow",
    "Transition",
    "TransitionCondition",
    "Workflow",
    "parse_wpdl",
    "parse_wpdl_file",
    "WPDL_DTD",
    "check_vocabulary",
    "serialize_wpdl",
    "validate",
    "validation_problems",
]
