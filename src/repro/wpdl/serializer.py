"""XML WPDL serializer — the inverse of :mod:`repro.wpdl.parser`.

Used for round-tripping specifications and, critically, by the engine's own
checkpointing (Section 7: "the engine saves the current XML parse tree onto
a persistent storage in a XML file form"): the engine serialises the static
specification alongside its runtime instance state so a restarted engine
can resume navigation.

The serializer emits only non-default attributes, so hand-written WPDL and
round-tripped WPDL stay diff-friendly.  ``serialize → parse`` is the
identity on the model (property-tested).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Any
from xml.sax.saxutils import escape

from ..core.policy import ReplicationMode, ResourceSelection
from ..errors import SpecificationError
from .model import (
    Activity,
    ConditionKind,
    JoinMode,
    Loop,
    Parameter,
    Program,
    SubWorkflow,
    Transition,
    Workflow,
)

__all__ = ["serialize_wpdl", "workflow_to_element"]


def serialize_wpdl(workflow: Workflow, *, pretty: bool = True) -> str:
    """Render *workflow* as an XML WPDL document string."""
    elem = workflow_to_element(workflow)
    if not pretty:
        return ET.tostring(elem, encoding="unicode")
    lines = ['<?xml version="1.0" ?>']
    _pretty(elem, "", lines)
    return "\n".join(lines) + "\n"


#: What pretty text escapes besides ``&``, ``<`` and ``>``: quotes, as
#: ``xml.dom.minidom`` wrote them, and in an attribute value the whitespace
#: a parser would read back as spaces, as ``ET.tostring`` writes it.
_TEXT = {'"': "&quot;"}
_ATTRIBUTE = {**_TEXT, "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"}


def _pretty(elem: ET.Element, indent: str, lines: list[str]) -> None:
    """Append *elem*, indented two spaces a level; an element with text
    and no children takes one line."""
    attrs = "".join(f' {k}="{escape(v, _ATTRIBUTE)}"' for k, v in elem.items())
    if len(elem):
        lines.append(f"{indent}<{elem.tag}{attrs}>")
        for child in elem:
            _pretty(child, indent + "  ", lines)
        lines.append(f"{indent}</{elem.tag}>")
    elif elem.text:
        text = escape(elem.text, _TEXT)
        lines.append(f"{indent}<{elem.tag}{attrs}>{text}</{elem.tag}>")
    else:
        lines.append(f"{indent}<{elem.tag}{attrs}/>")


def workflow_to_element(workflow: Workflow, *, tag: str = "Workflow") -> ET.Element:
    root = ET.Element(tag, {"name": workflow.name})
    if workflow.variables:
        variables = ET.SubElement(root, "Variables")
        for name, value in workflow.variables.items():
            attrs = {"name": name}
            attrs.update(_typed_attrs(value, context=f"variable {name!r}"))
            ET.SubElement(variables, "Variable", attrs)
    for node in workflow.nodes.values():
        if isinstance(node, Activity):
            root.append(_activity_to_element(node))
        elif isinstance(node, Loop):
            root.append(_loop_to_element(node))
        elif isinstance(node, SubWorkflow):
            root.append(_subworkflow_to_element(node))
    for transition in workflow.transitions:
        root.append(_transition_to_element(transition))
    for program in workflow.programs.values():
        root.append(_program_to_element(program))
    return root


def _typed_attrs(value: Any, *, context: str) -> dict[str, str]:
    if value is None:
        return {"value": "", "type": "none"}
    if isinstance(value, bool):
        return {"value": "true" if value else "false", "type": "bool"}
    if isinstance(value, int):
        return {"value": repr(value), "type": "int"}
    if isinstance(value, float):
        return {"value": repr(value), "type": "float"}
    if isinstance(value, str):
        return {"value": value, "type": "str"}
    raise SpecificationError(
        f"{context}: cannot serialise value of type {type(value).__name__}"
    )


def _activity_to_element(activity: Activity) -> ET.Element:
    attrs: dict[str, str] = {"name": activity.name}
    policy = activity.policy
    if policy.max_tries is None:
        attrs["max_tries"] = "unlimited"
    elif policy.max_tries != 1:
        attrs["max_tries"] = str(policy.max_tries)
    if policy.interval != 0.0:
        attrs["interval"] = repr(policy.interval)
    if policy.backoff_factor != 1.0:
        attrs["backoff"] = repr(policy.backoff_factor)
    if policy.max_interval is not None:
        attrs["max_interval"] = repr(policy.max_interval)
    if policy.replication is not ReplicationMode.NONE:
        attrs["policy"] = policy.replication.value
    if policy.resource_selection is not ResourceSelection.SAME:
        attrs["resource_selection"] = policy.resource_selection.value
    if not policy.restart_from_checkpoint:
        attrs["restart_from_checkpoint"] = "false"
    if policy.retry_on_exception:
        attrs["retry_on_exception"] = "true"
    if policy.attempt_timeout is not None:
        attrs["timeout"] = repr(policy.attempt_timeout)
    if activity.join is not JoinMode.AND:
        attrs["join"] = activity.join.value
    elem = ET.Element("Activity", attrs)
    if activity.description:
        ET.SubElement(elem, "Description").text = activity.description
    for param in activity.inputs:
        elem.append(_input_to_element(param, activity))
    for output in activity.outputs:
        ET.SubElement(elem, "Output").text = output
    for rethrow in activity.rethrows:
        ET.SubElement(
            elem, "Rethrow", {"on": rethrow.pattern, "as": rethrow.as_name}
        )
    if activity.implement is not None:
        ET.SubElement(elem, "Implement").text = activity.implement
    return elem


def _input_to_element(param: Parameter, activity: Activity) -> ET.Element:
    attrs = {"name": param.name}
    if param.ref is not None:
        attrs["ref"] = param.ref
    else:
        attrs.update(
            _typed_attrs(
                param.value,
                context=f"activity {activity.name!r} input {param.name!r}",
            )
        )
    return ET.Element("Input", attrs)


def _loop_to_element(loop: Loop) -> ET.Element:
    attrs = {
        "name": loop.name,
        "condition": loop.condition,
    }
    if loop.max_iterations != 1000:
        attrs["max_iterations"] = str(loop.max_iterations)
    if loop.join is not JoinMode.AND:
        attrs["join"] = loop.join.value
    elem = ET.Element("Loop", attrs)
    elem.append(workflow_to_element(loop.body, tag="Body"))
    return elem


def _subworkflow_to_element(sub: SubWorkflow) -> ET.Element:
    attrs = {"name": sub.name}
    if sub.join is not JoinMode.AND:
        attrs["join"] = sub.join.value
    elem = ET.Element("SubWorkflow", attrs)
    elem.append(workflow_to_element(sub.body, tag="Body"))
    return elem


def _transition_to_element(transition: Transition) -> ET.Element:
    attrs = {"from": transition.source, "to": transition.target}
    cond = transition.condition
    if cond.kind is ConditionKind.EXPR:
        attrs["condition"] = cond.expr
    elif cond.kind is ConditionKind.EXCEPTION:
        attrs["on"] = "exception"
        attrs["exception"] = cond.exception
    elif cond.kind is not ConditionKind.DONE:
        attrs["on"] = cond.kind.value
    return ET.Element("Transition", attrs)


def _program_to_element(program: Program) -> ET.Element:
    elem = ET.Element("Program", {"name": program.name})
    for option in program.options:
        attrs = {"hostname": option.hostname}
        if option.service != "jobmanager":
            attrs["service"] = option.service
        if option.executable_dir:
            attrs["executableDir"] = option.executable_dir
        if option.executable:
            attrs["executable"] = option.executable
        ET.SubElement(elem, "Option", attrs)
    return elem
