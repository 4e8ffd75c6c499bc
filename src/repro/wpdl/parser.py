"""XML WPDL parser.

Parses workflow process definitions in the paper's XML Workflow Process
Definition Language into the :mod:`repro.wpdl.model` AST, then validates.
The element vocabulary follows the paper's fragments (Figures 2–3) and its
Section 7 feature list:

.. code-block:: xml

    <Workflow name='example'>
      <Variables>
        <Variable name='threshold' value='0.5' type='float'/>
      </Variables>
      <Activity name='summation' max_tries='3' interval='10'>
        <Input name='x' value='42' type='int'/>
        <Input name='y' ref='previous_task'/>
        <Output>total</Output>
        <Implement>sum</Implement>
      </Activity>
      <Activity name='merge' policy='replica' join='or'/>
      <Loop name='refine' condition='residual &gt; 0.01' max_iterations='10'>
        <Body name='refine_body'>
          <!-- nested Activities / Transitions / Programs -->
        </Body>
      </Loop>
      <Transition from='summation' to='merge'/>
      <Transition from='summation' to='cleanup' on='failed'/>
      <Transition from='fast' to='slow' on='exception' exception='disk_full'/>
      <Transition from='check' to='big' condition='total &gt; 100'/>
      <Program name='sum'>
        <Option hostname='bolas.isi.edu' service='jobmanager'
                executableDir='/XML/EXAMPLE/' executable='sum'/>
      </Program>
    </Workflow>

Retrying is ``max_tries`` / ``interval`` on the activity (``max_tries`` may
be ``'unlimited'``); ``backoff`` / ``max_interval`` grow the inter-try wait
geometrically; replication is ``policy='replica'``; a missing
``<Implement>`` makes the activity a dummy task.  Techniques combine
freely: ``policy='replica' restart_from_checkpoint='true' max_tries='3'``
is replication whose replicas each retry from their checkpoints.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Any

from ..core.policy import FailurePolicy, ReplicationMode, ResourceSelection
from ..errors import ParseError, PolicyError, SpecificationError
from .model import (
    _ALWAYS,
    _DONE,
    _FAILED,
    Activity,
    JoinMode,
    Loop,
    Option,
    Parameter,
    Program,
    Rethrow,
    SubWorkflow,
    Transition,
    TransitionCondition,
    Workflow,
)
from .validator import validate

__all__ = ["parse_wpdl", "parse_wpdl_file"]

#: The activity attributes a :class:`FailurePolicy` is parsed from.
_POLICY_ATTRIBUTES = (
    "max_tries",
    "interval",
    "policy",
    "resource_selection",
    "restart_from_checkpoint",
    "retry_on_exception",
    "timeout",
    "backoff",
    "max_interval",
)

#: One document's parsed policies, by their raw attribute strings.
_PolicyMemo = dict[tuple, FailurePolicy]

#: ``join=`` values (a missing attribute reads ``and``).
_JOIN_MODES = {mode.value: mode for mode in JoinMode}

#: Activities and transitions are minted: the parser has made every check
#: their constructors make by the time it builds one.
_tuple_new = tuple.__new__

_TYPE_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "bool": lambda s: s.strip().lower() in {"true", "1", "yes"},
    "none": lambda s: None,
}


def parse_wpdl(text: str, *, validate_graph: bool = True) -> Workflow:
    """Parse an XML WPDL document string into a validated workflow."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ParseError(f"not well-formed XML: {exc}") from exc
    if root.tag != "Workflow":
        raise ParseError(f"root element must be <Workflow>, got <{root.tag}>")
    workflow = _parse_workflow_element(root, {})
    if validate_graph:
        validate(workflow)
    return workflow


def parse_wpdl_file(path: str | Path, *, validate_graph: bool = True) -> Workflow:
    """Parse a WPDL file (the engine's command-line entry point uses this)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_wpdl(text, validate_graph=validate_graph)


def _parse_workflow_element(elem: ET.Element, policies: _PolicyMemo) -> Workflow:
    """*policies* interns the document's equal policies (bodies included):
    activities that declare the same handling share one object, which is
    what lets the engine keep one launch plan per (program, policy)."""
    name = elem.get("name", "")
    if not name:
        raise ParseError("<Workflow> requires a name attribute")
    nodes: dict[str, Any] = {}
    transitions: list[Transition] = []
    programs: dict[str, Program] = {}
    variables: dict[str, Any] = {}

    for child in elem:
        if child.tag == "Variables":
            for var in child.findall("Variable"):
                vname = var.get("name", "")
                if not vname:
                    raise ParseError("<Variable> requires a name attribute")
                variables[vname] = _typed_value(
                    var.get("value", ""), var.get("type", "str")
                )
        elif child.tag == "Activity":
            activity = _parse_activity(child, policies)
            _add_unique(nodes, activity, "activity")
        elif child.tag == "Loop":
            loop = _parse_loop(child, policies)
            _add_unique(nodes, loop, "loop")
        elif child.tag == "SubWorkflow":
            sub = _parse_subworkflow(child, policies)
            _add_unique(nodes, sub, "subworkflow")
        elif child.tag == "Transition":
            transitions.append(_parse_transition(child))
        elif child.tag == "Program":
            program = _parse_program(child)
            if program.name in programs:
                raise ParseError(f"duplicate program {program.name!r}")
            programs[program.name] = program
        else:
            raise ParseError(f"unexpected element <{child.tag}> in <Workflow>")

    try:
        return Workflow(
            name=name,
            nodes=nodes,
            transitions=tuple(transitions),
            programs=programs,
            variables=variables,
        )
    except SpecificationError as exc:
        raise ParseError(str(exc)) from exc


def _add_unique(nodes: dict[str, Any], node: Any, kind: str) -> None:
    if node.name in nodes:
        raise ParseError(f"duplicate {kind} {node.name!r}")
    nodes[node.name] = node


def _parse_activity(elem: ET.Element, policies: _PolicyMemo) -> Activity:
    name = elem.get("name", "")
    if not name:
        raise ParseError("<Activity> requires a name attribute")
    implement: str | None = None
    inputs: list[Parameter] = []
    outputs: list[str] = []
    rethrows: list[Rethrow] = []
    description = ""
    for child in elem:
        if child.tag == "Implement":
            implement = (child.text or "").strip() or None
        elif child.tag == "Input":
            inputs.append(_parse_input(child, activity=name))
        elif child.tag == "Output":
            out = (child.text or "").strip()
            if not out:
                raise ParseError(f"activity {name!r}: empty <Output>")
            outputs.append(out)
        elif child.tag == "Rethrow":
            pattern = child.get("on", "")
            as_name = child.get("as", "")
            if not pattern or not as_name:
                raise ParseError(
                    f"activity {name!r}: <Rethrow> requires on and as"
                )
            rethrows.append(Rethrow(pattern=pattern, as_name=as_name))
        elif child.tag == "Description":
            description = (child.text or "").strip()
        else:
            raise ParseError(
                f"unexpected element <{child.tag}> in activity {name!r}"
            )
    try:
        # A policy that fails to parse is not kept, so the error names the
        # activity it was found on however many share its attributes.
        key = tuple(map(elem.get, _POLICY_ATTRIBUTES))
        policy = policies.get(key)
        if policy is None:
            policy = policies[key] = _parse_policy(elem, name)
        join = _parse_join(elem, name)
    except (SpecificationError, PolicyError) as exc:
        raise ParseError(f"activity {name!r}: {exc}") from exc
    return _tuple_new(
        Activity,
        (
            name,
            implement,
            policy,
            join,
            tuple(inputs),
            tuple(outputs),
            tuple(rethrows),
            description,
        ),
    )


def _parse_input(elem: ET.Element, *, activity: str) -> Parameter:
    pname = elem.get("name", "")
    if not pname:
        raise ParseError(f"activity {activity!r}: <Input> requires a name")
    ref = elem.get("ref")
    if ref is not None:
        if elem.get("value") is not None:
            raise ParseError(
                f"activity {activity!r} input {pname!r}: "
                "value and ref are mutually exclusive"
            )
        return Parameter(name=pname, ref=ref)
    return Parameter(
        name=pname,
        value=_typed_value(elem.get("value", ""), elem.get("type", "str")),
    )


def _parse_policy(elem: ET.Element, name: str) -> FailurePolicy:
    raw_tries = elem.get("max_tries", "1")
    max_tries: int | None
    if raw_tries in {"unlimited", "*"}:
        max_tries = None
    else:
        try:
            max_tries = int(raw_tries)
        except ValueError:
            raise ParseError(
                f"activity {name!r}: max_tries must be an integer or "
                f"'unlimited', got {raw_tries!r}"
            ) from None
    try:
        interval = float(elem.get("interval", "0"))
    except ValueError:
        raise ParseError(
            f"activity {name!r}: interval must be a number"
        ) from None
    policy_attr = elem.get("policy", "none")
    try:
        replication = ReplicationMode(policy_attr)
    except ValueError:
        raise ParseError(
            f"activity {name!r}: policy must be 'none' or 'replica', "
            f"got {policy_attr!r}"
        ) from None
    selection_attr = elem.get("resource_selection", "same")
    try:
        selection = ResourceSelection(selection_attr)
    except ValueError:
        raise ParseError(
            f"activity {name!r}: resource_selection must be 'same' or "
            f"'rotate', got {selection_attr!r}"
        ) from None
    restart = elem.get("restart_from_checkpoint", "true").lower() != "false"
    retry_exc = elem.get("retry_on_exception", "false").lower() == "true"
    raw_timeout = elem.get("timeout")
    if raw_timeout is None:
        attempt_timeout = None
    else:
        try:
            attempt_timeout = float(raw_timeout)
        except ValueError:
            raise ParseError(
                f"activity {name!r}: timeout must be a number"
            ) from None
    try:
        backoff_factor = float(elem.get("backoff", "1"))
    except ValueError:
        raise ParseError(
            f"activity {name!r}: backoff must be a number"
        ) from None
    raw_max_interval = elem.get("max_interval")
    if raw_max_interval is None:
        max_interval = None
    else:
        try:
            max_interval = float(raw_max_interval)
        except ValueError:
            raise ParseError(
                f"activity {name!r}: max_interval must be a number"
            ) from None
    return FailurePolicy(
        max_tries=max_tries,
        interval=interval,
        replication=replication,
        resource_selection=selection,
        restart_from_checkpoint=restart,
        retry_on_exception=retry_exc,
        attempt_timeout=attempt_timeout,
        backoff_factor=backoff_factor,
        max_interval=max_interval,
    )


def _parse_join(elem: ET.Element, name: str) -> JoinMode:
    join_attr = elem.get("join", "and")
    join = _JOIN_MODES.get(join_attr)
    if join is None:
        raise ParseError(
            f"node {name!r}: join must be 'and' or 'or', got {join_attr!r}"
        )
    return join


def _parse_loop(elem: ET.Element, policies: _PolicyMemo) -> Loop:
    name = elem.get("name", "")
    if not name:
        raise ParseError("<Loop> requires a name attribute")
    condition = elem.get("condition", "")
    if not condition:
        raise ParseError(f"loop {name!r} requires a condition attribute")
    try:
        max_iterations = int(elem.get("max_iterations", "1000"))
    except ValueError:
        raise ParseError(
            f"loop {name!r}: max_iterations must be an integer"
        ) from None
    bodies = elem.findall("Body")
    if len(bodies) != 1:
        raise ParseError(f"loop {name!r} requires exactly one <Body>")
    body_elem = bodies[0]
    body_name = body_elem.get("name", f"{name}_body")
    # A <Body> is structurally a <Workflow>; reuse the workflow parser.
    body_elem = _clone_as_workflow(body_elem, body_name)
    body = _parse_workflow_element(body_elem, policies)
    try:
        return Loop(
            name=name,
            body=body,
            condition=condition,
            max_iterations=max_iterations,
            join=_parse_join(elem, name),
        )
    except SpecificationError as exc:
        raise ParseError(f"loop {name!r}: {exc}") from exc


def _clone_as_workflow(elem: ET.Element, name: str) -> ET.Element:
    clone = ET.Element("Workflow", {"name": name})
    clone.extend(list(elem))
    return clone


def _parse_subworkflow(elem: ET.Element, policies: _PolicyMemo) -> SubWorkflow:
    name = elem.get("name", "")
    if not name:
        raise ParseError("<SubWorkflow> requires a name attribute")
    bodies = elem.findall("Body")
    if len(bodies) != 1:
        raise ParseError(f"subworkflow {name!r} requires exactly one <Body>")
    body_elem = _clone_as_workflow(bodies[0], bodies[0].get("name", f"{name}_body"))
    body = _parse_workflow_element(body_elem, policies)
    try:
        return SubWorkflow(name=name, body=body, join=_parse_join(elem, name))
    except SpecificationError as exc:
        raise ParseError(f"subworkflow {name!r}: {exc}") from exc


def _parse_transition(elem: ET.Element) -> Transition:
    source = elem.get("from", "")
    target = elem.get("to", "")
    if not source or not target:
        raise ParseError("<Transition> requires from and to attributes")
    on = elem.get("on")
    expr = elem.get("condition")
    exception = elem.get("exception")
    try:
        if expr is not None:
            if on is not None:
                raise ParseError(
                    f"transition {source!r}->{target!r}: "
                    "'on' and 'condition' are mutually exclusive"
                )
            condition = TransitionCondition.when(expr)
        elif on is None or on == "done":
            condition = _DONE
        elif on == "failed":
            condition = _FAILED
        elif on == "always":
            condition = _ALWAYS
        elif on == "exception":
            if not exception:
                raise ParseError(
                    f"transition {source!r}->{target!r}: on='exception' "
                    "requires an exception attribute"
                )
            condition = TransitionCondition.on_exception(exception)
        else:
            raise ParseError(
                f"transition {source!r}->{target!r}: unknown on={on!r}"
            )
    except SpecificationError as exc:
        raise ParseError(str(exc)) from exc
    if source == target:
        raise ParseError(f"self-transition on {source!r} (use a Loop for iteration)")
    return _tuple_new(Transition, (source, target, condition))


def _parse_program(elem: ET.Element) -> Program:
    name = elem.get("name", "")
    if not name:
        raise ParseError("<Program> requires a name attribute")
    options: list[Option] = []
    for child in elem:
        if child.tag != "Option":
            raise ParseError(f"unexpected element <{child.tag}> in program {name!r}")
        hostname = child.get("hostname", "")
        if not hostname:
            raise ParseError(f"program {name!r}: <Option> requires a hostname")
        options.append(
            Option(
                hostname=hostname,
                service=child.get("service", "jobmanager"),
                executable_dir=child.get("executableDir", ""),
                executable=child.get("executable", ""),
            )
        )
    try:
        return Program(name=name, options=tuple(options))
    except SpecificationError as exc:
        raise ParseError(str(exc)) from exc


def _typed_value(raw: str, type_name: str) -> Any:
    parser = _TYPE_PARSERS.get(type_name)
    if parser is None:
        raise ParseError(
            f"unknown value type {type_name!r} "
            f"(expected one of {sorted(_TYPE_PARSERS)})"
        )
    try:
        return parser(raw)
    except ValueError as exc:
        raise ParseError(f"cannot parse {raw!r} as {type_name}: {exc}") from exc
