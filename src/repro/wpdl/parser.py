"""XML WPDL parser.

Parses workflow process definitions in the paper's XML Workflow Process
Definition Language into the :mod:`repro.wpdl.model` AST, then validates.
The element vocabulary follows the paper's fragments (Figures 2–3) and its
Section 7 feature list; :data:`repro.wpdl.schema.WPDL_DTD` writes it out.
Retrying is ``max_tries`` / ``interval`` on the activity (``max_tries`` may
be ``'unlimited'``); ``backoff`` / ``max_interval`` grow the inter-try wait
geometrically; replication is ``policy='replica'``; a missing
``<Implement>`` makes the activity a dummy task.  Techniques combine
freely: ``policy='replica' restart_from_checkpoint='true' max_tries='3'``
is replication whose replicas each retry from their checkpoints.

No element tree is built: the records are minted from the events of one
grammar walk (DESIGN.md §11), and of two faults the one a tree met first wins.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from ..core.policy import FailurePolicy, ReplicationMode, ResourceSelection
from ..errors import ParseError, PolicyError, SpecificationError
from .model import (
    _DONE,
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
from .schema import ELEMENTS, TEXT_ELEMENTS, _run, _Walk, _xml_parser
from .schema import check_vocabulary
from .validator import validate

__all__ = ["parse_wpdl", "parse_wpdl_file"]

#: The activity attributes a :class:`FailurePolicy` is parsed from.
_POLICY_ATTRIBUTES = tuple(sorted(ELEMENTS["Activity"][0] - {"name", "join"}))
#: The members of the enum-valued attributes, by value.
_CHOICES = {
    "join": {mode.value: mode for mode in JoinMode},
    "policy": {mode.value: mode for mode in ReplicationMode},
    "resource_selection": {way.value: way for way in ResourceSelection},
    "restart_from_checkpoint": {"true": True, "false": False},
    "retry_on_exception": {"true": True, "false": False},
}
#: Activities and transitions are minted: the parser has made every check
#: their constructors make by the time it builds one.
_tuple_new = tuple.__new__

_TYPE_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "bool": lambda s: _BOOLS[s.strip().lower()],
    "none": lambda s: None,
}
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}

_Attrs = dict[str, str]


def parse_wpdl(text: str, *, validate_graph: bool = True) -> Workflow:
    """Parse an XML WPDL document string into a validated workflow.

    A document with grammar problems is refused with one error that lists
    every one, as :func:`~repro.wpdl.schema.check_vocabulary` does
    (``Workflow/Loop: element <Activity> not allowed inside <Loop>``).
    """
    workflow, problems = _read(text)
    if problems:
        raise ParseError("; ".join(problems))
    if validate_graph:
        validate(workflow)
    return workflow


def parse_wpdl_file(path: str | Path, *, validate_graph: bool = True) -> Workflow:
    """Parse a WPDL file (the engine's command-line entry point uses this)."""
    return parse_wpdl(_file_text(path), validate_graph=validate_graph)


def _file_text(path: str | Path) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _read(text: str) -> tuple[Workflow, list[str]]:
    """The workflow *text* declares, unvalidated, and its grammar problems,
    from one reading.  A fault that stops the reading is raised, unless
    grammar problems were met before it: then the error lists every one."""
    reader = _Reader()
    try:
        _run(reader.parser, text)
    except ParseError:
        _fault_met_first(text, reader.composites)
        if not reader.problems:
            raise
        raise ParseError("; ".join(check_vocabulary(text))) from None
    if reader.workflow is None:  # the root element was refused
        raise ParseError("; ".join(reader.problems))
    return reader.workflow, reader.problems


def _fault_met_first(text: str, open_composites: list[_Composite]) -> None:
    """Raise what reading the whole tree first meets before the fault the
    events met: an XML fault, then an open loop's or sub-workflow's second
    ``<Body>`` (outermost first: it counts bodies before reading one)."""
    bodies = {composite.where: 0 for composite in open_composites}
    parser = _xml_parser()
    open_at: list[int] = []

    def start(tag: str, _attrs: _Attrs) -> None:
        if tag == "Body" and open_at and open_at[-1] in bodies:
            bodies[open_at[-1]] += 1
        open_at.append(parser.CurrentByteIndex)

    parser.StartElementHandler = start
    parser.EndElementHandler = lambda _tag: open_at.pop()
    _run(parser, text)
    for composite in open_composites:
        if bodies[composite.where] > 1:
            raise ParseError(f"{composite.label} requires exactly one <Body>")


class _Frame:
    """A ``<Workflow>`` or ``<Body>`` being read."""

    __slots__ = ("name", "nodes", "transitions", "programs", "variables")

    def __init__(self, name: str) -> None:
        self.name, self.nodes, self.transitions = name, {}, []
        self.programs, self.variables = {}, {}


class _Composite:
    """A ``<Loop>`` or ``<SubWorkflow>`` being read; *where*, the byte offset
    of its start tag, finds it again in a second reading."""

    __slots__ = ("label", "name", "attrs", "where", "body")

    def __init__(self, tag: str, name: str, attrs: _Attrs, where: int) -> None:
        self.label, self.name = f"{tag.lower()} {name!r}", name
        self.attrs, self.where = attrs, where
        self.body: Workflow | None = None


class _Reader(_Walk):
    """Mints one document's records from the elements the grammar walk
    accepts.  *policies* interns the document's equal policies (bodies too):
    activities that declare the same handling share one object, which is
    what lets the engine keep one launch plan per (program, policy)."""

    def __init__(self) -> None:
        super().__init__()
        self.text: list[str] = []
        self.collect = self.text.append
        self.policies: dict[tuple, FailurePolicy] = {}
        self.frames: list[_Frame] = []
        self.composites: list[_Composite] = []
        self.workflow: Workflow | None = None

    def _frame(self, tag: str, attrs: _Attrs) -> None:
        name = attrs.get("name", "")
        if tag == "Body":
            composite = self.composites[-1]
            if composite.body is not None:
                raise ParseError(f"{composite.label} requires exactly one <Body>")
            name = attrs.get("name", f"{composite.name}_body")
        if not name:
            raise ParseError("<Workflow> requires a name attribute")
        self.frame = _Frame(name)
        self.frames.append(self.frame)

    def _transition(self, _tag: str, attrs: _Attrs) -> None:
        try:
            source, target = attrs["from"], attrs["to"]
        except KeyError:
            source = target = ""
        if not source or not target:
            raise ParseError("<Transition> requires from and to attributes")
        condition = _DONE
        if "on" in attrs or "condition" in attrs:
            condition = _condition(attrs, source, target)
        if source == target:
            loop = "(use a Loop for iteration)"
            raise ParseError(f"self-transition on {source!r} {loop}")
        edge = _tuple_new(Transition, (source, target, condition))
        self.frame.transitions.append(edge)

    def _activity(self, _tag: str, attrs: _Attrs) -> None:
        self.name = attrs.get("name", "")
        if not self.name:
            raise ParseError("<Activity> requires a name attribute")
        self.attrs, self.implement, self.description = attrs, None, ""
        self.inputs = self.outputs = self.rethrows = ()

    def _composite(self, tag: str, attrs: _Attrs) -> None:
        name = attrs.get("name", "")
        if not name:
            raise ParseError(f"<{tag}> requires a name attribute")
        if tag == "Loop":
            if not attrs.get("condition", ""):
                raise ParseError(f"loop {name!r} requires a condition attribute")
            try:
                int(attrs.get("max_iterations", "1000"))
            except ValueError:
                raise ParseError(
                    f"loop {name!r}: max_iterations must be an integer"
                ) from None
        where = self.parser.CurrentByteIndex  # found again by a second reading
        self.composites.append(_Composite(tag, name, attrs, where))

    def _program(self, _tag: str, attrs: _Attrs) -> None:
        self.program = attrs.get("name", "")
        if not self.program:
            raise ParseError("<Program> requires a name attribute")
        self.options: tuple[Option, ...] = ()

    def _variable(self, _tag: str, attrs: _Attrs) -> None:
        vname = attrs.get("name", "")
        if not vname:
            raise ParseError("<Variable> requires a name attribute")
        value = _typed_value(attrs.get("value", ""), attrs.get("type", "str"))
        self.frame.variables[vname] = value

    def _text(self, _tag: str, _attrs: _Attrs) -> None:
        del self.text[:]
        self.parser.CharacterDataHandler = self.collect

    def _input(self, _tag: str, attrs: _Attrs) -> None:
        pname, ref = attrs.get("name", ""), attrs.get("ref")
        where = f"activity {self.name!r}"
        if not pname:
            raise ParseError(f"{where}: <Input> requires a name")
        if ref is None:
            value = _typed_value(attrs.get("value", ""), attrs.get("type", "str"))
            self.inputs += (Parameter(name=pname, value=value),)
        elif attrs.get("value") is not None:
            raise ParseError(
                f"{where} input {pname!r}: value and ref are mutually exclusive"
            )
        else:
            self.inputs += (Parameter(name=pname, ref=ref),)

    def _rethrow(self, _tag: str, attrs: _Attrs) -> None:
        pattern, as_name = attrs.get("on", ""), attrs.get("as", "")
        if not pattern or not as_name:
            raise ParseError(f"activity {self.name!r}: <Rethrow> requires on and as")
        self.rethrows += (Rethrow(pattern=pattern, as_name=as_name),)

    def _option(self, _tag: str, attrs: _Attrs) -> None:
        hostname = attrs.get("hostname", "")
        if not hostname:
            raise ParseError(f"program {self.program!r}: <Option> requires a hostname")
        service = attrs.get("service", "jobmanager")
        directory = attrs.get("executableDir", "")
        executable = attrs.get("executable", "")
        self.options += (Option(hostname, service, directory, executable),)

    def _end_text(self, tag: str) -> None:
        self.parser.CharacterDataHandler = None
        text = "".join(self.text).strip()
        if tag == "Implement":
            self.implement = text or None
        elif tag == "Description":
            self.description = text
        elif not text:
            raise ParseError(f"activity {self.name!r}: empty <Output>")
        else:
            self.outputs += (text,)

    def _end_frame(self, _tag: str) -> None:
        frame = self.frames.pop()
        nodes, edges, programs = frame.nodes, tuple(frame.transitions), frame.programs
        try:
            workflow = Workflow(frame.name, nodes, edges, programs, frame.variables)
        except SpecificationError as exc:
            raise ParseError(str(exc)) from exc
        if self.frames:
            self.frame = self.frames[-1]
            self.composites[-1].body = workflow
        self.workflow = workflow

    def _end_program(self, _tag: str) -> None:
        try:
            program = Program(name=self.program, options=self.options)
        except SpecificationError as exc:
            raise ParseError(str(exc)) from exc
        if program.name in self.frame.programs:
            raise ParseError(f"duplicate program {program.name!r}")
        self.frame.programs[program.name] = program

    def _end_activity(self, tag: str) -> None:
        name, attrs = self.name, self.attrs
        try:
            key = tuple(map(attrs.get, _POLICY_ATTRIBUTES))
            policy = self.policies.get(key)
            if policy is None:
                policy = self.policies[key] = _parse_policy(attrs)
            join = JoinMode.AND
            if "join" in attrs:
                join = _choice(attrs, "join", "and")
        except (SpecificationError, PolicyError) as exc:
            raise ParseError(f"activity {name!r}: {exc}") from exc
        fields = (name, self.implement, policy, join, self.inputs, self.outputs)
        activity = _tuple_new(Activity, (*fields, self.rethrows, self.description))
        self._add(tag, activity)

    def _end_composite(self, tag: str) -> None:
        composite = self.composites.pop()
        name, attrs, body = composite.name, composite.attrs, composite.body
        if body is None:
            raise ParseError(f"{composite.label} requires exactly one <Body>")
        join = _choice(attrs, "join", "and", f"{composite.label}: ")
        try:
            if tag == "SubWorkflow":
                node: Loop | SubWorkflow = SubWorkflow(name=name, body=body, join=join)
            else:
                iterations = int(attrs.get("max_iterations", "1000"))
                node = Loop(name, body, attrs["condition"], iterations, join)
        except SpecificationError as exc:
            # The model's message names the node already.
            raise ParseError(str(exc)) from exc
        self._add(tag, node)

    def _add(self, tag: str, node: Activity | Loop | SubWorkflow) -> None:
        if node.name in self.frame.nodes:
            raise ParseError(f"duplicate {tag.lower()} {node.name!r}")
        self.frame.nodes[node.name] = node

    opens = _Walk.opens | {
        **dict.fromkeys(("Workflow", "Body"), _frame),
        **dict.fromkeys(("Loop", "SubWorkflow"), _composite),
        **dict.fromkeys(TEXT_ELEMENTS, _text),
        "Transition": _transition,
        "Activity": _activity,
        "Variable": _variable,
        "Input": _input,
        "Rethrow": _rethrow,
        "Program": _program,
        "Option": _option,
    }
    closes = _Walk.closes | {
        **dict.fromkeys(("Workflow", "Body"), _end_frame),
        **dict.fromkeys(("Loop", "SubWorkflow"), _end_composite),
        **dict.fromkeys(TEXT_ELEMENTS, _end_text),
        "Activity": _end_activity,
        "Program": _end_program,
    }


def _parse_policy(attrs: _Attrs) -> FailurePolicy:
    """The policy's fields are read, and checked, in the attributes' order."""
    raw_tries = attrs.get("max_tries", "1")
    try:
        max_tries = None if raw_tries in {"unlimited", "*"} else int(raw_tries)
    except ValueError:
        raise ParseError(
            f"max_tries must be an integer or 'unlimited', got {raw_tries!r}"
        ) from None
    interval = _number(attrs, "interval", "0")
    replication = _choice(attrs, "policy", "none")
    selection = _choice(attrs, "resource_selection", "same")
    restart = _choice(attrs, "restart_from_checkpoint", "true")
    retry = _choice(attrs, "retry_on_exception", "false")
    timeout = _number(attrs, "timeout", None)
    backoff = _number(attrs, "backoff", "1")
    ceiling = _number(attrs, "max_interval", None)
    fields = (max_tries, interval, replication, selection, restart, retry)
    return FailurePolicy(*fields, timeout, backoff, ceiling)


def _number(attrs: _Attrs, key: str, default: str | None) -> Any:
    raw = attrs.get(key, default)
    try:
        return None if raw is None else float(raw)
    except ValueError:
        raise ParseError(f"{key} must be a number") from None


def _choice(attrs: _Attrs, key: str, default: str, where: str = "") -> Any:
    members = _CHOICES[key]
    raw = attrs.get(key, default)
    if raw not in members:
        allowed = " or ".join(map(repr, members))
        raise ParseError(f"{where}{key} must be {allowed}, got {raw!r}")
    return members[raw]


def _condition(attrs: _Attrs, source: str, target: str) -> TransitionCondition:
    on, expr = attrs.get("on"), attrs.get("condition")
    edge = f"transition {source!r}->{target!r}"
    try:
        if expr is not None:
            if on is not None:
                raise ParseError(f"{edge}: 'on' and 'condition' are mutually exclusive")
            return TransitionCondition.when(expr)
        if on in {"done", "failed", "always"}:
            return getattr(TransitionCondition, on)()  # the shared condition
        if on != "exception":
            raise ParseError(f"{edge}: unknown on={on!r}")
        exception = attrs.get("exception")
        if not exception:
            raise ParseError(f"{edge}: on='exception' requires an exception attribute")
        return TransitionCondition.on_exception(exception)
    except SpecificationError as exc:
        raise ParseError(str(exc)) from exc


def _typed_value(raw: str, type_name: str) -> Any:
    parser = _TYPE_PARSERS.get(type_name)
    if parser is None:
        expected = f"(expected one of {sorted(_TYPE_PARSERS)})"
        raise ParseError(f"unknown value type {type_name!r} {expected}")
    try:
        return parser(raw)
    except KeyError:  # type='bool' and none of its words
        words = "true, false, yes, no, 1 or 0"
        raise ParseError(f"cannot parse {raw!r} as bool: expected {words}") from None
    except ValueError as exc:
        raise ParseError(f"cannot parse {raw!r} as {type_name}: {exc}") from exc
