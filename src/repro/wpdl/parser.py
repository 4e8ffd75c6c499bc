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

No element tree is built: the records are minted from expat's events as
the document is read (DESIGN.md §11), and every message and the order in
which faults are met are those of reading the whole tree first.
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
from .schema import ELEMENTS, _lint, _run, _tag, _xml_parser
from .validator import validate

__all__ = ["parse_wpdl", "parse_wpdl_file"]

#: The activity attributes a :class:`FailurePolicy` is parsed from.
_POLICY_ATTRIBUTES = tuple(sorted(ELEMENTS["Activity"][0] - {"name", "join"}))
#: Each element's attributes (an unknown element has none).
_ATTRIBUTES = {tag: attributes for tag, (attributes, _) in ELEMENTS.items()}
_NONE: frozenset[str] = frozenset()
#: The members of the enum-valued attributes, by value.
_CHOICES = {
    "join": {mode.value: mode for mode in JoinMode},
    "policy": {mode.value: mode for mode in ReplicationMode},
    "resource_selection": {way.value: way for way in ResourceSelection},
}
#: The elements whose text is read: what comes before their first child.
_TEXT_ELEMENTS = frozenset({"Implement", "Output", "Description"})
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

_Attrs = dict[str, str]


def parse_wpdl(
    text: str, *, validate_graph: bool = True, check_attributes: bool = True
) -> Workflow:
    """Parse an XML WPDL document string into a validated workflow.

    An attribute outside the vocabulary is refused, with one error listing
    every such attribute by its path (``Workflow/Activity: unknown attribute
    'max_trys'``), unless *check_attributes* is false — ``repro validate``
    lists them itself, beside the graph's problems.
    """
    reader = _Reader()
    try:
        _run(reader.parser, text)
    except ParseError:
        _fault_met_first(text, reader.composites)
        raise
    if check_attributes and reader.unknown_attribute:
        unknown = _lint(text, elements=False)
        if unknown:
            raise ParseError("; ".join(unknown))
    if validate_graph:
        validate(reader.workflow)
    return reader.workflow


def parse_wpdl_file(
    path: str | Path, *, validate_graph: bool = True, check_attributes: bool = True
) -> Workflow:
    """Parse a WPDL file (the engine's command-line entry point uses this)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_wpdl(
        text, validate_graph=validate_graph, check_attributes=check_attributes
    )


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

    def workflow(self) -> Workflow:
        nodes, programs, variables = self.nodes, self.programs, self.variables
        return Workflow(self.name, nodes, tuple(self.transitions), programs, variables)


class _Composite:
    """A ``<Loop>`` or ``<SubWorkflow>`` being read; *where*, the byte offset
    of its start tag, finds it again in a second reading."""

    __slots__ = ("tag", "label", "name", "attrs", "where", "body")

    def __init__(self, tag: str, name: str, attrs: _Attrs, where: int) -> None:
        self.tag, self.label = tag, f"{tag.lower()} {name!r}"
        self.name, self.attrs, self.where = name, attrs, where
        self.body: Workflow | None = None


class _Reader:
    """Mints one document's records from its expat events.  A start goes
    to ``open``, the reader of the children of the element it is in, an end
    to :meth:`close`; an element read from its attributes alone is held in
    ``leaf`` until its end, and any start inside it is refused.
    *policies* interns the document's equal policies (bodies too):
    activities that declare the same handling share one object, which is
    what lets the engine keep one launch plan per (program, policy)."""

    def __init__(self) -> None:
        self.parser = parser = _xml_parser()
        parser.StartElementHandler = self.start
        parser.EndElementHandler = self.end
        #: What ``collect`` gathers: a text element's data up to its first child.
        self.text: list[str] = []
        self.collect = self.text.append
        self.policies: dict[tuple, FailurePolicy] = {}
        self.open = _Reader._root
        self.leaf = ""
        self.frames: list[_Frame] = []
        self.composites: list[_Composite] = []
        self.unknown_attribute = False

    def start(self, tag: str, attrs: _Attrs) -> None:
        if self.leaf:
            raise _misplaced(tag, self.leaf)
        # Only flagged here: the lint decides what is unknown where.
        if not _ATTRIBUTES.get(tag, _NONE).issuperset(attrs):
            self.unknown_attribute = True
        self.open(self, tag, attrs)

    def end(self, tag: str) -> None:
        if self.leaf:
            self.leaf = ""
        else:
            self.close(tag)

    def _root(self, tag: str, attrs: _Attrs) -> None:
        if tag != "Workflow":
            raise ParseError(f"root element must be <Workflow>, got <{_tag(tag)}>")
        self._frame(attrs.get("name", ""))

    def _frame(self, name: str) -> None:
        if not name:
            raise ParseError("<Workflow> requires a name attribute")
        self.frame = _Frame(name)
        self.frames.append(self.frame)
        self.open = _Reader._in_workflow

    def _in_workflow(self, tag: str, attrs: _Attrs) -> None:
        if tag == "Transition":
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
                raise ParseError(
                    f"self-transition on {source!r} (use a Loop for iteration)"
                )
            edge = _tuple_new(Transition, (source, target, condition))
            self.frame.transitions.append(edge)
            self.leaf = tag
        elif tag == "Activity":
            self.name = attrs.get("name", "")
            if not self.name:
                raise ParseError("<Activity> requires a name attribute")
            self.attrs, self.implement, self.description = attrs, None, ""
            self.inputs = self.outputs = self.rethrows = ()
            self.open = _Reader._in_activity
        elif tag == "Variables":
            self.open = _Reader._in_variables
        elif tag == "Loop" or tag == "SubWorkflow":
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
            where = self.parser.CurrentByteIndex
            self.composites.append(_Composite(tag, name, attrs, where))
            self.open = _Reader._in_composite
        elif tag == "Program":
            self.program = attrs.get("name", "")
            if not self.program:
                raise ParseError("<Program> requires a name attribute")
            self.options: tuple[Option, ...] = ()
            self.open = _Reader._in_program
        else:
            raise ParseError(f"unexpected element <{_tag(tag)}> in <Workflow>")

    def _in_variables(self, tag: str, attrs: _Attrs) -> None:
        if tag != "Variable":
            raise _misplaced(tag, "Variables")
        vname = attrs.get("name", "")
        if not vname:
            raise ParseError("<Variable> requires a name attribute")
        value = _typed_value(attrs.get("value", ""), attrs.get("type", "str"))
        self.frame.variables[vname] = value
        self.leaf = tag

    def _in_activity(self, tag: str, attrs: _Attrs) -> None:
        if tag in _TEXT_ELEMENTS:
            del self.text[:]
            self.parser.CharacterDataHandler = self.collect
            self.text_element = tag
            self.open = _Reader._in_text
            return
        where = f"activity {self.name!r}"
        if tag == "Input":
            pname, ref = attrs.get("name", ""), attrs.get("ref")
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
        elif tag == "Rethrow":
            pattern, as_name = attrs.get("on", ""), attrs.get("as", "")
            if not pattern or not as_name:
                raise ParseError(f"{where}: <Rethrow> requires on and as")
            self.rethrows += (Rethrow(pattern=pattern, as_name=as_name),)
        else:
            raise ParseError(f"unexpected element <{_tag(tag)}> in {where}")
        self.leaf = tag

    def _in_text(self, tag: str, _attrs: _Attrs) -> None:
        raise _misplaced(tag, self.text_element)

    def _in_composite(self, tag: str, attrs: _Attrs) -> None:
        composite = self.composites[-1]
        if tag != "Body":
            raise _misplaced(tag, composite.tag)
        if composite.body is not None:
            raise ParseError(f"{composite.label} requires exactly one <Body>")
        self._frame(attrs.get("name", f"{composite.name}_body"))

    def _in_program(self, tag: str, attrs: _Attrs) -> None:
        where = f"program {self.program!r}"
        if tag != "Option":
            raise ParseError(f"unexpected element <{_tag(tag)}> in {where}")
        hostname = attrs.get("hostname", "")
        if not hostname:
            raise ParseError(f"{where}: <Option> requires a hostname")
        service = attrs.get("service", "jobmanager")
        directory = attrs.get("executableDir", "")
        executable = attrs.get("executable", "")
        self.options += (Option(hostname, service, directory, executable),)
        self.leaf = tag

    def close(self, tag: str) -> None:
        """End an element that was read (not skipped)."""
        if tag in _TEXT_ELEMENTS:
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
            self.open = _Reader._in_activity
        elif tag == "Workflow" or tag == "Body":
            frame = self.frames.pop()
            try:
                workflow = frame.workflow()
            except SpecificationError as exc:
                raise ParseError(str(exc)) from exc
            if self.frames:
                self.frame = self.frames[-1]
                self.composites[-1].body = workflow
                self.open = _Reader._in_composite
            self.workflow = workflow
        elif tag == "Program":
            try:
                program = Program(name=self.program, options=self.options)
            except SpecificationError as exc:
                raise ParseError(str(exc)) from exc
            if program.name in self.frame.programs:
                raise ParseError(f"duplicate program {program.name!r}")
            self.frame.programs[program.name] = program
            self.open = _Reader._in_workflow
        elif tag == "Variables":
            self.open = _Reader._in_workflow
        else:  # an activity, a loop or a sub-workflow
            node = self._activity() if tag == "Activity" else self._composite()
            if node.name in self.frame.nodes:
                raise ParseError(f"duplicate {tag.lower()} {node.name!r}")
            self.frame.nodes[node.name] = node
            self.open = _Reader._in_workflow

    def _activity(self) -> Activity:
        name, attrs = self.name, self.attrs
        try:
            # A policy that fails to parse is not kept, so the error names
            # the activity it was found on however many share its attributes.
            key = tuple(map(attrs.get, _POLICY_ATTRIBUTES))
            policy = self.policies.get(key)
            if policy is None:
                policy = self.policies[key] = _parse_policy(attrs, name)
            join = JoinMode.AND
            if "join" in attrs:
                join = _choice(attrs, "join", "and", f"node {name!r}")
        except (SpecificationError, PolicyError) as exc:
            raise ParseError(f"activity {name!r}: {exc}") from exc
        fields = (name, self.implement, policy, join, self.inputs, self.outputs)
        return _tuple_new(Activity, (*fields, self.rethrows, self.description))

    def _composite(self) -> Loop | SubWorkflow:
        composite = self.composites.pop()
        name, attrs, body = composite.name, composite.attrs, composite.body
        if body is None:
            raise ParseError(f"{composite.label} requires exactly one <Body>")
        try:
            join = _choice(attrs, "join", "and", f"node {name!r}")
            if composite.tag == "SubWorkflow":
                return SubWorkflow(name=name, body=body, join=join)
            iterations = int(attrs.get("max_iterations", "1000"))
            return Loop(name, body, attrs["condition"], iterations, join)
        except SpecificationError as exc:
            raise ParseError(f"{composite.label}: {exc}") from exc


def _misplaced(tag: str, parent: str) -> ParseError:
    """What :func:`~repro.wpdl.schema.check_vocabulary` says of *tag* inside
    *parent*, where the vocabulary does not allow it."""
    return ParseError(f"element <{_tag(tag)}> not allowed inside <{parent}>")


def _parse_policy(attrs: _Attrs, name: str) -> FailurePolicy:
    """The policy's fields are read, and checked, in the attributes' order."""
    raw_tries = attrs.get("max_tries", "1")
    try:
        max_tries = None if raw_tries in {"unlimited", "*"} else int(raw_tries)
    except ValueError:
        raise ParseError(
            f"activity {name!r}: max_tries must be an integer or "
            f"'unlimited', got {raw_tries!r}"
        ) from None
    interval = _number(attrs, "interval", "0", name)
    replication = _choice(attrs, "policy", "none", f"activity {name!r}")
    selection = _choice(attrs, "resource_selection", "same", f"activity {name!r}")
    restart = attrs.get("restart_from_checkpoint", "true").lower() != "false"
    retry = attrs.get("retry_on_exception", "false").lower() == "true"
    timeout = _number(attrs, "timeout", None, name)
    backoff = _number(attrs, "backoff", "1", name)
    ceiling = _number(attrs, "max_interval", None, name)
    fields = (max_tries, interval, replication, selection, restart, retry)
    return FailurePolicy(*fields, timeout, backoff, ceiling)


def _number(attrs: _Attrs, key: str, default: str | None, name: str) -> Any:
    raw = attrs.get(key, default)
    try:
        return None if raw is None else float(raw)
    except ValueError:
        raise ParseError(f"activity {name!r}: {key} must be a number") from None


def _choice(attrs: _Attrs, key: str, default: str, where: str) -> Any:
    members = _CHOICES[key]
    raw = attrs.get(key, default)
    if raw not in members:
        allowed = " or ".join(map(repr, members))
        raise ParseError(f"{where}: {key} must be {allowed}, got {raw!r}")
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
    except ValueError as exc:
        raise ParseError(f"cannot parse {raw!r} as {type_name}: {exc}") from exc
