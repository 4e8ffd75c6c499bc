"""XML WPDL serializer — the inverse of :mod:`repro.wpdl.parser`.

Used for round-tripping specifications and by the engine's own checkpoints
(Section 7: "the engine saves the current XML parse tree onto a persistent
storage in a XML file form").  The text is written in one walk over the
model, with no element tree in between, and only non-default attributes are
written, so round-tripped WPDL stays diff-friendly.  ``serialize → parse``
is the identity on the model (property-tested).
"""

from __future__ import annotations

import re
from typing import Any, Callable

from ..core.policy import FailurePolicy, ReplicationMode, ResourceSelection
from ..errors import SpecificationError
from .model import Activity, ConditionKind, JoinMode, Loop, SubWorkflow, Workflow

__all__ = ["serialize_wpdl"]

#: A value without these characters (nearly every value) is written as it is.
#: An attribute escapes all of them, as ``ET.tostring`` does; text escapes
#: ``&<>``, and pretty text quotes too, as ``xml.dom.minidom`` did, and
#: both write ``\r`` as a reference (a parser reads a bare one as ``\n``).
#: Each table maps one character at a time, so an ``&`` it writes is never
#: escaped again.
_MARKUP = re.compile('[&<>"\r\n\t]').search
_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"}
_TEXT = str.maketrans(_ESCAPES)
_PRETTY_TEXT = str.maketrans({**_ESCAPES, '"': "&quot;"})
_ATTRIBUTE = str.maketrans({**_ESCAPES, '"': "&quot;", "\n": "&#10;", "\t": "&#09;"})


def serialize_wpdl(workflow: Workflow, *, pretty: bool = True) -> str:
    """Render *workflow* as an XML WPDL document string: one element a
    line, indented two spaces a level, or compact, as ``ET.tostring``
    writes an element tree."""
    writer = _Writer("  ", "/>", _PRETTY_TEXT) if pretty else _Writer("", " />", _TEXT)
    writer.workflow(workflow, "Workflow", "")
    if not pretty:
        return "".join(writer.out)
    return '<?xml version="1.0" ?>\n' + "\n".join(writer.out) + "\n"


def _attribute(value: str) -> str:
    """*value* escaped for a double-quoted attribute."""
    return value.translate(_ATTRIBUTE) if _MARKUP(value) else value


class _Memo(dict):
    """``memo[key]`` is ``make(key)``, made once per walk (names recur)."""

    def __init__(self, make: Callable[[Any], str]) -> None:
        self.make = make

    def __missing__(self, key: Any) -> str:
        value = self[key] = self.make(key)
        return value


class _Writer:
    """One walk: each element, as a line or a part, goes to :attr:`out`.
    An element without content closes with *empty*; an element with text
    and no children takes one entry."""

    def __init__(self, step: str, empty: str, table: dict[int, str]) -> None:
        self.step, self.empty, self.out = step, empty, []
        self.quoted = _Memo(_attribute)
        self.texts = _Memo(lambda v: v.translate(table) if _MARKUP(v) else v)
        #: A policy's attributes by its identity: activities share policies.
        self.policies: dict[int, str] = {}

    def text(self, pad: str, tag: str, value: str) -> None:
        """*value* is never empty: a model holds no empty implement or
        output name, and an empty description is not written."""
        self.out.append(f"{pad}<{tag}>{self.texts[value]}</{tag}>")

    def workflow(self, workflow: Workflow, tag: str, pad: str) -> None:
        out, step, empty, q = self.out, self.step, self.empty, self.quoted
        head = f'{pad}<{tag} name="{q[workflow.name]}"'
        variables, programs = workflow.variables, workflow.programs
        if not (variables or workflow.nodes or workflow.transitions or programs):
            out.append(head + empty)
            return
        out.append(head + ">")
        inner = pad + step
        if variables:
            out.append(f"{inner}<Variables>")
            for name, value in variables.items():
                typed = _typed(value, f"variable {name!r}")
                out.append(f'{inner}{step}<Variable name="{q[name]}"{typed}{empty}')
            out.append(f"{inner}</Variables>")
        for node in workflow.nodes.values():
            if isinstance(node, Activity):
                self.activity(node, inner)
            else:
                self.composite(node, inner)
        for source, target, condition in workflow.transitions:
            edge = f'{inner}<Transition from="{q[source]}" to="{q[target]}"'
            kind = condition.kind
            if kind is ConditionKind.EXPR:
                edge += f' condition="{q[condition.expr]}"'
            elif kind is ConditionKind.EXCEPTION:
                edge += f' on="exception" exception="{q[condition.exception]}"'
            elif kind is not ConditionKind.DONE:
                edge += f' on="{kind.value}"'
            out.append(edge + empty)
        for program in programs.values():
            out.append(f'{inner}<Program name="{q[program.name]}">')
            for option in program.options:
                attrs = f'hostname="{q[option.hostname]}"'
                if option.service != "jobmanager":
                    attrs += f' service="{q[option.service]}"'
                if option.executable_dir:
                    attrs += f' executableDir="{q[option.executable_dir]}"'
                if option.executable:
                    attrs += f' executable="{q[option.executable]}"'
                out.append(f"{inner}{step}<Option {attrs}{empty}")
            out.append(f"{inner}</Program>")
        out.append(f"{pad}</{tag}>")

    def activity(self, activity: Activity, pad: str) -> None:
        name, implement, policy, join, inputs, outputs, rethrows, about = activity
        q = self.quoted
        attrs = self.policies.get(id(policy))
        if attrs is None:
            attrs = self.policies[id(policy)] = _policy(policy)
        head = f'{pad}<Activity name="{q[name]}"{attrs}'
        if join is not JoinMode.AND:
            head += f' join="{join.value}"'
        if not (about or inputs or outputs or rethrows or implement is not None):
            self.out.append(head + self.empty)
            return
        out, inner, empty = self.out, pad + self.step, self.empty
        out.append(head + ">")
        if about:
            self.text(inner, "Description", about)
        for param in inputs:
            if param.ref is not None:
                attrs = f' ref="{q[param.ref]}"'
            else:
                attrs = _typed(param.value, f"activity {name!r} input {param.name!r}")
            out.append(f'{inner}<Input name="{q[param.name]}"{attrs}{empty}')
        for output in outputs:
            self.text(inner, "Output", output)
        for rethrow in rethrows:
            on, as_name = q[rethrow.pattern], q[rethrow.as_name]
            out.append(f'{inner}<Rethrow on="{on}" as="{as_name}"{empty}')
        if implement is not None:
            self.text(inner, "Implement", implement)
        out.append(f"{pad}</Activity>")

    def composite(self, node: Loop | SubWorkflow, pad: str) -> None:
        """A ``<Loop>`` or a ``<SubWorkflow>`` and its ``<Body>``."""
        q = self.quoted
        head = f'{pad}<{type(node).__name__} name="{q[node.name]}"'
        if isinstance(node, Loop):
            head += f' condition="{q[node.condition]}"'
            if node.max_iterations != 1000:
                head += f' max_iterations="{node.max_iterations}"'
        if node.join is not JoinMode.AND:
            head += f' join="{node.join.value}"'
        self.out.append(head + ">")
        self.workflow(node.body, "Body", pad + self.step)
        self.out.append(f"{pad}</{type(node).__name__}>")


def _policy(policy: FailurePolicy) -> str:
    """The policy's non-default attributes, in the order they are read."""
    attrs = ""
    if policy.max_tries is None:
        attrs += ' max_tries="unlimited"'
    elif policy.max_tries != 1:
        attrs += f' max_tries="{policy.max_tries}"'
    if policy.interval != 0.0:
        attrs += f' interval="{policy.interval!r}"'
    if policy.backoff_factor != 1.0:
        attrs += f' backoff="{policy.backoff_factor!r}"'
    if policy.max_interval is not None:
        attrs += f' max_interval="{policy.max_interval!r}"'
    if policy.replication is not ReplicationMode.NONE:
        attrs += f' policy="{policy.replication.value}"'
    if policy.resource_selection is not ResourceSelection.SAME:
        attrs += f' resource_selection="{policy.resource_selection.value}"'
    if not policy.restart_from_checkpoint:
        attrs += ' restart_from_checkpoint="false"'
    if policy.retry_on_exception:
        attrs += ' retry_on_exception="true"'
    if policy.attempt_timeout is not None:
        attrs += f' timeout="{policy.attempt_timeout!r}"'
    return attrs


def _typed(value: Any, context: str) -> str:
    """A literal's ``value`` and ``type`` attributes."""
    if value is None:
        return ' value="" type="none"'
    if isinstance(value, bool):
        return f' value="{"true" if value else "false"}" type="bool"'
    if isinstance(value, (int, float)):
        kind = "int" if isinstance(value, int) else "float"
        return f' value="{_attribute(repr(value))}" type="{kind}"'
    if isinstance(value, str):
        return f' value="{_attribute(value)}" type="str"'
    raise SpecificationError(
        f"{context}: cannot serialise value of type {type(value).__name__}"
    )
