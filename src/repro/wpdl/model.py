"""Workflow process model — the AST of the XML WPDL.

The paper's Workflow Process Definition Language structures an application
as a DAG of *activities* connected by *transitions*, with failure handling
woven into the structure itself:

* task-level policies (``max_tries``, ``interval``, ``policy='replica'``)
  are activity attributes (Figures 2–3);
* workflow-level handling is pure graph structure: a transition that fires
  on ``failed`` names an alternative task (Figure 4), parallel branches
  into an OR-join give workflow-level redundancy (Figure 5), and a
  transition that fires on a named exception gives user-defined exception
  handling (Figure 6);
* ``if-then-else`` is a condition expression on a transition, and
  ``do-while`` is the composite :class:`Loop` node (Section 7 lists both
  as additional WPDL features).

Everything here is immutable declarative data; runtime state lives in
:mod:`repro.engine.instance`.  What a specification has one of per node
or per edge — :class:`Activity`, :class:`Transition`,
:class:`TransitionCondition` and the compiled :class:`CompiledNode` — is a
``NamedTuple`` that the parser and the compiler mint with one
``tuple.__new__``; constructing one directly still runs its checks, and
the first three keep the equality, hash and ``repr`` of the frozen
dataclasses they were (:class:`~repro.core.records.FrozenRecord`).

Transition-condition semantics (how edges fire given the source's terminal
status) are documented on :class:`TransitionCondition` and implemented by
the navigator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Any, Mapping, NamedTuple, Union

from ..core.policy import DEFAULT_POLICY, FailurePolicy
from ..core.records import FrozenRecord
from ..errors import SpecificationError

__all__ = [
    "Option",
    "Program",
    "Parameter",
    "Rethrow",
    "JoinMode",
    "ConditionKind",
    "TransitionCondition",
    "Transition",
    "Activity",
    "Loop",
    "SubWorkflow",
    "Node",
    "CompiledNode",
    "CompiledWorkflow",
    "Workflow",
]

_tuple_new = tuple.__new__


@dataclass(frozen=True)
class Option:
    """One Grid resource option of a program (WPDL ``<Option>``).

    Mirrors Figure 2's attributes: where the executable lives and which job
    service starts it.  ``executable`` may override the program's logical
    name on a per-host basis.
    """

    hostname: str
    service: str = "jobmanager"
    executable_dir: str = ""
    executable: str = ""

    def __post_init__(self) -> None:
        if not self.hostname:
            raise SpecificationError("option requires a hostname")


@dataclass(frozen=True)
class Program:
    """A named executable with one or more resource options (``<Program>``).

    A single option means the task runs (and retries) there; multiple
    options enable retry-on-different-resources and, with
    ``policy='replica'``, task-level replication (Figure 3).
    """

    name: str
    options: tuple[Option, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecificationError("program requires a name")
        if not self.options:
            raise SpecificationError(f"program {self.name!r} has no options")

    def executable_on(self, option: Option) -> str:
        """Executable name to submit for *option* (per-host override wins)."""
        return option.executable or self.name


@dataclass(frozen=True)
class Parameter:
    """An activity input binding (``<Input>``).

    Exactly one of ``value`` (literal) or ``ref`` (value dependency on
    another activity's recorded output, Section 7's "value dependency")
    is set.
    """

    name: str
    value: Any = None
    ref: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecificationError("parameter requires a name")
        if self.ref is not None and self.value is not None:
            raise SpecificationError(
                f"parameter {self.name!r}: value and ref are mutually exclusive"
            )


@dataclass(frozen=True)
class Rethrow:
    """Exception translation on an activity (WPDL ``<Rethrow>``).

    When the activity raises an exception matching ``pattern``, the engine
    renames it to ``as_name`` *before* workflow-level routing.  This lets a
    workflow normalise the exception vocabularies of heterogeneous task
    implementations (Section 2.3: tasks have task-specific failure
    semantics) so one handler edge covers them all — e.g. translate a
    solver's ``ENOSPC`` and a transfer tool's ``quota_exceeded`` both to
    ``disk_full``.

    The most specific matching record translates, by
    :func:`repro.core.exceptions.specificity`; of equally specific ones,
    the first declared.
    """

    pattern: str
    as_name: str

    def __post_init__(self) -> None:
        if not self.pattern:
            raise SpecificationError("rethrow requires a pattern")
        if not self.as_name:
            raise SpecificationError("rethrow requires a target name")


class JoinMode(str, Enum):
    """Relationship among a node's incoming control flows.

    ``AND`` (default): the node activates when *every* incoming transition
    has fired.  ``OR``: the node activates on the *first* incoming
    transition to fire (Figure 5's "OR relationship between the incoming
    control flows").
    """

    AND = "and"
    OR = "or"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class ConditionKind(str, Enum):
    """When an outgoing transition fires, given the source's terminal status.

    - ``DONE``: fires on successful completion (the default edge).
    - ``FAILED``: fires when the source ends in a task crash failure that
      task-level recovery could not mask — the alternative-task edge of
      Figure 4.  Also fires for an exception no ``EXCEPTION`` edge matched
      (a generic catch-all, so one alternative task can cover both crash
      and exception recovery as in Figure 6's description).
    - ``EXCEPTION``: fires when the source raised a user-defined exception
      matching :attr:`TransitionCondition.exception` (most specific
      matching edge only).
    - ``EXPR``: fires on success *and* when the boolean expression over the
      workflow variables evaluates true (if-then-else).
    - ``ALWAYS``: fires on any terminal status (cleanup edges).
    """

    DONE = "done"
    FAILED = "failed"
    EXCEPTION = "exception"
    EXPR = "expr"
    ALWAYS = "always"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# The fields of each record; its defaults are its ``__new__``'s.


class _TransitionConditionFields(NamedTuple):
    kind: ConditionKind
    #: Exception name or glob pattern (``EXCEPTION`` kind only).
    exception: str
    #: Boolean expression source (``EXPR`` kind only); evaluated by
    #: :mod:`repro.wpdl.conditions` over the workflow variables.
    expr: str


class TransitionCondition(FrozenRecord, _TransitionConditionFields):
    """The firing condition attached to a transition."""

    __slots__ = ()

    def __new__(
        cls,
        kind: ConditionKind = ConditionKind.DONE,
        exception: str = "",
        expr: str = "",
    ):
        if kind is ConditionKind.EXCEPTION and not exception:
            raise SpecificationError(
                "exception transition requires an exception name/pattern"
            )
        if kind is ConditionKind.EXPR and not expr:
            raise SpecificationError("expr transition requires an expression")
        if kind is not ConditionKind.EXCEPTION and exception:
            raise SpecificationError(
                "exception pattern only valid on exception transitions"
            )
        if kind is not ConditionKind.EXPR and expr:
            raise SpecificationError("expr only valid on expr transitions")
        return _tuple_new(cls, (kind, exception, expr))

    @staticmethod
    def done() -> "TransitionCondition":
        return _DONE

    @staticmethod
    def failed() -> "TransitionCondition":
        return _FAILED

    @staticmethod
    def on_exception(pattern: str) -> "TransitionCondition":
        return TransitionCondition(ConditionKind.EXCEPTION, exception=pattern)

    @staticmethod
    def when(expr: str) -> "TransitionCondition":
        return TransitionCondition(ConditionKind.EXPR, expr=expr)

    @staticmethod
    def always() -> "TransitionCondition":
        return _ALWAYS


#: The conditions without attributes of their own are three immutable
#: values, shared by every transition of every specification that uses them.
_DONE = TransitionCondition(ConditionKind.DONE)
_FAILED = TransitionCondition(ConditionKind.FAILED)
_ALWAYS = TransitionCondition(ConditionKind.ALWAYS)


class _TransitionFields(NamedTuple):
    source: str
    target: str
    condition: TransitionCondition


class Transition(FrozenRecord, _TransitionFields):
    """A directed control-flow edge between two nodes."""

    __slots__ = ()

    def __new__(cls, source: str, target: str, condition: TransitionCondition = _DONE):
        if not source or not target:
            raise SpecificationError("transition requires source and target")
        if source == target:
            raise SpecificationError(
                f"self-transition on {source!r} (use a Loop for iteration)"
            )
        return _tuple_new(cls, (source, target, condition))


class _ActivityFields(NamedTuple):
    name: str
    implement: str | None
    policy: FailurePolicy
    join: JoinMode
    inputs: tuple[Parameter, ...]
    outputs: tuple[str, ...]
    #: Exception translations applied before workflow-level routing.
    rethrows: tuple[Rethrow, ...]
    #: Free-form description (documentation only).
    description: str


class Activity(FrozenRecord, _ActivityFields):
    """A workflow task (WPDL ``<Activity>``).

    ``implement`` names the :class:`Program` executing this activity; a
    ``None`` implement makes it a *dummy* task (the Dummy_Split_Task /
    Dummy_Join_Task of Figure 5) that completes instantly without a Grid
    submission.

    ``policy`` carries the task-level failure handling configuration;
    ``join`` the incoming-flow relationship; ``inputs`` and ``outputs`` the
    data bindings used by value dependencies and expression conditions.
    """

    __slots__ = ()

    def __new__(
        cls,
        name: str,
        implement: str | None = None,
        policy: FailurePolicy = DEFAULT_POLICY,
        join: JoinMode = JoinMode.AND,
        inputs: tuple[Parameter, ...] = (),
        outputs: tuple[str, ...] = (),
        rethrows: tuple[Rethrow, ...] = (),
        description: str = "",
    ):
        if not name:
            raise SpecificationError("activity requires a name")
        # What WPDL could not write back: an empty <Implement> reads as a
        # dummy, an empty <Output> is refused, and both are read stripped.
        if implement == "":
            raise SpecificationError(
                f"activity {name!r}: implement is '' (a dummy's is None)"
            )
        if "" in outputs:
            raise SpecificationError(f"activity {name!r}: empty output name")
        for text in (implement or "", *outputs):
            if text != text.strip():
                padded = f"activity {name!r}: {text!r} begins or ends with whitespace"
                raise SpecificationError(padded)
        return _tuple_new(
            cls,
            (name, implement, policy, join, inputs, outputs, rethrows, description),
        )

    @property
    def dummy(self) -> bool:
        return self.implement is None


@dataclass(frozen=True)
class Loop:
    """A do-while composite node (Section 7's "loop structure").

    The loop activates like an activity; each iteration runs a fresh
    instance of ``body``.  After an iteration completes successfully the
    ``condition`` expression is evaluated over the workflow variables
    (which include the body's outputs); while true, another iteration runs.
    ``max_iterations`` bounds runaway loops; exceeding it fails the loop
    node.  A failed body iteration fails the loop node (its failure can
    then be handled by workflow-level edges, like any task failure).
    """

    name: str
    body: "Workflow"
    condition: str
    max_iterations: int = 1000
    join: JoinMode = JoinMode.AND

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecificationError("loop requires a name")
        if not self.condition:
            raise SpecificationError(f"loop {self.name!r} requires a condition")
        if self.max_iterations < 1:
            raise SpecificationError(
                f"loop {self.name!r}: max_iterations must be >= 1"
            )


@dataclass(frozen=True)
class SubWorkflow:
    """A hierarchical composite node: run ``body`` once as a child workflow.

    Grid applications are "multi-task applications" assembled from parts;
    sub-workflows let a part be developed, validated and failure-hardened
    on its own, then dropped into a larger DAG as a single node.  The node
    completes when the body workflow completes; a failed body fails the
    node — which the enclosing structure can then handle like any task
    failure (alternative sub-workflow, OR-join redundancy, ...).  The
    body's outputs merge into the enclosing workflow's variables.
    """

    name: str
    body: "Workflow"
    join: JoinMode = JoinMode.AND

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecificationError("subworkflow requires a name")


Node = Union[Activity, Loop, SubWorkflow]


class CompiledNode(NamedTuple):
    """What navigating to, launching and completing one node needs, derived
    once per specification.  Edge fields are indices into
    ``Workflow.transitions``, in specification order."""

    incoming: tuple[int, ...]
    outgoing: tuple[int, ...]
    #: Source of each incoming edge / target of each outgoing edge.
    feeders: tuple[str, ...]
    targets: tuple[str, ...]
    indegree: int
    or_join: bool
    #: Every outgoing edge is ``DONE`` or ``ALWAYS``: plain success fires
    #: them all, no condition to look at.
    plain_success: bool
    node: Node
    #: What a composite runs: the loop itself, or the run-once loop a
    #: sub-workflow stands for.  ``None`` for activities.
    loop: Loop | None
    #: The activity's program; ``None`` for dummies, composites, and an
    #: ``implement`` naming no program (``program_for`` raises at launch).
    program: Program | None
    #: Some input is a value dependency, so launching has to bind it.
    has_refs: bool
    outputs: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class CompiledWorkflow:
    """Everything that follows from a :class:`Workflow`'s nodes, transitions
    and programs alone — the one derivation of the graph.  Shared by every
    instance, validation pass and loop iteration of the specification;
    nothing here is per run, and nothing here may be mutated."""

    #: Per-node records, in specification order.
    nodes: Mapping[str, CompiledNode]
    #: Target node of each transition.
    edge_targets: tuple[str, ...]
    entries: tuple[str, ...]
    exits: tuple[str, ...]


_PLAIN_SUCCESS = (ConditionKind.DONE, ConditionKind.ALWAYS)


def _compile(workflow: "Workflow") -> CompiledWorkflow:
    incoming: dict[str, list[int]] = {name: [] for name in workflow.nodes}
    outgoing: dict[str, list[int]] = {name: [] for name in workflow.nodes}
    sources: list[str] = []
    targets: list[str] = []
    conditional: set[str] = set()
    for i, (source, target, condition) in enumerate(workflow.transitions):
        sources.append(source)
        targets.append(target)
        try:
            outgoing[source].append(i)
            incoming[target].append(i)
        except KeyError as exc:
            raise SpecificationError(
                f"workflow {workflow.name!r}: transition {source!r} -> "
                f"{target!r} references unknown node {exc.args[0]!r}"
            ) from None
        if condition.kind not in _PLAIN_SUCCESS:
            conditional.add(source)
    programs = workflow.programs
    nodes: dict[str, CompiledNode] = {}
    for name, node in workflow.nodes.items():
        ins, outs = incoming[name], outgoing[name]
        loop = program = None
        has_refs, outputs = False, ()
        if isinstance(node, Activity):
            outputs = node.outputs
            if node.implement is not None:
                program = programs.get(node.implement)
            if node.inputs:
                has_refs = any(p.ref is not None for p in node.inputs)
        elif isinstance(node, SubWorkflow):
            # A run-once composite: a do-while whose condition is false.
            loop = Loop(node.name, node.body, "0 > 1", 1, node.join)
        else:
            loop = node
        nodes[name] = _tuple_new(
            CompiledNode,
            (
                tuple(ins),
                tuple(outs),
                tuple(map(sources.__getitem__, ins)),
                tuple(map(targets.__getitem__, outs)),
                len(ins),
                node.join is JoinMode.OR,
                name not in conditional,
                node,
                loop,
                program,
                has_refs,
                outputs,
            ),
        )
    return CompiledWorkflow(
        nodes=MappingProxyType(nodes),
        edge_targets=tuple(targets),
        entries=tuple([n for n, ins in incoming.items() if not ins]),
        exits=tuple([n for n, outs in outgoing.items() if not outs]),
    )


@dataclass(frozen=True)
class Workflow:
    """A complete workflow process definition.

    ``nodes`` maps node name → :class:`Activity` or :class:`Loop`;
    ``transitions`` is the control-flow edge list; ``programs`` the
    executable definitions; ``variables`` the initial workflow variables
    (extended at runtime with each activity's outputs).

    Construction performs only local checks; run
    :func:`repro.wpdl.validator.validate` (done automatically by the
    builder and parser) for whole-graph validation.

    **Immutability contract.**  ``nodes``, ``transitions`` and ``programs``
    must not be mutated once the workflow is constructed: the graph is
    compiled once, on first use (:attr:`compiled`), and every instance,
    validation pass and loop iteration then reads that one derivation.
    """

    name: str
    nodes: dict[str, Node] = field(default_factory=dict)
    transitions: tuple[Transition, ...] = ()
    programs: dict[str, Program] = field(default_factory=dict)
    variables: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecificationError("workflow requires a name")
        for kind, table in (("node", self.nodes), ("program", self.programs)):
            for name, record in table.items():  # WPDL keys each by its name
                if name != record.name:
                    raise SpecificationError(
                        f"{kind} key {name!r} does not match {kind} name "
                        f"{record.name!r}"
                    )

    # -- the compiled form ---------------------------------------------------

    @cached_property
    def compiled(self) -> CompiledWorkflow:
        """The graph compiled once (see the immutability contract).  Cached
        on the instance, outside its fields: ``==``, ``repr`` and the
        serializer never see it.  Raises :class:`SpecificationError` for a
        transition whose endpoint is not a node."""
        return _compile(self)

    def __getstate__(self) -> dict[str, Any]:
        # Copies and pickles carry the specification, not what follows from it.
        state = dict(self.__dict__)
        state.pop("compiled", None)
        return state

    def with_variables(self, name: str, variables: dict[str, Any]) -> "Workflow":
        """The same graph under another name and initial variables (one
        loop iteration's body), sharing this workflow's compiled form."""
        clone = Workflow(name, self.nodes, self.transitions, self.programs, variables)
        clone.__dict__["compiled"] = self.compiled
        return clone

    # -- graph queries ------------------------------------------------------

    def node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise SpecificationError(
                f"workflow {self.name!r} has no node {name!r}"
            ) from None

    def incoming(self, name: str) -> list[Transition]:
        node = self.compiled.nodes.get(name)
        return [self.transitions[i] for i in node.incoming] if node else []

    def outgoing(self, name: str) -> list[Transition]:
        node = self.compiled.nodes.get(name)
        return [self.transitions[i] for i in node.outgoing] if node else []

    def entry_nodes(self) -> list[str]:
        """Nodes with no incoming transitions (workflow starts here)."""
        return list(self.compiled.entries)

    def exit_nodes(self) -> list[str]:
        """Nodes with no outgoing transitions (workflow outcome depends on
        these reaching completion)."""
        return list(self.compiled.exits)

    def activities(self) -> list[Activity]:
        return [n for n in self.nodes.values() if isinstance(n, Activity)]

    def loops(self) -> list[Loop]:
        return [n for n in self.nodes.values() if isinstance(n, Loop)]

    def program_for(self, activity: Activity) -> Program | None:
        """The program implementing *activity* (None for dummies)."""
        if activity.implement is None:
            return None
        program = self.programs.get(activity.implement)
        if program is None:
            raise SpecificationError(
                f"activity {activity.name!r} implements unknown program "
                f"{activity.implement!r}"
            )
        return program
