"""Fluent Python builder for workflow process definitions.

The XML WPDL (:mod:`repro.wpdl.parser`) is the faithful external format;
this builder is the programmatic way to construct the same model —
convenient for tests, examples and generated workflows::

    wf = (
        WorkflowBuilder("fig4")
        .program("fast", options=[Option("unreliable.example.org")])
        .program("slow", options=[Option("reliable.example.org")])
        .activity("Fast_Unreliable_Task", implement="fast")
        .activity("Slow_Reliable_Task", implement="slow")
        .activity("Join_Task", join=JoinMode.OR)
        .transition("Fast_Unreliable_Task", "Join_Task")            # done
        .on_failure("Fast_Unreliable_Task", "Slow_Reliable_Task")   # alt task
        .transition("Slow_Reliable_Task", "Join_Task")
        .build()
    )

``build()`` validates and returns an immutable
:class:`~repro.wpdl.model.Workflow`.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..core.policy import DEFAULT_POLICY, FailurePolicy
from ..errors import SpecificationError
from .model import (
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

__all__ = ["WorkflowBuilder"]


class WorkflowBuilder:
    """Accumulates nodes, transitions and programs, then validates."""

    def __init__(self, name: str) -> None:
        self._name = name
        self._nodes: dict[str, Any] = {}
        self._transitions: list[Transition] = []
        self._programs: dict[str, Program] = {}
        self._variables: dict[str, Any] = {}

    # -- programs ------------------------------------------------------------

    def program(
        self, name: str, options: Iterable[Option] | None = None,
        *, hosts: Iterable[str] | None = None,
    ) -> "WorkflowBuilder":
        """Define a program.  Pass full ``options`` or just ``hosts`` (each
        becoming an option with defaults)."""
        if name in self._programs:
            raise SpecificationError(f"duplicate program {name!r}")
        opts: list[Option] = list(options or [])
        for hostname in hosts or []:
            opts.append(Option(hostname=hostname))
        self._programs[name] = Program(name=name, options=tuple(opts))
        return self

    # -- nodes ------------------------------------------------------------------

    def activity(
        self,
        name: str,
        *,
        implement: str | None = None,
        policy: FailurePolicy = DEFAULT_POLICY,
        join: JoinMode = JoinMode.AND,
        inputs: Iterable[Parameter] | None = None,
        outputs: Iterable[str] | None = None,
        rethrows: Iterable[Rethrow] | None = None,
        description: str = "",
    ) -> "WorkflowBuilder":
        self._add_node(
            Activity(
                name=name,
                implement=implement,
                policy=policy,
                join=join,
                inputs=tuple(inputs or ()),
                outputs=tuple(outputs or ()),
                rethrows=tuple(rethrows or ()),
                description=description,
            )
        )
        return self

    def dummy(self, name: str, *, join: JoinMode = JoinMode.AND) -> "WorkflowBuilder":
        """A no-op task (Figure 5's dummy split/join)."""
        return self.activity(name, implement=None, join=join)

    def loop(
        self,
        name: str,
        body: Workflow,
        condition: str,
        *,
        max_iterations: int = 1000,
        join: JoinMode = JoinMode.AND,
    ) -> "WorkflowBuilder":
        self._add_node(
            Loop(
                name=name,
                body=body,
                condition=condition,
                max_iterations=max_iterations,
                join=join,
            )
        )
        return self

    def subworkflow(
        self,
        name: str,
        body: Workflow,
        *,
        join: JoinMode = JoinMode.AND,
    ) -> "WorkflowBuilder":
        """Embed *body* as a single composite node (runs once)."""
        self._add_node(SubWorkflow(name=name, body=body, join=join))
        return self

    def _add_node(self, node: Any) -> None:
        if node.name in self._nodes:
            raise SpecificationError(f"duplicate node {node.name!r}")
        self._nodes[node.name] = node

    # -- variables ------------------------------------------------------------------

    def variable(self, name: str, value: Any) -> "WorkflowBuilder":
        """Declare an initial workflow variable."""
        self._variables[name] = value
        return self

    # -- transitions ------------------------------------------------------------------

    def transition(
        self,
        source: str,
        target: str,
        condition: TransitionCondition | None = None,
    ) -> "WorkflowBuilder":
        self._transitions.append(
            Transition(
                source=source,
                target=target,
                condition=condition or TransitionCondition.done(),
            )
        )
        return self

    def on_failure(self, source: str, handler: str) -> "WorkflowBuilder":
        """Alternative-task edge (Figure 4): run *handler* when *source*'s
        failure could not be masked at the task level."""
        return self.transition(source, handler, TransitionCondition.failed())

    def on_exception(self, source: str, pattern: str, handler: str) -> "WorkflowBuilder":
        """User-defined exception handler edge (Figure 6)."""
        return self.transition(
            source, handler, TransitionCondition.on_exception(pattern)
        )

    def when(self, source: str, expr: str, target: str) -> "WorkflowBuilder":
        """Conditional edge (if-then-else)."""
        return self.transition(source, target, TransitionCondition.when(expr))

    def always(self, source: str, target: str) -> "WorkflowBuilder":
        """Cleanup edge: fires on any terminal status of *source*."""
        return self.transition(source, target, TransitionCondition.always())

    def sequence(self, *names: str) -> "WorkflowBuilder":
        """Chain done-edges through *names* in order."""
        for source, target in zip(names, names[1:]):
            self.transition(source, target)
        return self

    def fan_out(self, source: str, *targets: str) -> "WorkflowBuilder":
        """Done-edges from *source* to each target (parallel split)."""
        for target in targets:
            self.transition(source, target)
        return self

    def fan_in(self, target: str, *sources: str) -> "WorkflowBuilder":
        """Done-edges from each source to *target* (join; set the target's
        ``join`` mode to OR for redundancy semantics)."""
        for source in sources:
            self.transition(source, target)
        return self

    # -- redundancy helper (Figure 5) ----------------------------------------------------

    def redundant(
        self,
        split: str,
        join: str,
        *branches: str,
    ) -> "WorkflowBuilder":
        """Wire workflow-level redundancy: *split* fans out to every branch,
        all branches fan into *join*, which must already be declared with
        ``join=JoinMode.OR``."""
        node = self._nodes.get(join)
        if node is None or node.join is not JoinMode.OR:
            raise SpecificationError(
                f"redundant(): join node {join!r} must exist with JoinMode.OR"
            )
        self.fan_out(split, *branches)
        self.fan_in(join, *branches)
        return self

    # -- build ----------------------------------------------------------------------------

    def build(self, *, validate_graph: bool = True) -> Workflow:
        workflow = Workflow(
            name=self._name,
            nodes=dict(self._nodes),
            transitions=tuple(self._transitions),
            programs=dict(self._programs),
            variables=dict(self._variables),
        )
        if validate_graph:
            validate(workflow)
        return workflow
