"""Whole-graph validation of workflow process definitions.

Run after parsing or building.  Checks, per workflow level (loop bodies are
validated recursively):

* structural sanity — nonempty graph, transitions reference existing nodes,
  activities implement existing programs, node names unique per level;
* acyclicity — the control-flow graph is a DAG (iteration must use
  :class:`~repro.wpdl.model.Loop`, not back-edges).  This is also what
  makes every node reachable: following predecessors from any node of a
  DAG ends at a node without any, an entry node, so no orphaned island
  can exist once no cycle does;
* policy consistency — ``policy='replica'`` needs at least two resource
  options; retry rotation needs a program to rotate within; exponential
  backoff needs a base interval to grow from and a cap no smaller than it;
* condition well-formedness — every EXPR/loop condition compiles in the
  safe expression subset;
* value dependencies — every ``ref`` parameter names a node or a declared
  variable.

Violations are collected and raised together in one
:class:`~repro.errors.ValidationError`, so users fix a specification in one
pass.
"""

from __future__ import annotations

from ..core.policy import ReplicationMode
from ..errors import SpecificationError, ValidationError
from .conditions import compile_condition
from .model import (
    Activity,
    CompiledWorkflow,
    ConditionKind,
    Loop,
    SubWorkflow,
    Transition,
    Workflow,
)

__all__ = ["validate", "validation_problems"]


def validate(workflow: Workflow) -> Workflow:
    """Validate *workflow*; returns it unchanged on success.

    Raises :class:`ValidationError` listing every problem found.
    """
    problems = validation_problems(workflow)
    if problems:
        bullet_list = "\n".join(f"  - {p}" for p in problems)
        raise ValidationError(
            f"workflow {workflow.name!r} is invalid:\n{bullet_list}"
        )
    return workflow


def validation_problems(workflow: Workflow, *, _path: str = "") -> list[str]:
    """All problems with *workflow* (empty list when valid)."""
    prefix = f"{_path}{workflow.name}"
    problems: list[str] = []

    if not workflow.nodes:
        problems.append(f"{prefix}: workflow has no nodes")
        return problems

    nodes = workflow.nodes

    # -- transitions ---------------------------------------------------------
    # A condition's exception and expr exclude each other, so an edge's
    # fields are its duplicate key (source, target, kind, exception or expr).
    seen_edges: set[Transition] = set()
    broken = False  # some endpoint is not a node
    for edge in workflow.transitions:
        source, target, condition = edge
        if source not in nodes:
            problems.append(
                f"{prefix}: transition references unknown source {source!r}"
            )
            broken = True
        if target not in nodes:
            problems.append(
                f"{prefix}: transition references unknown target {target!r}"
            )
            broken = True
        if edge in seen_edges:
            problems.append(
                f"{prefix}: duplicate transition {source!r} -> {target!r} "
                f"({condition.kind.value})"
            )
        seen_edges.add(edge)
        if condition.kind is ConditionKind.EXPR:
            try:
                compile_condition(condition.expr)
            except SpecificationError as exc:
                problems.append(f"{prefix}: {exc}")

    # -- nodes ------------------------------------------------------------------
    declared_outputs: set[str] = set(workflow.variables)
    declared_outputs.update(nodes)
    with_inputs: list[Activity] = []
    for node in nodes.values():
        if isinstance(node, Activity):
            declared_outputs.update(node.outputs)
            if node.inputs:
                with_inputs.append(node)
            problems.extend(_check_activity(workflow, node, prefix))
        elif isinstance(node, Loop):
            try:
                compile_condition(node.condition)
            except SpecificationError as exc:
                problems.append(f"{prefix}: loop {node.name!r}: {exc}")
            problems.extend(
                validation_problems(node.body, _path=f"{prefix}/")
            )
        elif isinstance(node, SubWorkflow):
            problems.extend(
                validation_problems(node.body, _path=f"{prefix}/")
            )

    # -- value dependencies ---------------------------------------------------------
    for node in with_inputs:
        for param in node.inputs:
            if param.ref is not None and param.ref not in declared_outputs:
                problems.append(
                    f"{prefix}: activity {node.name!r} input "
                    f"{param.name!r} references unknown output {param.ref!r}"
                )

    # -- graph shape -----------------------------------------------------------------
    if broken:
        return problems  # skip graph analyses on a broken edge list

    # Every endpoint is a node: the compiled form (the one derivation of
    # the graph, which the engine will navigate by) can be asked for.
    if not _acyclic(workflow.compiled):
        cycle = _find_cycle(workflow)
        problems.append(
            f"{prefix}: control flow contains a cycle: {' -> '.join(cycle)} "
            "(use a Loop node for iteration)"
        )
    return problems


def _check_activity(workflow: Workflow, activity: Activity, prefix: str) -> list[str]:
    problems: list[str] = []
    program = None
    if activity.implement is not None:
        program = workflow.programs.get(activity.implement)
        if program is None:
            problems.append(
                f"{prefix}: activity {activity.name!r} implements unknown "
                f"program {activity.implement!r}"
            )
    if activity.policy.replication is ReplicationMode.REPLICA:
        if program is None:
            problems.append(
                f"{prefix}: activity {activity.name!r} uses policy='replica' "
                "but has no program"
            )
        elif len(program.options) < 2:
            problems.append(
                f"{prefix}: activity {activity.name!r} uses policy='replica' "
                f"but program {program.name!r} has only "
                f"{len(program.options)} resource option"
            )
    if activity.dummy and activity.policy.replication is ReplicationMode.REPLICA:
        problems.append(
            f"{prefix}: dummy activity {activity.name!r} cannot be replicated"
        )
    policy = activity.policy
    if policy.uses_backoff and policy.interval == 0.0:
        problems.append(
            f"{prefix}: activity {activity.name!r} declares backoff="
            f"{policy.backoff_factor:g} but interval=0 (nothing to grow)"
        )
    if (
        policy.max_interval is not None
        and policy.max_interval < policy.interval
    ):
        problems.append(
            f"{prefix}: activity {activity.name!r} has max_interval="
            f"{policy.max_interval:g} below interval={policy.interval:g}"
        )
    return problems


def _acyclic(compiled: CompiledWorkflow) -> bool:
    """Whether the graph is a DAG (Kahn's algorithm: every node's incoming
    edges can be removed in some order)."""
    nodes = compiled.nodes
    waiting = {name: node.indegree for name, node in nodes.items()}
    ready = list(compiled.entries)
    removed = 0
    while ready:
        removed += 1
        for target in nodes[ready.pop()].targets:
            waiting[target] -= 1
            if not waiting[target]:
                ready.append(target)
    return removed == len(nodes)


def _find_cycle(workflow: Workflow) -> list[str] | None:
    """Return one cycle as a node list, or None when acyclic (iterative DFS
    with colouring; recursion-free so deep graphs cannot blow the stack).
    Run only to name the cycle :func:`_acyclic` found."""
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {name: WHITE for name in workflow.nodes}
    compiled = workflow.compiled.nodes
    parent: dict[str, str] = {}

    for root in workflow.nodes:
        if colour[root] != WHITE:
            continue
        stack: list[tuple[str, int]] = [(root, 0)]
        colour[root] = GREY
        while stack:
            node, idx = stack[-1]
            targets = compiled[node].targets
            if idx < len(targets):
                stack[-1] = (node, idx + 1)
                child = targets[idx]
                if colour[child] == GREY:
                    # Reconstruct the cycle from the grey path.
                    cycle = [child, node]
                    cur = node
                    while cur != child and cur in parent:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    return cycle
                if colour[child] == WHITE:
                    colour[child] = GREY
                    parent[child] = node
                    stack.append((child, 0))
            else:
                colour[node] = BLACK
                stack.pop()
    return None

