"""Workflow navigation: join logic, edge firing, skip propagation, outcome.

Pure functions over a :class:`~repro.engine.instance.WorkflowInstance` — no
submission, no timers — so the semantics are unit-testable in isolation and
identical whether the engine runs on the simulated Grid or on real threads.
The graph they walk is the specification's shared compiled form
(``instance.compiled``); the instance contributes status only, and every
name handed in must be one of its nodes.

Semantics implemented here (see the module docs of
:mod:`repro.wpdl.model` for the language-level description):

* **Joins.**  An AND node becomes ready when every incoming edge has FIRED;
  it becomes unreachable (skipped) as soon as any incoming edge is dead.
  An OR node becomes ready on the first incoming FIRED edge and is skipped
  only when *all* incoming edges are dead (Figure 5's redundancy).
* **Edge firing.**  When a node terminates, each outgoing edge resolves per
  its condition and the terminal status; exception edges fire by
  :func:`repro.core.exceptions.specificity`, with FAILED edges as the
  generic catch-all for unmatched exceptions.
* **Skip propagation.**  Dead edges make downstream nodes unreachable;
  skipping a node kills its outgoing edges with the same benignity; this
  iterates to a fixpoint.
* **Outcome.**  The workflow succeeds iff every exit node is DONE or
  SKIPPED_OK.  (A benign skip of an exit node is an untaken handler branch;
  an erroneous skip means an uncompensated failure upstream.)
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from ..core.exceptions import UserException, specificity
from ..errors import NavigationError
from ..wpdl.conditions import evaluate_condition
from ..wpdl.model import ConditionKind
from .instance import EdgeState, NodeStatus, WorkflowInstance, WorkflowStatus

__all__ = [
    "ready_nodes",
    "fire_outgoing_edges",
    "propagate_skips",
    "irrelevant_running_nodes",
    "cancel_node",
    "evaluate_outcome",
    "assert_no_deadlock",
]


def ready_nodes(
    instance: WorkflowInstance,
    candidates: "Iterable[str] | None" = None,
) -> list[str]:
    """PENDING nodes whose join condition is now satisfied, in spec order.

    *candidates* restricts the scan (incremental navigation: only targets
    of freshly fired edges can become ready); ``None`` scans every node.
    Duplicates in *candidates* are tolerated; output has no duplicates.
    """
    compiled = instance.compiled.nodes
    nodes = instance.nodes
    fired_in = instance.fired_in
    ready: list[str] = []
    seen: set[str] = set()
    for name in nodes if candidates is None else candidates:
        if name in seen:
            continue
        seen.add(name)
        if nodes[name].status is not NodeStatus.PENDING:
            continue
        node = compiled[name]
        # An AND join needs every incoming edge fired (an entry node has
        # none to wait for), an OR join the first.
        need = node.indegree
        if node.or_join and need > 1:
            need = 1
        if fired_in[name] >= need:
            ready.append(name)
    return ready


def fire_outgoing_edges(
    instance: WorkflowInstance,
    name: str,
    status: NodeStatus,
    exception: UserException | None = None,
) -> list[int]:
    """Resolve every outgoing edge of *name* for terminal *status*.

    Returns the indices of edges that FIRED.  Must be called exactly once
    per node, when it reaches a terminal status.
    """
    node = instance.compiled.nodes[name]
    indices = node.outgoing
    if status is NodeStatus.DONE and node.plain_success:
        for i in indices:
            instance.set_edge(i, EdgeState.FIRED)
        return list(indices)
    transitions = instance.spec.transitions
    fired: list[int] = []

    if status in (NodeStatus.SKIPPED_OK, NodeStatus.SKIPPED_ERROR):
        dead = (
            EdgeState.DEAD_OK
            if status is NodeStatus.SKIPPED_OK
            else EdgeState.DEAD_ERROR
        )
        for i in indices:
            instance.set_edge(i, dead)
        return fired

    if status is NodeStatus.DONE:
        for i in indices:
            cond = transitions[i].condition
            if cond.kind in (ConditionKind.DONE, ConditionKind.ALWAYS):
                instance.set_edge(i, EdgeState.FIRED)
                fired.append(i)
            elif cond.kind is ConditionKind.EXPR:
                if evaluate_condition(cond.expr, instance.variables):
                    instance.set_edge(i, EdgeState.FIRED)
                    fired.append(i)
                else:
                    instance.set_edge(i, EdgeState.DEAD_OK)
            else:  # FAILED / EXCEPTION edges are moot on success
                instance.set_edge(i, EdgeState.DEAD_OK)
        return fired

    if status is NodeStatus.FAILED:
        for i in indices:
            cond = transitions[i].condition
            if cond.kind in (ConditionKind.FAILED, ConditionKind.ALWAYS):
                instance.set_edge(i, EdgeState.FIRED)
                fired.append(i)
            else:
                instance.set_edge(i, EdgeState.DEAD_ERROR)
        return fired

    if status is NodeStatus.EXCEPTION:
        if exception is None:
            raise NavigationError(
                f"node {name!r} ended in EXCEPTION without an exception object"
            )
        keys = {
            i: specificity(transitions[i].condition.exception, exception.name)
            for i in indices
            if transitions[i].condition.kind is ConditionKind.EXCEPTION
        }
        best = max(filter(None, keys.values()), default=None)
        for i in indices:
            cond = transitions[i].condition
            key = keys.get(i)
            if (key is not None and key == best) or cond.kind is ConditionKind.ALWAYS:
                instance.set_edge(i, EdgeState.FIRED)
                fired.append(i)
            elif cond.kind is ConditionKind.FAILED and best is None:
                # Generic catch-all: an unmatched exception behaves like an
                # unmasked failure, so the alternative task still runs.
                instance.set_edge(i, EdgeState.FIRED)
                fired.append(i)
            elif key is not None:
                instance.set_edge(i, EdgeState.DEAD_OK)  # out-specialised
            else:
                instance.set_edge(i, EdgeState.DEAD_ERROR)
        return fired

    raise NavigationError(
        f"fire_outgoing_edges called with non-terminal status {status}"
    )


def propagate_skips(
    instance: WorkflowInstance,
    seeds: "Iterable[str] | None" = None,
) -> list[str]:
    """Skip every PENDING node that can no longer activate; iterate to a
    fixpoint.  Returns the names of nodes skipped by this call.

    *seeds* restricts the initial frontier (incremental navigation: only
    targets of freshly deadened edges can become skippable); skipping a
    node enqueues its own edge targets, so the fixpoint is complete either
    way.  ``None`` seeds the frontier with every node.
    """
    compiled = instance.compiled.nodes
    nodes = instance.nodes
    dead_in = instance.dead_in
    skipped: list[str] = []
    frontier = deque(nodes if seeds is None else seeds)
    queued = set(frontier)
    while frontier:
        name = frontier.popleft()
        queued.discard(name)
        # An AND join is unreachable once any incoming edge is dead, an OR
        # join once all are; entry nodes have none and never skip.
        dead = dead_in[name]
        if not dead:
            continue
        inst = nodes[name]
        if inst.status is not NodeStatus.PENDING:
            continue
        node = compiled[name]
        if node.or_join and dead != node.indegree:
            continue
        new_status = (
            NodeStatus.SKIPPED_ERROR
            if instance.dead_error_in[name]
            else NodeStatus.SKIPPED_OK
        )
        inst.status = new_status
        fire_outgoing_edges(instance, name, new_status)
        skipped.append(name)
        for target in node.targets:
            if target not in queued:
                queued.add(target)
                frontier.append(target)
    return skipped


def irrelevant_running_nodes(
    instance: WorkflowInstance,
    candidates: "Iterable[str] | None" = None,
) -> list[str]:
    """RUNNING nodes whose completion can no longer influence navigation.

    A running node stays relevant while it has at least one PENDING outgoing
    edge into a node that is still PENDING (that edge could contribute to an
    activation).  Once every such opportunity is gone — typically because an
    OR-join downstream already fired on a sibling branch (Figure 5) — the
    node is a zombie: the engine reaps it so workflow-level redundancy
    completes when the *first* branch wins, not the last.

    Exit nodes (no outgoing edges) are always relevant: their own completion
    is the workflow outcome.  Call after :func:`propagate_skips` so doomed
    targets are already resolved.

    *candidates* restricts the scan (incremental navigation: only nodes
    feeding into a node whose status just changed, and nodes just
    launched, can newly become zombies); ``None`` scans every node.
    """
    compiled = instance.compiled.nodes
    nodes = instance.nodes
    edges = instance.edges
    zombies: list[str] = []
    seen: set[str] = set()
    for name in nodes if candidates is None else candidates:
        if name in seen:
            continue
        seen.add(name)
        if nodes[name].status is not NodeStatus.RUNNING:
            continue
        node = compiled[name]
        if not node.outgoing:
            continue
        for i, target in zip(node.outgoing, node.targets):
            if (
                edges[i] is EdgeState.PENDING
                and nodes[target].status is NodeStatus.PENDING
            ):
                break
        else:
            zombies.append(name)
    return zombies


def cancel_node(instance: WorkflowInstance, name: str) -> None:
    """Mark a running node CANCELLED and deaden its unresolved edges
    benignly (nothing downstream was waiting on them)."""
    inst = instance.node(name)
    if inst.status is not NodeStatus.RUNNING:
        raise NavigationError(
            f"cannot cancel node {name!r} in status {inst.status}"
        )
    inst.status = NodeStatus.CANCELLED
    for i in instance.compiled.nodes[name].outgoing:
        if instance.edges[i] is EdgeState.PENDING:
            instance.set_edge(i, EdgeState.DEAD_OK)


def evaluate_outcome(instance: WorkflowInstance) -> WorkflowStatus:
    """Workflow outcome once :meth:`WorkflowInstance.terminal` holds.

    While any node is unresolved the workflow is still RUNNING.
    """
    if not instance.terminal():
        return WorkflowStatus.RUNNING
    exits = instance.compiled.exits
    if not exits:  # validated workflows always have exits; defensive
        return WorkflowStatus.FAILED
    ok = all(
        instance.node(name).status in (NodeStatus.DONE, NodeStatus.SKIPPED_OK)
        for name in exits
    ) and any(instance.node(name).status is NodeStatus.DONE for name in exits)
    return WorkflowStatus.DONE if ok else WorkflowStatus.FAILED


def assert_no_deadlock(instance: WorkflowInstance) -> None:
    """Invariant check: with nothing running and nothing ready, every node
    must be terminal.  A violation indicates a navigator bug, not a user
    error, hence the hard failure."""
    if instance.running_nodes():
        return
    if ready_nodes(instance):
        return
    stuck = [
        name
        for name, inst in instance.nodes.items()
        if not inst.status.terminal
    ]
    if stuck:
        raise NavigationError(
            f"navigation deadlock: nodes {stuck} are pending with nothing "
            "running (this is an engine bug)"
        )
