"""Runtime workflow instance — the paper's "parse tree" with status.

Section 7: the engine "creates an instance of the specification in a parse
tree form", stores each task's final status in the tree, and re-evaluates it
to find the next ready tasks.  :class:`WorkflowInstance` is that structure:
per-node status, per-edge firing state, the workflow variables, and recovery
bookkeeping (tries used, checkpoint flags) — everything the engine persists
in its own checkpoints.

Node and edge state vocabulary
------------------------------

Nodes move ``PENDING → RUNNING → {DONE, FAILED, EXCEPTION}`` or are skipped:
``SKIPPED_OK`` (benign: an untaken branch, e.g. a failure handler whose
protected task succeeded) vs ``SKIPPED_ERROR`` (erroneous: an upstream
failure made the node unreachable).  The distinction decides workflow
outcome: a workflow succeeds iff every exit node ends ``DONE`` or
``SKIPPED_OK``.

Edges resolve ``PENDING → {FIRED, DEAD_OK, DEAD_ERROR}`` with the matching
benign/erroneous distinction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Any, Mapping

from ..core.exceptions import UserException
from ..errors import NavigationError
from ..wpdl.model import Workflow

__all__ = [
    "NodeStatus",
    "EdgeState",
    "NodeInstance",
    "WorkflowInstance",
    "WorkflowStatus",
]


class NodeStatus(str, Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    EXCEPTION = "exception"
    SKIPPED_OK = "skipped_ok"
    SKIPPED_ERROR = "skipped_error"
    #: A running node whose completion could no longer influence navigation
    #: (e.g. the losing branch of workflow-level redundancy after the
    #: OR-join fired) and was reaped by the engine.  Benign.
    CANCELLED = "cancelled"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def terminal(self) -> bool:
        return self is not NodeStatus.PENDING and self is not NodeStatus.RUNNING


class EdgeState(str, Enum):
    PENDING = "pending"
    FIRED = "fired"
    #: Will never fire, for a benign reason (source succeeded so a failure
    #: edge is moot; an expr evaluated false; an untaken branch upstream).
    DEAD_OK = "dead_ok"
    #: Will never fire because something went wrong upstream.
    DEAD_ERROR = "dead_error"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def resolved(self) -> bool:
        return self is not EdgeState.PENDING

    @property
    def dead(self) -> bool:
        return self in (EdgeState.DEAD_OK, EdgeState.DEAD_ERROR)


class WorkflowStatus(str, Enum):
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: A node's recovery state until the engine restores one: one empty
#: mapping for every node, not a dict per node.
_NO_RECOVERY_STATE: Mapping[str, Any] = MappingProxyType({})


@dataclass(slots=True, init=False)
class NodeInstance:
    """Runtime state of one node.  Built once per node of every instance,
    by a hand-written constructor: no generated ``__init__`` runs."""

    name: str
    status: NodeStatus
    #: Submission attempts started so far (per replica slot; see
    #: :mod:`repro.engine.recovery` — this is the sum over slots, kept for
    #: reporting; authoritative per-slot counters live in recovery state).
    tries_used: int
    result: Any
    exception: UserException | None
    started_at: float | None
    finished_at: float | None
    #: Loop nodes: completed iterations.
    iterations: int
    #: Serialisable recovery-coordinator state (per-slot tries and
    #: checkpoint flags), owned by :class:`repro.engine.recovery`.
    recovery_state: Mapping[str, Any]

    def __init__(
        self,
        name: str,
        status: NodeStatus = NodeStatus.PENDING,
        tries_used: int = 0,
        result: Any = None,
        exception: UserException | None = None,
        started_at: float | None = None,
        finished_at: float | None = None,
        iterations: int = 0,
        recovery_state: Mapping[str, Any] = _NO_RECOVERY_STATE,
    ) -> None:
        self.name = name
        self.status = status
        self.tries_used = tries_used
        self.result = result
        self.exception = exception
        self.started_at = started_at
        self.finished_at = finished_at
        self.iterations = iterations
        self.recovery_state = recovery_state

    def snapshot(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "status": self.status.value,
            "tries_used": self.tries_used,
            "result": self.result,
            "exception": (
                None
                if self.exception is None
                else {
                    "name": self.exception.name,
                    "message": self.exception.message,
                    "data": dict(self.exception.data),
                }
            ),
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "iterations": self.iterations,
            "recovery_state": dict(self.recovery_state),
        }

    @classmethod
    def restore(cls, data: dict[str, Any]) -> "NodeInstance":
        exc = data.get("exception")
        return cls(
            name=data["name"],
            status=NodeStatus(data["status"]),
            tries_used=int(data.get("tries_used", 0)),
            result=data.get("result"),
            exception=(
                None
                if exc is None
                else UserException(
                    name=exc["name"],
                    message=exc.get("message", ""),
                    data=dict(exc.get("data", {})),
                )
            ),
            started_at=data.get("started_at"),
            finished_at=data.get("finished_at"),
            iterations=int(data.get("iterations", 0)),
            recovery_state=dict(data.get("recovery_state", {})),
        )


class WorkflowInstance:
    """One execution of a workflow specification."""

    def __init__(self, spec: Workflow) -> None:
        self.spec = spec
        #: The specification's compiled form — adjacency, join flags, launch
        #: records — shared by every instance of *spec* and never mutated;
        #: the instance itself holds status only.
        self.compiled = spec.compiled
        self.nodes: dict[str, NodeInstance] = {
            name: NodeInstance(name) for name in spec.nodes
        }
        #: Edge states, indexed parallel to ``spec.transitions``.
        self.edges: list[EdgeState] = [EdgeState.PENDING] * len(spec.transitions)
        self.variables: dict[str, Any] = dict(spec.variables)
        self.status = WorkflowStatus.RUNNING
        self.started_at: float | None = None
        self.finished_at: float | None = None
        #: Per-node resolved-edge counters, maintained by :meth:`set_edge`
        #: and read by the navigator: incoming edges resolved FIRED, dead
        #: (benign or erroneous) and DEAD_ERROR so far.  Join checks are
        #: O(1) instead of O(indegree), which matters for wide fan-ins.
        self.fired_in: dict[str, int] = dict.fromkeys(spec.nodes, 0)
        self.dead_in: dict[str, int] = dict.fromkeys(spec.nodes, 0)
        self.dead_error_in: dict[str, int] = dict.fromkeys(spec.nodes, 0)

    # -- node access -----------------------------------------------------------

    def node(self, name: str) -> NodeInstance:
        try:
            return self.nodes[name]
        except KeyError:
            raise NavigationError(
                f"instance of {self.spec.name!r} has no node {name!r}"
            ) from None

    # -- edge access --------------------------------------------------------------

    def set_edge(self, index: int, state: EdgeState) -> None:
        previous = self.edges[index]
        if previous is not EdgeState.PENDING:
            if previous is not state:
                raise NavigationError(
                    f"edge {index} already resolved to {previous}, "
                    f"cannot set {state}"
                )
            return
        self.edges[index] = state
        if state is not EdgeState.PENDING:
            target = self.compiled.edge_targets[index]
            if state is EdgeState.FIRED:
                self.fired_in[target] += 1
            else:
                self.dead_in[target] += 1
                if state is EdgeState.DEAD_ERROR:
                    self.dead_error_in[target] += 1

    def _recount_edges(self) -> None:
        """Rebuild the counters from the edge list (after restore), by
        resolving every edge again from PENDING."""
        states = self.edges
        self.edges = [EdgeState.PENDING] * len(states)
        for counters in (self.fired_in, self.dead_in, self.dead_error_in):
            for name in counters:
                counters[name] = 0
        for index, state in enumerate(states):
            if state is not EdgeState.PENDING:
                self.set_edge(index, state)

    # -- summary queries ---------------------------------------------------------------

    def running_nodes(self) -> list[str]:
        return [n for n, inst in self.nodes.items() if inst.status is NodeStatus.RUNNING]

    def terminal(self) -> bool:
        """All nodes resolved (the navigator guarantees no deadlock)."""
        return all(inst.status.terminal for inst in self.nodes.values())

    def failed_tasks(self) -> tuple[str, ...]:
        return tuple(
            sorted(
                n
                for n, inst in self.nodes.items()
                if inst.status in (NodeStatus.FAILED, NodeStatus.EXCEPTION)
            )
        )

    def status_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for inst in self.nodes.values():
            counts[inst.status.value] = counts.get(inst.status.value, 0) + 1
        return counts

    # -- persistence (engine checkpointing) -----------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """JSON-serialisable runtime state (the spec is saved separately as
        WPDL XML)."""
        return {
            "workflow": self.spec.name,
            "status": self.status.value,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "variables": dict(self.variables),
            "nodes": {name: inst.snapshot() for name, inst in self.nodes.items()},
            "edges": [state.value for state in self.edges],
        }

    @classmethod
    def restore(cls, spec: Workflow, data: dict[str, Any]) -> "WorkflowInstance":
        if data.get("workflow") != spec.name:
            raise NavigationError(
                f"snapshot is for workflow {data.get('workflow')!r}, "
                f"not {spec.name!r}"
            )
        instance = cls(spec)
        instance.status = WorkflowStatus(data["status"])
        instance.started_at = data.get("started_at")
        instance.finished_at = data.get("finished_at")
        instance.variables = dict(data.get("variables", {}))
        for name, node_data in data.get("nodes", {}).items():
            if name not in instance.nodes:
                raise NavigationError(
                    f"snapshot names unknown node {name!r}"
                )
            instance.nodes[name] = NodeInstance.restore(node_data)
        edges = data.get("edges", [])
        if len(edges) != len(instance.edges):
            raise NavigationError(
                f"snapshot has {len(edges)} edges, spec has {len(instance.edges)}"
            )
        instance.edges = [EdgeState(value) for value in edges]
        instance._recount_edges()
        return instance
