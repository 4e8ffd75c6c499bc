"""Reference models of mechanics later PRs replaced.

``src/`` no longer contains any of them; they live here so the tests can
hold what replaced them to exact equivalence (the ``EagerStore`` /
``ListRing`` pattern of the telemetry tests):

* :class:`HeapKernel` — the pure-heap kernel PR 17 replaced: *every*
  entry, zero-delay hops included, goes through one ``(when, seq)`` heap;
* :class:`EagerJobProcess` — the eager ``JobProcess.begin``: every step of
  the plan is scheduled up front, each with its own handle, and a finish
  walks them all;
* :class:`EagerWorkflowInstance` and :class:`EagerNavigator` — the
  per-instance adjacency build and the by-name navigator PR 19 replaced
  with one compiled form per specification: every instance derives
  ``_incoming`` / ``_outgoing`` from ``spec.transitions`` for itself, and
  every navigation step walks ``spec.transitions[i]`` and
  ``spec.nodes[name]`` by name.

* :func:`fold_eagerly` — the cadence the telemetry plane had before PR 21
  put one log under it: every consumer up to date after *every* publish,
  not after the next collector tick.

``reserve`` / ``rearm`` exist on the reference kernel too — as plain heap
pushes — so one program can run on both kernels.
"""

from __future__ import annotations

import fnmatch
import heapq
from collections import deque
from functools import partial
from typing import Any, Callable

from repro.engine.instance import EdgeState, NodeInstance, NodeStatus, WorkflowStatus
from repro.engine.navigator import exception_edge_specificity
from repro.errors import CheckpointError, NavigationError
from repro.grid.behaviors import PlanContext
from repro.grid.gram import JobProcess
from repro.obs import EventLog
from repro.wpdl.conditions import evaluate_condition
from repro.wpdl.model import ConditionKind, JoinMode

_FIRED: Any = object()


class HeapHandle:
    def __init__(self, entry: list) -> None:
        self._entry = entry
        self.callback = entry[2]

    def cancel(self) -> None:
        entry = self._entry
        if entry[2] is not None and entry[2] is not _FIRED:
            entry[2] = None

    @property
    def cancelled(self) -> bool:
        return self._entry[2] is None

    @property
    def when(self) -> float:
        return self._entry[0]


class HeapKernel:
    """One heap of ``[when, seq, callback]`` entries, popped in order."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._now = 0.0
        self._heap: list[list] = []
        self._next_seq = 0
        self.events_processed = 0

    def now(self) -> float:
        return self._now

    def pending(self) -> int:
        return sum(1 for e in self._heap if e[2] is not None)

    def stats(self) -> dict[str, int]:
        return {
            "events_processed": self.events_processed,
            "timers_scheduled": self._next_seq,
            "pending": self.pending(),
        }

    # -- scheduling ------------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None]) -> HeapHandle:
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay!r})")
        entry = [self._now + delay, self._next_seq, callback]
        self._next_seq += 1
        heapq.heappush(self._heap, entry)
        return HeapHandle(entry)

    def schedule_at(self, when: float, callback: Callable[[], None]) -> HeapHandle:
        return self.schedule(when - self._now, callback)

    def reserve(self, count: int) -> int:
        first = self._next_seq
        self._next_seq += count
        return first

    def rearm(self, handle: HeapHandle, callback, when: float, seq=None) -> None:
        assert handle._entry[2] is _FIRED and when >= self._now
        if seq is None:
            seq = self.reserve(1)
        handle._entry[:] = [when, seq, callback]
        heapq.heappush(self._heap, handle._entry)

    # -- execution -------------------------------------------------------------

    def _pop_live(self, limit: float = float("inf")) -> list | None:
        heap = self._heap
        while heap:
            if heap[0][2] is None:
                heapq.heappop(heap)
            elif heap[0][0] > limit:
                return None
            else:
                return heapq.heappop(heap)
        return None

    def _fire(self, entry: list) -> None:
        callback = entry[2]
        self._now = entry[0]
        entry[2] = _FIRED
        callback()
        self.events_processed += 1

    def step(self) -> bool:
        entry = self._pop_live()
        if entry is None:
            return False
        self._fire(entry)
        return True

    def run(self, *, max_events: int | None = None) -> int:
        processed = 0
        while self.step():
            processed += 1
            if max_events is not None and processed > max_events:
                raise RuntimeError(f"simulation exceeded max_events={max_events}")
        return processed

    def run_until(self, when: float) -> int:
        processed = 0
        while (entry := self._pop_live(when)) is not None:
            self._fire(entry)
            processed += 1
        self._now = max(self._now, when)
        return processed

    def run_until_done(self, is_done, deadline: float | None = None) -> None:
        if deadline is None:
            deadline = float("inf")
        while self.pending() and not is_done() and self._now < deadline:
            self.step()


class EagerJobProcess(JobProcess):
    """``JobProcess`` with the parent commit's ``begin``: one timer, one
    handle and one ``partial`` per step, all pushed before the first
    fires; stopping cancels every one of them, fired or not."""

    _handles: tuple = ()

    def begin(self) -> None:
        self.record.status = "running"
        service = self.service
        request = self.request
        spec = self.host.spec
        checkpoint_state: dict[str, Any] | None = None
        if request.checkpoint_flag:
            try:
                checkpoint_state = service.store.load(request.checkpoint_flag)
            except CheckpointError:
                checkpoint_state = None
        ctx = PlanContext(
            activity=request.activity,
            job_id=self.job_id,
            host=spec,
            attempt=self.record.attempt,
            streams=service.streams,
            checkpoint_state=checkpoint_state,
        )
        schedule = service.kernel.schedule
        self._handles = [
            schedule(step.offset / spec.speed, partial(self._execute, step))
            for step in self.behavior.plan(ctx)
        ]

    def _stop(self) -> None:
        self._finished = True
        for handle in self._handles:
            handle.cancel()


# -- the per-instance graph and the by-name navigator (before PR 19) ----------


class EagerWorkflowInstance:
    """``WorkflowInstance`` as it was: adjacency rebuilt per instance, three
    name-keyed counter dicts, nothing read from the specification's
    compiled form."""

    def __init__(self, spec) -> None:
        self.spec = spec
        self.nodes = {name: NodeInstance(name=name) for name in spec.nodes}
        self.edges = [EdgeState.PENDING] * len(spec.transitions)
        self.variables = dict(spec.variables)
        self.status = WorkflowStatus.RUNNING
        self.started_at = None
        self.finished_at = None
        self._incoming = {name: [] for name in spec.nodes}
        self._outgoing = {name: [] for name in spec.nodes}
        for i, t in enumerate(spec.transitions):
            self._incoming.setdefault(t.target, []).append(i)
            self._outgoing.setdefault(t.source, []).append(i)
        self._fired_in = {name: 0 for name in spec.nodes}
        self._dead_in = {name: 0 for name in spec.nodes}
        self._dead_error_in = {name: 0 for name in spec.nodes}

    def node(self, name):
        try:
            return self.nodes[name]
        except KeyError:
            raise NavigationError(
                f"instance of {self.spec.name!r} has no node {name!r}"
            ) from None

    def incoming_states(self, name):
        return [self.edges[i] for i in self._incoming.get(name, ())]

    def outgoing_indices(self, name):
        return list(self._outgoing.get(name, ()))

    def incoming_indices(self, name):
        return list(self._incoming.get(name, ()))

    def _count(self, index, state):
        target = self.spec.transitions[index].target
        if state is EdgeState.FIRED:
            self._fired_in[target] += 1
        else:
            self._dead_in[target] += 1
            if state is EdgeState.DEAD_ERROR:
                self._dead_error_in[target] += 1

    def set_edge(self, index, state):
        previous = self.edges[index]
        if previous.resolved and previous is not state:
            raise NavigationError(
                f"edge {index} already resolved to {previous}, cannot set {state}"
            )
        self.edges[index] = state
        if previous is EdgeState.PENDING and state is not EdgeState.PENDING:
            self._count(index, state)

    def indegree(self, name):
        return len(self._incoming.get(name, ()))

    def fired_in(self, name):
        return self._fired_in.get(name, 0)

    def dead_in(self, name):
        return self._dead_in.get(name, 0)

    def dead_error_in(self, name):
        return self._dead_error_in.get(name, 0)

    def _recount_edges(self):
        for counters in (self._fired_in, self._dead_in, self._dead_error_in):
            for name in counters:
                counters[name] = 0
        for i, state in enumerate(self.edges):
            if state is not EdgeState.PENDING:
                self._count(i, state)

    def running_nodes(self):
        return [n for n, i in self.nodes.items() if i.status is NodeStatus.RUNNING]

    def terminal(self):
        return all(inst.status.terminal for inst in self.nodes.values())

    def snapshot(self):
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
    def restore(cls, spec, data):
        instance = cls(spec)
        instance.status = WorkflowStatus(data["status"])
        instance.started_at = data.get("started_at")
        instance.finished_at = data.get("finished_at")
        instance.variables = dict(data.get("variables", {}))
        for name, node_data in data.get("nodes", {}).items():
            instance.nodes[name] = NodeInstance.restore(node_data)
        instance.edges = [EdgeState(value) for value in data.get("edges", [])]
        instance._recount_edges()
        return instance


def _pattern_matches(pattern, name):
    if any(ch in pattern for ch in "*?["):
        return fnmatch.fnmatchcase(name, pattern)
    return pattern == name


class EagerNavigator:
    """The navigator as it was, a namespace of the seven functions: index
    lists copied per call, targets and joins looked up by name, exit nodes
    found by scanning every transition at each finish."""

    @staticmethod
    def ready_nodes(instance, candidates=None):
        names = instance.spec.nodes.keys() if candidates is None else candidates
        ready, seen = [], set()
        for name in names:
            if name in seen:
                continue
            seen.add(name)
            if instance.node(name).status is not NodeStatus.PENDING:
                continue
            indegree = instance.indegree(name)
            if indegree == 0:
                ready.append(name)
            elif instance.spec.nodes[name].join is JoinMode.AND:
                if instance.fired_in(name) == indegree:
                    ready.append(name)
            elif instance.fired_in(name) >= 1:
                ready.append(name)
        return ready

    @staticmethod
    def fire_outgoing_edges(instance, name, status, exception=None):
        indices = instance.outgoing_indices(name)
        condition = lambda i: instance.spec.transitions[i].condition  # noqa: E731
        fired = []

        def resolve(i, state):
            instance.set_edge(i, state)
            if state is EdgeState.FIRED:
                fired.append(i)

        if status in (NodeStatus.SKIPPED_OK, NodeStatus.SKIPPED_ERROR):
            dead = (
                EdgeState.DEAD_OK
                if status is NodeStatus.SKIPPED_OK
                else EdgeState.DEAD_ERROR
            )
            for i in indices:
                resolve(i, dead)
        elif status is NodeStatus.DONE:
            for i in indices:
                cond = condition(i)
                if cond.kind in (ConditionKind.DONE, ConditionKind.ALWAYS):
                    resolve(i, EdgeState.FIRED)
                elif cond.kind is ConditionKind.EXPR and evaluate_condition(
                    cond.expr, instance.variables
                ):
                    resolve(i, EdgeState.FIRED)
                else:
                    resolve(i, EdgeState.DEAD_OK)
        elif status is NodeStatus.FAILED:
            for i in indices:
                if condition(i).kind in (ConditionKind.FAILED, ConditionKind.ALWAYS):
                    resolve(i, EdgeState.FIRED)
                else:
                    resolve(i, EdgeState.DEAD_ERROR)
        elif status is NodeStatus.EXCEPTION:
            if exception is None:
                raise NavigationError(f"node {name!r}: EXCEPTION without exception")
            matching = [
                i
                for i in indices
                if condition(i).kind is ConditionKind.EXCEPTION
                and _pattern_matches(condition(i).exception, exception.name)
            ]
            best = max(
                (exception_edge_specificity(condition(i).exception) for i in matching),
                default=None,
            )
            chosen = {
                i
                for i in matching
                if exception_edge_specificity(condition(i).exception) == best
            }
            for i in indices:
                cond = condition(i)
                if i in chosen or cond.kind is ConditionKind.ALWAYS:
                    resolve(i, EdgeState.FIRED)
                elif cond.kind is ConditionKind.FAILED and not matching:
                    resolve(i, EdgeState.FIRED)
                elif cond.kind is ConditionKind.EXCEPTION and i in matching:
                    resolve(i, EdgeState.DEAD_OK)
                else:
                    resolve(i, EdgeState.DEAD_ERROR)
        else:
            raise NavigationError(f"non-terminal status {status}")
        return fired

    @staticmethod
    def propagate_skips(instance, seeds=None):
        skipped = []
        frontier = deque(instance.spec.nodes.keys() if seeds is None else seeds)
        queued = set(frontier)
        while frontier:
            name = frontier.popleft()
            queued.discard(name)
            inst = instance.node(name)
            if inst.status is not NodeStatus.PENDING:
                continue
            indegree = instance.indegree(name)
            if indegree == 0:
                continue
            if instance.spec.nodes[name].join is JoinMode.AND:
                unreachable = instance.dead_in(name) >= 1
            else:
                unreachable = instance.dead_in(name) == indegree
            if not unreachable:
                continue
            new_status = (
                NodeStatus.SKIPPED_ERROR
                if instance.dead_error_in(name) >= 1
                else NodeStatus.SKIPPED_OK
            )
            inst.status = new_status
            EagerNavigator.fire_outgoing_edges(instance, name, new_status)
            skipped.append(name)
            for i in instance.outgoing_indices(name):
                target = instance.spec.transitions[i].target
                if target not in queued:
                    queued.add(target)
                    frontier.append(target)
        return skipped

    @staticmethod
    def irrelevant_running_nodes(instance, candidates=None):
        names = instance.nodes.keys() if candidates is None else candidates
        zombies, seen = [], set()
        for name in names:
            if name in seen:
                continue
            seen.add(name)
            if instance.node(name).status is not NodeStatus.RUNNING:
                continue
            indices = instance.outgoing_indices(name)
            if indices and not any(
                instance.edges[i] is EdgeState.PENDING
                and instance.node(instance.spec.transitions[i].target).status
                is NodeStatus.PENDING
                for i in indices
            ):
                zombies.append(name)
        return zombies

    @staticmethod
    def cancel_node(instance, name):
        inst = instance.node(name)
        if inst.status is not NodeStatus.RUNNING:
            raise NavigationError(f"cannot cancel node {name!r} in status {inst.status}")
        inst.status = NodeStatus.CANCELLED
        for i in instance.outgoing_indices(name):
            if instance.edges[i] is EdgeState.PENDING:
                instance.set_edge(i, EdgeState.DEAD_OK)

    @staticmethod
    def evaluate_outcome(instance):
        if not instance.terminal():
            return WorkflowStatus.RUNNING
        sources = {t.source for t in instance.spec.transitions}
        exits = [n for n in instance.spec.nodes if n not in sources]
        if not exits:
            return WorkflowStatus.FAILED
        ok = all(
            instance.node(n).status in (NodeStatus.DONE, NodeStatus.SKIPPED_OK)
            for n in exits
        ) and any(instance.node(n).status is NodeStatus.DONE for n in exits)
        return WorkflowStatus.DONE if ok else WorkflowStatus.FAILED

    @staticmethod
    def assert_no_deadlock(instance):
        if instance.running_nodes() or EagerNavigator.ready_nodes(instance):
            return
        stuck = [n for n, i in instance.nodes.items() if not i.status.terminal]
        if stuck:
            raise NavigationError(f"navigation deadlock: nodes {stuck} are pending")


def fold_eagerly(bus) -> EventLog:
    """Fold *bus*'s event log after every publish — what per-event
    subscriptions amounted to.  Shadows ``publish`` on the instance (every
    publisher looks it up there), so it holds whatever taps come and go;
    returns the log, which the caller keeps alive."""
    log = EventLog.on(bus)
    publish = bus.publish

    def publish_and_fold(topic, payload=None):
        delivered = publish(topic, payload)
        log.fold()
        return delivered

    bus.publish = publish_and_fold
    return log
