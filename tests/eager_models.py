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

* :class:`EagerSpanFold` and :class:`EagerTracker` — the observer's and the
  status tracker's own folds, which PR 23 replaced with one pass off one
  per-instance table and a span view built when read;

* :func:`fold_eagerly` — the cadence the telemetry plane had before PR 21
  put one log under it: every consumer up to date after *every* publish,
  not after the next collector tick.

* :class:`EagerStateMachine` and :func:`reference_verdict` — the object
  per attempt that enforced the transition relation before the detector
  kept a bare state, and the paper's determination rules walked on it.

``reserve`` / ``rearm`` exist on the reference kernel too — as plain heap
pushes — so one program can run on both kernels.
"""

from __future__ import annotations

import fnmatch
import heapq
import itertools
from collections import deque
from functools import partial
from typing import Any, Callable

from repro.engine.instance import EdgeState, NodeInstance, NodeStatus, WorkflowStatus
from repro.core.states import LEGAL_TRANSITIONS, TaskState
from repro.detection.messages import TaskStart
from repro.engine.navigator import exception_edge_specificity
from repro.errors import CheckpointError, DetectionError, NavigationError
from repro.grid.behaviors import PlanContext
from repro.grid.gram import JobProcess
from repro.obs import EventLog, MetricsRegistry, Span, observer
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
        while not is_done():
            entry = self._pop_live(deadline)
            if entry is None:
                if self._heap:  # the next event is due after the deadline
                    self._now = max(self._now, deadline)
                return
            self._fire(entry)


class EagerJobProcess(JobProcess):
    """``JobProcess`` with the parent commit's ``begin``: one timer, one
    handle and one ``partial`` per step, all pushed before the first
    fires; stopping cancels every one of them, fired or not."""

    _handles: tuple = ()

    def begin(self) -> None:
        self.status = "running"
        service = self.service
        spec = self.host.spec
        checkpoint_state: dict[str, Any] | None = None
        if self.checkpoint_flag:
            try:
                checkpoint_state = service.store.load(self.checkpoint_flag)
            except CheckpointError:
                checkpoint_state = None
        ctx = PlanContext(
            activity=self.request.activity,
            job_id=self.job_id,
            host=spec,
            attempt=self.attempt,
            streams=service.streams,
            checkpoint_state=checkpoint_state,
        )
        schedule = service.kernel.schedule
        self._handles = [
            schedule(step.offset / spec.speed, partial(self._act, step))
            for step in self.behavior.plan(ctx)
        ]

    def _act(self, step) -> None:
        now = self.service.kernel.now()
        if step.action == "start":
            self.service.network.send(
                self.hostname,
                TaskStart(sent_at=now, job_id=self.job_id, hostname=self.hostname),
            )
        else:
            self._execute(step, now)

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

# -- the telemetry plane's per-consumer folds (before PR 23) -------------------
#
# Each consumer decoded every record for itself and kept its own table of
# running instances; the observer built every span as it went, into a ring.
# PR 23 folds what is sampled in one pass off one table and renders spans
# when read; these are the parent's loops, fed a consumer's own records
# (``consumer._records()``) after the fact — a fold is a function of the
# records alone, so when it runs does not matter.

_ATTEMPT_OUTCOME = {"active": "", "done": "done", "failed": "failed", "exception": "exception"}
_NO_FIELDS: dict = {}


class _EagerRun:
    __slots__ = ("workflow", "span", "nodes", "attempts")

    def __init__(self) -> None:
        self.workflow = ""
        self.span = None
        self.nodes = {}
        self.attempts = {}


class EagerSpanFold:
    """``RunObserver._fold`` as it was: spans and metrics in one loop, a
    ``Span`` built (and kept, in a ring of 65 536) per interval."""

    def __init__(self, records=()) -> None:
        self.metrics = MetricsRegistry()
        self._ring = deque(maxlen=65536)
        self._ids = itertools.count(1)
        self._runs = {}
        family = self.metrics.family
        self._nodes_launched = family(observer.NODES_LAUNCHED)
        self._node_completions = family(observer.NODE_COMPLETIONS)
        self._task_tries = family(observer.TASK_TRIES)
        self._workflow_runs = family(observer.WORKFLOW_RUNS)
        self._task_attempts = family(observer.TASK_ATTEMPTS)
        self._task_attempt_seconds = family(observer.TASK_ATTEMPT_SECONDS)
        self._retries = family(observer.RECOVERY_RETRIES)
        self._retry_delay = family(observer.RECOVERY_RETRY_DELAY)
        self._checkpoint_restarts = family(observer.CHECKPOINT_RESTARTS)
        self._replication_wins = family(observer.REPLICATION_WINS)
        self._slots_exhausted = family(observer.SLOTS_EXHAUSTED)
        self._tries_per_resolution = family(observer.TRIES_PER_RESOLUTION)
        self.fold(records)

    @property
    def spans(self) -> list:
        return list(self._ring)

    def _record(self, name, labels, parent, sim, wall) -> Span:
        span = Span(next(self._ids), name, sim, wall, labels, parent)
        self._ring.append(span)
        return span

    def fold(self, records) -> None:
        open_span = self._record
        runs = self._runs
        for _seq, sim, wall, topic, payload in records:
            if topic.startswith("task."):  # an AttemptOutcome, duck-typed
                job = getattr(payload, "job_id", None)
                outcome = _ATTEMPT_OUTCOME.get(getattr(payload, "state", None))
                if job is None or outcome is None:
                    continue
                activity = payload.activity
                wfid = getattr(payload, "workflow_id", "") or ""
                run = runs.get(wfid)
                jobs = run.attempts.get(activity) if run is not None else None
                span = jobs.pop(job, None) if outcome and jobs is not None else None
                if span is None:
                    # A running attempt — or one whose terminal outcome came
                    # before any TaskStart (an instant crash): a zero-duration
                    # attempt, so the trace still shows it.  The tracer's ids
                    # ride as labels; exporters draw decision → attempt.
                    host = payload.hostname
                    labels = {"activity": activity, "job": job, "host": host}
                    if wfid:
                        labels["workflow_id"] = wfid
                    for key in ("span_id", "parent_id"):
                        value = getattr(payload, key, "")
                        if value:
                            labels[key] = value
                    node_span = run.nodes.get(activity) if run is not None else None
                    parent = node_span.id if node_span is not None else None
                    span = open_span("task.attempt", labels, parent, sim, wall)
                if not outcome:
                    if jobs is None:
                        if run is None:
                            run = runs[wfid] = _EagerRun()
                        jobs = run.attempts[activity] = {}
                    jobs[job] = span
                    continue
                span.labels["outcome"] = outcome
                if payload.reason:
                    span.labels["reason"] = payload.reason
                span.sim_end, span.wall_end = sim, wall
                workflow = run.workflow if run is not None else ""
                self._task_attempts.labels(activity, outcome, workflow).inc()
                self._task_attempt_seconds.labels(activity).observe(
                    sim - span.sim_start
                )
                continue
            engine = topic.startswith("engine.")
            if not engine and not topic.startswith("recovery."):
                continue
            detail = payload if isinstance(payload, dict) else _NO_FIELDS
            wfid = detail.get("workflow_id", "") or ""
            if engine:
                workflow = detail.get("workflow", "")
                node = detail.get("node")
                if topic == "engine.node_launched":
                    run = runs.get(wfid)
                    if run is None:
                        run = runs[wfid] = _EagerRun()
                    run.workflow = workflow
                    if run.span is None:
                        labels = {"workflow": workflow}
                        if wfid:
                            labels["workflow_id"] = wfid
                        run.span = open_span("workflow.run", labels, None, sim, wall)
                    self._nodes_launched.labels(workflow).inc()
                    labels = {"node": node, "workflow": workflow}
                    if wfid:
                        labels["workflow_id"] = wfid
                    run.nodes[node] = open_span(
                        "node.run", labels, run.span.id, sim, wall
                    )
                elif topic in ("engine.node_completed", "engine.node_cancelled"):
                    status = detail.get("status", "cancelled")
                    run = runs.get(wfid)
                    if run is not None:
                        _cancel_attempts(run.attempts.pop(node, None), sim, wall)
                        span = run.nodes.pop(node, None)
                        if span is not None:
                            span.labels["status"] = status
                            span.sim_end, span.wall_end = sim, wall
                    self._node_completions.labels(status, workflow).inc()
                    tries = detail.get("tries")
                    if tries:
                        self._task_tries.labels(node).observe(float(tries))
                elif topic == "engine.workflow_finished":
                    status = detail.get("status", "")
                    self._workflow_runs.labels(status, workflow).inc()
                    # Engine reuse starts this instance's next run with
                    # fresh bookkeeping; sibling instances are untouched.
                    run = runs.pop(wfid, None)
                    if run is not None:
                        for jobs in run.attempts.values():
                            _cancel_attempts(jobs, sim, wall)
                        if run.span is not None:
                            run.span.labels["status"] = status
                            run.span.sim_end, run.span.wall_end = sim, wall
                continue
            # recovery.*
            activity = detail.get("activity", "")
            if topic == "recovery.resolved":
                self._tries_per_resolution.labels(
                    activity, detail.get("state", "")
                ).observe(float(detail.get("tries", 0) or 0))
                continue
            # Every other recovery decision leaves a zero-duration marker
            # span under its node, carrying the causal ids: chrome_trace
            # draws flow arrows from these to the attempts they spawned.
            labels = {"activity": activity}
            if wfid:
                labels["workflow_id"] = wfid
            for key in ("span_id", "parent_id"):
                value = detail.get(key)
                if value:
                    labels[key] = value
            run = runs.get(wfid)
            node_span = run.nodes.get(activity) if run is not None else None
            parent = node_span.id if node_span is not None else None
            marker = open_span(topic, labels, parent, sim, wall)
            marker.sim_end, marker.wall_end = sim, wall
            if topic == "recovery.retry":
                delay = float(detail.get("delay", 0.0) or 0.0)
                workflow = run.workflow if run is not None else ""
                self._retries.labels(activity, workflow).inc()
                self._retry_delay.labels(activity).observe(delay)
                if delay > 0:
                    # The wait is decided upfront, so its span is closed at
                    # creation with a *future* sim end.
                    at = float(detail.get("at", 0.0) or 0.0)
                    labels = {"activity": activity, "slot": detail.get("slot", 0)}
                    backoff = open_span("recovery.backoff", labels, parent, at, wall)
                    backoff.sim_end, backoff.wall_end = at + delay, wall
            elif topic == "recovery.checkpoint_restart":
                self._checkpoint_restarts.labels(activity).inc()
            elif topic == "recovery.replication_win":
                self._replication_wins.labels(activity, detail.get("host", "")).inc()
            elif topic == "recovery.exhausted":
                self._slots_exhausted.labels(activity).inc()


def _cancel_attempts(jobs, sim, wall) -> None:
    """End the attempts a resolved node left running: their jobs were
    cancelled and forgotten, so no terminal ``task.*`` event follows."""
    for span in (jobs or {}).values():
        span.labels["outcome"] = "cancelled"
        span.sim_end, span.wall_end = sim, wall


class EagerTracker:
    """``WorkflowStatusTracker`` as it folded: its own ``startswith``
    ladder, its own job → node table per instance (scanned per node
    completion), a status per instance ever admitted."""

    def __init__(self, records=()) -> None:
        self._status = {}
        self._running = {}
        self.fold(records)

    def _entry(self, wfid):
        entry = self._status.get(wfid)
        if entry is None:
            entry = self._status[wfid] = {
                "workflow_id": wfid,
                "workflow": "",
                "phase": "running",
                "trace_id": "",
                "nodes_launched": 0,
                "nodes_completed": 0,
                "running_nodes": [],
                "attempts": {"total": 0, "in_flight": 0},
                "last_recovery": None,
                "finished_at": None,
            }
        return entry

    def fold(self, records) -> None:
        status = self._status
        for _seq, _sim, _wall, topic, payload in records:
            if topic.startswith("task."):
                outcome = _ATTEMPT_OUTCOME.get(getattr(payload, "state", None))
                if outcome is None:
                    continue
                wfid = str(getattr(payload, "workflow_id", "") or "")
                job = getattr(payload, "job_id", "")
                entry = status.get(wfid) or self._entry(wfid)
                attempts = entry["attempts"]
                running = self._running.get(wfid)
                if not outcome:
                    if running is None:
                        running = self._running[wfid] = {}
                    running[job] = payload.activity
                    attempts["total"] += 1
                    attempts["in_flight"] += 1
                    continue
                attempts[outcome] = attempts.get(outcome, 0) + 1
                if running is not None and running.pop(job, None) is not None:
                    attempts["in_flight"] -= 1
            elif not isinstance(payload, dict):
                continue
            elif topic.startswith("engine."):
                self._fold_engine(topic, payload)
            elif topic.startswith("recovery."):
                wfid = str(payload.get("workflow_id", "") or "")
                entry = status.get(wfid) or self._entry(wfid)
                entry["last_recovery"] = {
                    "action": topic,
                    "activity": str(payload.get("activity", "")),
                    "at": float(payload.get("at") or 0.0),
                    "span_id": str(payload.get("span_id") or ""),
                }

    def _fold_engine(self, topic, payload) -> None:
        wfid = str(payload.get("workflow_id", "") or "")
        entry = self._status.get(wfid) or self._entry(wfid)
        workflow = payload.get("workflow")
        if workflow:
            entry["workflow"] = str(workflow)
        if not entry["trace_id"]:
            trace = payload.get("trace_id")
            if trace:
                entry["trace_id"] = str(trace)
        node = payload.get("node")
        if topic == "engine.workflow_admitted":
            if entry["nodes_launched"] == 0 and entry["phase"] == "running":
                entry["phase"] = "admitted"
        elif topic == "engine.node_launched":
            entry["phase"] = "running"
            entry["nodes_launched"] += 1
            entry["running_nodes"].append(str(node))
        elif topic in ("engine.node_completed", "engine.node_cancelled"):
            entry["nodes_completed"] += 1
            name = str(node)
            nodes = entry["running_nodes"]
            while name in nodes:
                nodes.remove(name)
            running = self._running.get(wfid)
            if running:
                self._cancel(
                    entry, running, [job for job, at in running.items() if at == node]
                )
        elif topic == "engine.workflow_finished":
            entry["phase"] = str(payload.get("status", "done"))
            at = payload.get("at")
            entry["finished_at"] = float(at) if at is not None else None
            entry["running_nodes"] = []
            running = self._running.pop(wfid, None)
            if running:
                self._cancel(entry, running, list(running))

    def _cancel(self, entry, running, jobs) -> None:
        """Count the attempts a resolved node left running as cancelled."""
        if not jobs:
            return
        for job in jobs:
            del running[job]
        attempts = entry["attempts"]
        count = len(jobs)
        attempts["cancelled"] = attempts.get("cancelled", 0) + count
        attempts["in_flight"] -= count

    def snapshot(self) -> list:
        return [
            {
                **entry,
                "attempts": dict(entry["attempts"]),
                "running_nodes": list(entry["running_nodes"]),
            }
            for _wfid, entry in sorted(self._status.items())
        ]


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


# -- one state machine per attempt (before the detector kept a state) ---------


class EagerStateMachine:
    """Enforces :data:`LEGAL_TRANSITIONS` for one attempt."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.state = TaskState.INACTIVE

    def transition(self, to: TaskState) -> None:
        if (self.state, to) not in LEGAL_TRANSITIONS:
            raise DetectionError(
                f"task {self.name!r}: illegal transition "
                f"{self.state.value} -> {to.value}"
            )
        self.state = to


def reference_verdict(events) -> tuple[list[str], tuple | None]:
    """The paper's determination rules for one job's *events*, in order,
    walked on an :class:`EagerStateMachine`.

    An event is ``("start",)``, ``("checkpoint", flag)``, ``("end",
    result)``, ``("exception", exc)``, ``("done", exit_code,
    host_crashed)`` or ``("suspect",)`` (its host suspected).  Returns the
    topics narrated and the verdict — ``(state, reason, checkpoint_flag,
    result, exception)`` — or ``None`` while the attempt is live.  After
    the verdict every event is ignored (the attempt is no longer tracked).
    """
    machine = EagerStateMachine("t")
    topics: list[str] = []
    saw_end = False
    result = exception = flag = None

    def finish(state: TaskState, reason: str) -> tuple:
        # A terminal signal may beat TaskStart: promote first, silently.
        if machine.state is TaskState.INACTIVE:
            machine.transition(TaskState.ACTIVE)
        machine.transition(state)
        topics.append(f"task.{state.value}")
        return (state, reason, flag, result, exception)

    for event in events:
        kind = event[0]
        if kind == "start":
            if machine.state is TaskState.INACTIVE:
                machine.transition(TaskState.ACTIVE)
                topics.append("task.active")
        elif kind == "checkpoint":
            flag = event[1]
        elif kind == "end":
            saw_end, result = True, event[1]
        elif kind == "exception":
            exception = event[1]
            return topics, finish(TaskState.EXCEPTION, "exception-notice")
        elif kind == "done":
            _, exit_code, crashed = event
            if saw_end and exit_code == 0 and not crashed:
                return topics, finish(TaskState.DONE, "done-with-taskend")
            reason = (
                "host-crashed"
                if crashed
                else "done-without-taskend"
                if not saw_end
                else f"nonzero-exit({exit_code})"
            )
            return topics, finish(TaskState.FAILED, reason)
        elif kind == "suspect":
            return topics, finish(TaskState.FAILED, "host-suspected")
    return topics, None
