"""Bus-driven run observation: events → spans + metrics, one recording path.

:class:`RunObserver` subscribes to the three topic families the stack
publishes on its :class:`~repro.events.EventBus` —

* ``engine.*``   — node/workflow lifecycle (plain-dict payloads);
* ``task.*``     — the failure detector's per-attempt state changes
  (:class:`~repro.detection.detector.AttemptOutcome` payloads);
* ``recovery.*`` — the recovery coordinator's strategy dispatch (retries,
  backoff waits, checkpoint restarts, replication wins; plain dicts) —

and turns them into one causally ordered event stream plus nested spans
(``workflow.run`` ▸ ``node.run`` ▸ ``task.attempt`` / ``recovery.backoff``)
and labelled metrics.  Nothing that steers a run listens to the bus (the
detector hands verdicts to the coordinators by call, after publishing
them), so the stream is the order things were published in — a verdict,
then the resolution and the node completion it caused: the order every
other consumer sees, and exactly the flight recorder's journal filtered
to these three families.  :class:`~repro.engine.trace.EngineTrace` is a
thin query layer over this recording, and every exporter
(:mod:`repro.obs.export`) renders it — the engine has exactly one
observation path.

Topic names are matched as string literals on purpose: the engine
documents its bus payloads as plain dicts precisely so subscribers need no
engine imports, and depending only on the published contract keeps this
module import-cycle-free (``repro.engine`` imports us for ``EngineTrace``).

An attempt span ends with its terminal ``task.*`` event — or, for an
attempt the engine cancelled and told the detector to forget (a losing
replica, a branch that lost an OR join), when its node resolves, labelled
``outcome="cancelled"``.  The attempt that resolved the node has had its
verdict by then, so whatever a resolving node still holds was cancelled.

The observer survives :meth:`WorkflowEngine.reset`: its subscriptions are
its own (the engine has none), and per-run span bookkeeping is cleared
when a workflow finishes, so engine-reuse loops record every run exactly
once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..events import EventBus, Subscription
from .metrics import ATTEMPT_BUCKETS, MetricSpec, MetricsRegistry
from .spans import Span, SpanRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.engine import WorkflowEngine
    from ..grid.simgrid import SimulatedGrid

__all__ = [
    "RecordedEvent",
    "RunObserver",
    "scrape_grid",
    "scrape_kernel",
    "scrape_bus",
    "scrape_detector",
]


@dataclass(frozen=True)
class RecordedEvent:
    """One observed bus event: time, topic, and a flat detail dict."""

    at: float
    topic: str
    detail: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        parts = " ".join(
            f"{k}={v}" for k, v in self.detail.items() if v is not None
        )
        return f"{self.at:10.3f}  {self.topic:24s} {parts}"


def _expand(record: tuple) -> RecordedEvent:
    """One ring record → the :class:`RecordedEvent` readers see.

    Runs when :attr:`RunObserver.events` is read, never in a bus handler.
    A record is ``(topic, payload snapshot)`` — dict payloads flatten into
    the detail with ``at`` lifted out — or, for an ``AttemptOutcome``, the
    topic followed by the fields the detail is made of (the outcome itself
    is not kept: it may carry a task's whole result).
    """
    if len(record) == 2:
        topic, payload = record
        detail = (
            dict(payload) if isinstance(payload, dict) else {"payload": payload}
        )
        if topic.startswith("task."):
            at = 0.0
        else:
            at = float(detail.pop("at", 0.0) or 0.0)
        return RecordedEvent(at=at, topic=topic, detail=detail)
    topic, job, activity, host, reason, exception, at, *ids = record
    detail = {
        "job": job,
        "activity": activity,
        "host": host,
        "reason": reason,
        "exception": exception,
    }
    for key, value in zip(("workflow_id", "span_id", "parent_id"), ids):
        if value:
            detail[key] = value
    return RecordedEvent(at=at, topic=topic, detail=detail)


# -- metric families ----------------------------------------------------------
#
# Declared once, here; RunObserver binds them to its registry at
# construction and resolves a series per event with one dict lookup.

_PER_WORKFLOW = ("workflow_id",)

NODES_LAUNCHED = MetricSpec(
    "engine_nodes_launched_total",
    "counter",
    "nodes entering RUNNING",
    ("workflow", "workflow_id"),
    optional=_PER_WORKFLOW,
)
NODE_COMPLETIONS = MetricSpec(
    "engine_node_completions_total",
    "counter",
    "terminal node resolutions by status",
    ("status", "workflow_id"),
    optional=_PER_WORKFLOW,
)
TASK_TRIES = MetricSpec(
    "task_tries",
    "histogram",
    "submission attempts consumed per node resolution",
    ("node",),
    buckets=ATTEMPT_BUCKETS,
)
WORKFLOW_RUNS = MetricSpec(
    "engine_workflow_runs_total",
    "counter",
    "workflow terminations by status",
    ("status", "workflow_id"),
    optional=_PER_WORKFLOW,
)
TASK_ATTEMPTS = MetricSpec(
    "task_attempts_total",
    "counter",
    "terminal detector outcomes per attempt",
    ("activity", "outcome", "workflow_id"),
    optional=_PER_WORKFLOW,
)
TASK_ATTEMPT_SECONDS = MetricSpec(
    "task_attempt_sim_seconds",
    "histogram",
    "virtual seconds from TaskStart to terminal outcome",
    ("activity",),
)
RECOVERY_RETRIES = MetricSpec(
    "recovery_retries_total",
    "counter",
    "resubmissions scheduled after detected crashes",
    ("activity", "workflow_id"),
    optional=_PER_WORKFLOW,
)
RECOVERY_RETRY_DELAY = MetricSpec(
    "recovery_retry_delay_seconds",
    "histogram",
    "strategy-chosen wait before each resubmission",
    ("activity",),
)
CHECKPOINT_RESTARTS = MetricSpec(
    "recovery_checkpoint_restarts_total",
    "counter",
    "submissions restarting from a saved checkpoint flag",
    ("activity",),
)
REPLICATION_WINS = MetricSpec(
    "recovery_replication_wins_total",
    "counter",
    "replicated activities resolved by this host's replica",
    ("activity", "host"),
)
SLOTS_EXHAUSTED = MetricSpec(
    "recovery_slots_exhausted_total",
    "counter",
    "retry loops that ran out of budget",
    ("activity",),
)
TRIES_PER_RESOLUTION = MetricSpec(
    "recovery_tries_per_resolution",
    "histogram",
    "total attempts consumed per task-level resolution",
    ("activity", "state"),
    buckets=ATTEMPT_BUCKETS,
)

#: ``AttemptOutcome.state`` → the attempt's outcome label ("" while it is
#: still running).  The detector's ``TaskState`` is a ``str`` enum, so its
#: members find their plain-string keys here without an import.  Shared by
#: every consumer of ``task.*`` events (tracker, estimators).
ATTEMPT_OUTCOME = {
    "active": "",
    "done": "done",
    "failed": "failed",
    "exception": "exception",
}

#: What the handlers read fields from when a payload is not a dict.
_NO_FIELDS: dict[str, Any] = {}


class RunObserver:
    """Records engine/detector/recovery bus traffic into one stream."""

    def __init__(
        self,
        bus: EventBus | None = None,
        *,
        clock: Any = None,
        max_events: int = 100_000,
    ) -> None:
        self.metrics = MetricsRegistry()
        #: Spans are stamped on *clock* (a reactor's virtual ``now``).
        self._recorder = SpanRecorder(clock=clock)
        #: One record per observed event (see :func:`_expand`), turned into
        #: a :class:`RecordedEvent` only when :attr:`events` is read.
        self._events: deque[tuple] = deque(maxlen=max_events)
        self._bus: EventBus | None = None
        self._subscriptions: list[Subscription] = []
        # Per-run span bookkeeping, keyed by workflow_id ("" for a classic
        # single-instance run) so N multiplexed instances never share or
        # clobber each other's spans; an instance's entries go when its
        # workflow finishes.  Open attempts are kept per node
        # (workflow_id → node → job → span) so that a node's resolution
        # can end the attempts it cancelled.
        self._workflow_spans: dict[str, Span] = {}
        self._node_spans: dict[str, dict[str, Span]] = {}
        self._attempt_spans: dict[str, dict[str, dict[str, Span]]] = {}
        family = self.metrics.family
        self._nodes_launched = family(NODES_LAUNCHED)
        self._node_completions = family(NODE_COMPLETIONS)
        self._task_tries = family(TASK_TRIES)
        self._workflow_runs = family(WORKFLOW_RUNS)
        self._task_attempts = family(TASK_ATTEMPTS)
        self._task_attempt_seconds = family(TASK_ATTEMPT_SECONDS)
        self._retries = family(RECOVERY_RETRIES)
        self._retry_delay = family(RECOVERY_RETRY_DELAY)
        self._checkpoint_restarts = family(CHECKPOINT_RESTARTS)
        self._replication_wins = family(REPLICATION_WINS)
        self._slots_exhausted = family(SLOTS_EXHAUSTED)
        self._tries_per_resolution = family(TRIES_PER_RESOLUTION)
        if bus is not None:
            self.attach_bus(bus)

    # -- wiring --------------------------------------------------------------

    @classmethod
    def attach(cls, engine: "WorkflowEngine") -> "RunObserver":
        """Observe an engine's runtime bus on its reactor's clock."""
        return cls(engine.runtime.bus, clock=engine.runtime.reactor.now)

    def attach_bus(self, bus: EventBus) -> "RunObserver":
        """Subscribe to *bus*.  Idempotent: re-attaching to the bus we are
        already subscribed to is a no-op, so callers may safely re-attach
        after :meth:`WorkflowEngine.reset` without double-recording."""
        if self._bus is bus and self._subscriptions:
            return self
        if self._subscriptions:
            self.detach()
        self._bus = bus
        self._subscriptions = [
            bus.subscribe("engine.*", self._on_engine_event),
            bus.subscribe("task.*", self._on_task_event),
            bus.subscribe("recovery.*", self._on_recovery_event),
        ]
        return self

    def detach(self) -> None:
        """Stop recording (idempotent; the recording remains readable)."""
        if self._bus is not None:
            for sub in self._subscriptions:
                self._bus.unsubscribe(sub)
        self._subscriptions.clear()

    @property
    def attached(self) -> bool:
        return bool(self._subscriptions)

    # -- recorded state ------------------------------------------------------

    @property
    def events(self) -> list[RecordedEvent]:
        """The observed events, oldest first (bounded ring)."""
        return [_expand(record) for record in self._events]

    @property
    def spans(self) -> list[Span]:
        return self._recorder.spans

    def _record(self, topic: str, payload: Any) -> dict[str, Any]:
        """Snapshot one dict-shaped event into the ring (a shallow copy
        guards against post-publish mutation) and return the mapping the
        handler reads its fields from."""
        if isinstance(payload, dict):
            self._events.append((topic, dict(payload)))
            return payload
        self._events.append((topic, payload))
        return _NO_FIELDS

    def _cancel_attempts(self, jobs: dict[str, Span]) -> None:
        """End the attempts a resolved node left running: their jobs were
        cancelled and forgotten, so no terminal ``task.*`` event follows."""
        end = self._recorder.end
        for span in jobs.values():
            span.labels["outcome"] = "cancelled"
            end(span)

    # -- engine lifecycle ----------------------------------------------------

    def _on_engine_event(self, topic: str, payload: Any) -> None:
        detail = self._record(topic, payload)
        wfid = detail.get("workflow_id", "") or ""
        spans = self._recorder
        if topic == "engine.node_launched":
            node = detail.get("node")
            workflow = detail.get("workflow", "")
            workflow_span = self._workflow_spans.get(wfid)
            if workflow_span is None:
                labels = {"workflow": workflow}
                if wfid:
                    labels["workflow_id"] = wfid
                workflow_span = spans.open("workflow.run", labels)
                self._workflow_spans[wfid] = workflow_span
            self._nodes_launched.labels(workflow, wfid).inc()
            labels = {"node": node, "workflow": workflow}
            if wfid:
                labels["workflow_id"] = wfid
            nodes = self._node_spans.get(wfid)
            if nodes is None:
                nodes = self._node_spans[wfid] = {}
            nodes[node] = spans.open("node.run", labels, workflow_span.id)
        elif topic in ("engine.node_completed", "engine.node_cancelled"):
            node = detail.get("node")
            status = detail.get("status", "cancelled")
            attempts = self._attempt_spans.get(wfid)
            if attempts is not None:
                jobs = attempts.pop(node, None)
                if jobs:
                    self._cancel_attempts(jobs)
            nodes = self._node_spans.get(wfid)
            span = nodes.pop(node, None) if nodes is not None else None
            if span is not None:
                span.labels["status"] = status
                spans.end(span)
            self._node_completions.labels(status, wfid).inc()
            tries = detail.get("tries")
            if tries:
                self._task_tries.labels(node).observe(float(tries))
        elif topic == "engine.workflow_finished":
            status = detail.get("status", "")
            self._workflow_runs.labels(status, wfid).inc()
            # Engine reuse starts this instance's next run with fresh
            # bookkeeping; sibling instances' spans are untouched.
            attempts = self._attempt_spans.pop(wfid, None)
            if attempts:
                for jobs in attempts.values():
                    self._cancel_attempts(jobs)
            self._node_spans.pop(wfid, None)
            workflow_span = self._workflow_spans.pop(wfid, None)
            if workflow_span is not None:
                workflow_span.labels["status"] = status
                spans.end(workflow_span)

    # -- detector attempts ---------------------------------------------------

    def _on_task_event(self, topic: str, payload: Any) -> None:
        # AttemptOutcome, duck-typed via the published contract.
        job = getattr(payload, "job_id", None)
        if job is None:  # pragma: no cover - defensive
            self._events.append((topic, payload))
            return
        activity = payload.activity
        host = payload.hostname
        reason = payload.reason
        exception = payload.exception
        wfid = getattr(payload, "workflow_id", "") or ""
        # Causal ids stamped by the tracer (repro.obs.tracectx), carried as
        # span labels so exporters can draw the decision → attempt chain.
        span_id = getattr(payload, "span_id", "") or ""
        parent_id = getattr(payload, "parent_id", "") or ""
        self._events.append(
            (
                topic,
                job,
                activity,
                host,
                reason,
                exception.name if exception else None,
                payload.at,
                wfid,
                span_id,
                parent_id,
            )
        )
        outcome = ATTEMPT_OUTCOME.get(getattr(payload, "state", None))
        if outcome is None:
            return
        attempts = self._attempt_spans.get(wfid)
        jobs = attempts.get(activity) if attempts is not None else None
        span = jobs.pop(job, None) if outcome and jobs is not None else None
        if span is None:
            # A running attempt — or one whose terminal outcome came before
            # any TaskStart (e.g. instant crash): that one is recorded as a
            # zero-duration attempt so the trace still shows it.
            labels = {"activity": activity, "job": job, "host": host}
            if wfid:
                labels["workflow_id"] = wfid
            if span_id:
                labels["span_id"] = span_id
            if parent_id:
                labels["parent_id"] = parent_id
            nodes = self._node_spans.get(wfid)
            node_span = nodes.get(activity) if nodes is not None else None
            span = self._recorder.open(
                "task.attempt",
                labels,
                node_span.id if node_span is not None else None,
            )
        if not outcome:
            if jobs is None:
                if attempts is None:
                    attempts = self._attempt_spans[wfid] = {}
                jobs = attempts[activity] = {}
            jobs[job] = span
            return
        span.labels["outcome"] = outcome
        if reason:
            span.labels["reason"] = reason
        self._recorder.end(span)
        self._task_attempts.labels(activity, outcome, wfid).inc()
        self._task_attempt_seconds.labels(activity).observe(span.sim_duration)

    # -- recovery dispatch ---------------------------------------------------

    def _on_recovery_event(self, topic: str, payload: Any) -> None:
        detail = self._record(topic, payload)
        activity = detail.get("activity", "")
        wfid = detail.get("workflow_id", "") or ""
        if topic == "recovery.resolved":
            self._tries_per_resolution.labels(
                activity, detail.get("state", "")
            ).observe(float(detail.get("tries", 0) or 0))
            return
        # Every other recovery decision leaves a zero-duration marker span
        # under its node, carrying the causal ids — the chrome_trace
        # exporter draws flow arrows from these to the attempts they
        # spawned.
        spans = self._recorder
        labels = {"activity": activity}
        if wfid:
            labels["workflow_id"] = wfid
        for key in ("span_id", "parent_id"):
            value = detail.get(key)
            if value:
                labels[key] = value
        nodes = self._node_spans.get(wfid)
        node_span = nodes.get(activity) if nodes is not None else None
        parent = node_span.id if node_span is not None else None
        spans.end(spans.open(topic, labels, parent))
        if topic == "recovery.retry":
            delay = float(detail.get("delay", 0.0) or 0.0)
            self._retries.labels(activity, wfid).inc()
            self._retry_delay.labels(activity).observe(delay)
            if delay > 0:
                at = float(detail.get("at", 0.0) or 0.0)
                spans.interval(
                    "recovery.backoff",
                    at,
                    at + delay,
                    parent=parent,
                    activity=activity,
                    slot=detail.get("slot", 0),
                )
        elif topic == "recovery.checkpoint_restart":
            self._checkpoint_restarts.labels(activity).inc()
        elif topic == "recovery.replication_win":
            self._replication_wins.labels(activity, detail.get("host", "")).inc()
        elif topic == "recovery.exhausted":
            self._slots_exhausted.labels(activity).inc()


# -- end-of-run scrapers ------------------------------------------------------


def _gauge(name: str, help: str) -> MetricSpec:
    return MetricSpec(name, "gauge", help)


SIM_EVENTS_PROCESSED = _gauge(
    "sim_events_processed", "callbacks executed by the sim kernel"
)
SIM_TIMERS_SCHEDULED = _gauge(
    "sim_timers_scheduled", "timer entries pushed onto the heap"
)
SIM_TIMERS_CANCELLED = _gauge(
    "sim_timers_cancelled", "timer entries lazily cancelled"
)
SIM_TIMER_COMPACTIONS = _gauge(
    "sim_timer_compactions", "in-place heap compaction passes"
)
SIM_CANCELLED_TIMER_RATIO = _gauge(
    "sim_cancelled_timer_ratio",
    "cancelled / scheduled timers (lazy-cancellation pressure)",
)

BUS_PUBLISHES = _gauge("bus_publishes", "events published on the bus")
BUS_CACHED_ROUTES = _gauge(
    "bus_cached_routes", "interned topic → subscriber routes"
)
BUS_ROUTE_BUILDS = _gauge(
    "bus_route_builds", "full matching passes (route-cache misses)"
)
BUS_SUBSCRIPTION_GROUPS = _gauge(
    "bus_subscription_groups", "live exact-topic groups plus pattern entries"
)
BUS_ROUTE_CACHE_HIT_RATE = _gauge(
    "bus_route_cache_hit_rate", "publishes served without a matching pass"
)

NETWORK_MESSAGES_SENT = _gauge(
    "network_messages_sent", "messages offered to the network"
)
NETWORK_MESSAGES_DELIVERED = _gauge(
    "network_messages_delivered", "messages reaching the client sink"
)
NETWORK_DROPPED_PARTITION = _gauge(
    "network_messages_dropped_partition", "drops from host partitions"
)
NETWORK_DROPPED_LOSS = _gauge(
    "network_messages_dropped_loss", "drops from i.i.d. message loss"
)
GRAM_JOBS_SUBMITTED = _gauge(
    "gram_jobs_submitted", "submissions accepted by the GRAM service"
)

DETECTOR_HEARTBEATS = _gauge(
    "detector_heartbeats_observed",
    "heartbeat messages consumed by the failure detector",
)


def _set(registry: "MetricsRegistry", spec: MetricSpec, value: float) -> None:
    registry.family(spec).labels().set(value)


def scrape_kernel(registry: "MetricsRegistry", kernel: Any) -> None:
    """Pull the sim kernel's health counters into *registry*.

    Anything exposing :meth:`SimKernel.stats` works — the kernel keeps
    cheap plain-int counters on its hot path, so scraping once at export
    time costs nothing per event.
    """
    stats = kernel.stats()
    _set(registry, SIM_EVENTS_PROCESSED, stats["events_processed"])
    _set(registry, SIM_TIMERS_SCHEDULED, stats["timers_scheduled"])
    _set(registry, SIM_TIMERS_CANCELLED, stats["timers_cancelled"])
    _set(registry, SIM_TIMER_COMPACTIONS, stats["compactions"])
    _set(
        registry,
        SIM_CANCELLED_TIMER_RATIO,
        stats["timers_cancelled"] / max(1, stats["timers_scheduled"]),
    )


def scrape_bus(registry: "MetricsRegistry", bus: "EventBus") -> None:
    """Record the event bus's dispatch-path counters.

    ``bus_route_cache_hit_rate`` is the fraction of publishes served from
    an interned route (1 − route builds / publishes) — the dispatch-cost
    figure the multiplexed-host benchmarks watch.
    """
    stats = bus.stats()
    _set(registry, BUS_PUBLISHES, stats["publishes"])
    _set(registry, BUS_CACHED_ROUTES, stats["cached_routes"])
    _set(registry, BUS_ROUTE_BUILDS, stats["route_builds"])
    _set(
        registry,
        BUS_SUBSCRIPTION_GROUPS,
        stats["exact_topics"] + stats["pattern_entries"],
    )
    _set(
        registry,
        BUS_ROUTE_CACHE_HIT_RATE,
        1.0 - stats["route_builds"] / max(1, stats["publishes"]),
    )


def scrape_grid(registry: "MetricsRegistry", grid: "SimulatedGrid") -> None:
    """Pull the simulated grid's internal counters into *registry*.

    Delegates the kernel block to :func:`scrape_kernel`, then adds the
    network and GRAM counters only a grid has.
    """
    scrape_kernel(registry, grid.kernel)
    net = grid.network.stats
    _set(registry, NETWORK_MESSAGES_SENT, net.sent)
    _set(registry, NETWORK_MESSAGES_DELIVERED, net.delivered)
    _set(registry, NETWORK_DROPPED_PARTITION, net.dropped_partition)
    _set(registry, NETWORK_DROPPED_LOSS, net.dropped_loss)
    _set(registry, GRAM_JOBS_SUBMITTED, grid.gram.submitted_count)


def scrape_detector(registry: "MetricsRegistry", detector: Any) -> None:
    """Record the failure detector's heartbeat traffic counter."""
    _set(
        registry,
        DETECTOR_HEARTBEATS,
        getattr(detector, "heartbeats_observed", 0),
    )
