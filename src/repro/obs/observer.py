"""Run observation: the bus's event log → events, spans and metrics.

:class:`RunObserver` reads the three topic families the stack publishes on
its :class:`~repro.events.EventBus` —

* ``engine.*``   — node/workflow lifecycle (plain-dict payloads);
* ``task.*``     — the failure detector's per-attempt state changes
  (:class:`~repro.detection.detector.AttemptOutcome` payloads);
* ``recovery.*`` — the recovery coordinator's strategy dispatch (retries,
  backoff waits, checkpoint restarts, replication wins; plain dicts) —

out of the bus's :class:`~repro.obs.log.EventLog`.  Nothing here runs
inside a publish, and a record is decoded in two places only.  What is
*sampled* — the labelled metrics here, the status tracker's per-instance
status, the estimators' counts — is folded by the log's one
:class:`~repro.obs.log.Fold`: one pass per slice of the log, at the
collector's tick and before any read, off one table of running instances.
What is *rendered* — :attr:`RunObserver.events` and the nested spans
(``workflow.run`` ▸ ``node.run`` ▸ ``task.attempt`` / ``recovery.backoff``,
:func:`spans_of`) — is a view of the records the log still holds, built
when read.  Span ids, parents and stamps are properties of log order and
of the clocks read at append; and log order is publish order — a verdict,
then the resolution and the node completion it caused — because nothing
that steers a run listens to the bus.
:class:`~repro.engine.trace.EngineTrace` is a thin query layer over this
recording, and every exporter (:mod:`repro.obs.export`) renders it: one
observation path.

A series is named by what the *specification* names — workflow, activity,
outcome, status, host — never by a workflow instance: the failure model is
per task and per resource, and a schema keyed by instance grows with load.
Per-instance detail is in the spans (``workflow_id`` label), the journal
and the status tracker.  ``task.*`` and ``recovery.*`` payloads carry the
instance id only; the fold learns ``workflow_id → workflow`` from
``engine.node_launched`` and forgets it at ``engine.workflow_finished``.

Topic names are matched as string literals on purpose: payloads are plain
dicts precisely so consumers need no engine imports, which keeps this
module import-cycle-free (``repro.engine`` imports us for ``EngineTrace``).

An attempt span ends with its terminal ``task.*`` event — or, for an
attempt the engine cancelled and told the detector to forget (a losing
replica, a branch that lost an OR join), when its node resolves, labelled
``outcome="cancelled"``.  The observer survives
:meth:`WorkflowEngine.reset`: it is attached to the bus, not to the engine,
and the fold's entry for an instance goes when its workflow finishes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..events import EventBus
from .log import ATTEMPT_OUTCOME, LogConsumer, LogRecord, expand
from .metrics import ATTEMPT_BUCKETS, MetricSpec, MetricsRegistry
from .spans import Span

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


def _event(record: LogRecord) -> RecordedEvent:
    """The :class:`RecordedEvent` readers see for one log record: its
    journal entry (:func:`~repro.obs.log.expand`) with ``at`` lifted out —
    and, for an ``AttemptOutcome``, the detector's field names shortened
    (``job``, ``host``) and the five attempt fields always present."""
    detail = expand(record)
    del detail["seq"]
    topic = detail.pop("topic")
    at = float(detail.pop("at", 0.0) or 0.0)
    if hasattr(record[4], "job_id"):
        entry, detail = detail, {
            "job": detail.get("job_id", ""),
            "activity": detail.get("activity", ""),
            "host": detail.get("hostname", ""),
            "reason": detail.get("reason", ""),
            "exception": detail.get("exception"),
        }
        for key in ("workflow_id", "span_id", "parent_id"):
            if key in entry:
                detail[key] = entry[key]
    return RecordedEvent(at=at, topic=topic, detail=detail)


# -- metric families ----------------------------------------------------------
#
# Declared once, here; RunObserver binds them to its registry at
# construction and resolves a series per event with one dict lookup.

NODES_LAUNCHED = MetricSpec(
    "engine_nodes_launched_total",
    "counter",
    "nodes entering RUNNING",
    ("workflow",),
)
NODE_COMPLETIONS = MetricSpec(
    "engine_node_completions_total",
    "counter",
    "terminal node resolutions by status",
    ("status", "workflow"),
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
    ("status", "workflow"),
)
TASK_ATTEMPTS = MetricSpec(
    "task_attempts_total",
    "counter",
    "terminal detector outcomes per attempt",
    ("activity", "outcome", "workflow"),
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
    ("activity", "workflow"),
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

#: The topic families the observer reads, as ``str.startswith`` takes them.
OBSERVED = ("engine.", "task.", "recovery.")


class RunObserver(LogConsumer):
    """Turns engine/detector/recovery bus traffic into one recording."""

    _slot = "observer"

    def __init__(self, bus: EventBus | None = None, *, clock: Any = None) -> None:
        #: A reactor's virtual ``now``; the bus's log stamps events on it.
        self._clock = clock
        #: Read through ``synced()``, which takes in what was published.
        self.metrics = MetricsRegistry()
        self.metrics.synced = self._synced  # type: ignore[method-assign]
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

    @classmethod
    def attach(cls, engine: "WorkflowEngine") -> "RunObserver":
        """Observe an engine's runtime bus on its reactor's clock."""
        return cls(engine.runtime.bus, clock=engine.runtime.reactor.now)

    # -- views of the log ----------------------------------------------------

    def _observed(self) -> list[LogRecord]:
        """The log's records of the observed families, oldest first."""
        return [r for r in self._records() if r[3].startswith(OBSERVED)]

    @property
    def events(self) -> list[RecordedEvent]:
        """The observed events, oldest first (what the log still holds)."""
        return [_event(record) for record in self._observed()]

    @property
    def spans(self) -> list[Span]:
        """The spans of what the log still holds, built by this read."""
        return spans_of(self._records())


class _Open:
    """The open spans of one instance while :func:`spans_of` runs: its
    ``workflow.run``, each running node's ``node.run``, and the running
    attempts' by activity and job."""

    __slots__ = ("span", "nodes", "attempts")

    def __init__(self) -> None:
        self.span: Span | None = None
        self.nodes: dict[str, Span] = {}
        self.attempts: dict[str, dict[str, Span]] = {}


def spans_of(records: list[LogRecord]) -> list[Span]:
    """The nested spans of *records* (``workflow.run`` ▸ ``node.run`` ▸
    ``task.attempt`` / ``recovery.*``), oldest first, ids and parents
    numbered in log order from 1 — so consistent within one call, and the
    same from call to call until the log's ring wraps.  Then the window's
    first spans are clipped: an interval that began on a record no longer
    held starts at the first record that mentions it, without a parent.
    The second (and last) place that decodes the three topic families;
    :class:`~repro.obs.log.Fold` is the one that runs per published event."""
    spans: list[Span] = []
    ids = itertools.count(1)

    def open_span(name, labels, parent, sim, wall) -> Span:
        span = Span(next(ids), name, sim, wall, labels, parent)
        spans.append(span)
        return span

    runs: dict[str, _Open] = {}
    for _seq, sim, wall, topic, payload in records:
        if topic.startswith("task."):  # an AttemptOutcome, duck-typed
            job = getattr(payload, "job_id", None)
            outcome = ATTEMPT_OUTCOME.get(getattr(payload, "state", None))
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
                labels = {"activity": activity, "job": job, "host": payload.hostname}
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
                        run = runs[wfid] = _Open()
                    jobs = run.attempts[activity] = {}
                jobs[job] = span
                continue
            span.labels["outcome"] = outcome
            if payload.reason:
                span.labels["reason"] = payload.reason
            span.sim_end, span.wall_end = sim, wall
            continue
        engine = topic.startswith("engine.")
        if not (engine or topic.startswith("recovery.")) or not isinstance(payload, dict):
            continue
        wfid = payload.get("workflow_id", "") or ""
        run = runs.get(wfid)
        if engine:
            node = payload.get("node")
            if topic == "engine.node_launched":
                workflow = payload.get("workflow", "")
                if run is None:
                    run = runs[wfid] = _Open()
                if run.span is None:
                    labels = {"workflow": workflow}
                    if wfid:
                        labels["workflow_id"] = wfid
                    run.span = open_span("workflow.run", labels, None, sim, wall)
                labels = {"node": node, "workflow": workflow}
                if wfid:
                    labels["workflow_id"] = wfid
                run.nodes[node] = open_span("node.run", labels, run.span.id, sim, wall)
            elif topic in ("engine.node_completed", "engine.node_cancelled"):
                if run is not None:
                    _cancel_attempts(run.attempts.pop(node, None), sim, wall)
                    span = run.nodes.pop(node, None)
                    if span is not None:
                        span.labels["status"] = payload.get("status", "cancelled")
                        span.sim_end, span.wall_end = sim, wall
            elif topic == "engine.workflow_finished":
                run = runs.pop(wfid, None)
                if run is not None:
                    for jobs in run.attempts.values():
                        _cancel_attempts(jobs, sim, wall)
                    if run.span is not None:
                        run.span.labels["status"] = payload.get("status", "")
                        run.span.sim_end, run.span.wall_end = sim, wall
            continue
        if topic == "recovery.resolved":
            continue
        # Every other recovery decision leaves a zero-duration marker span
        # under its node, carrying the causal ids: chrome_trace draws flow
        # arrows from these to the attempts they spawned.
        activity = payload.get("activity", "")
        labels = {"activity": activity}
        if wfid:
            labels["workflow_id"] = wfid
        for key in ("span_id", "parent_id"):
            value = payload.get(key)
            if value:
                labels[key] = value
        node_span = run.nodes.get(activity) if run is not None else None
        parent = node_span.id if node_span is not None else None
        marker = open_span(topic, labels, parent, sim, wall)
        marker.sim_end, marker.wall_end = sim, wall
        if topic == "recovery.retry":
            delay = float(payload.get("delay", 0.0) or 0.0)
            if delay > 0:
                # The wait is decided upfront, so its span is closed at
                # creation with a *future* sim end.
                at = float(payload.get("at", 0.0) or 0.0)
                labels = {"activity": activity, "slot": payload.get("slot", 0)}
                backoff = open_span("recovery.backoff", labels, parent, at, wall)
                backoff.sim_end, backoff.wall_end = at + delay, wall
    return spans


def _cancel_attempts(jobs: dict[str, Span] | None, sim: float, wall: float) -> None:
    """End the attempts a resolved node left running: their jobs were
    cancelled and forgotten, so no terminal ``task.*`` event follows."""
    for span in (jobs or {}).values():
        span.labels["outcome"] = "cancelled"
        span.sim_end, span.wall_end = sim, wall


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
BUS_SUBSCRIPTION_GROUPS = _gauge("bus_subscription_groups", "topics with a subscriber")

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
    """Record the event bus's counters: publications offered and topics
    with a subscriber."""
    stats = bus.stats()
    _set(registry, BUS_PUBLISHES, stats["publishes"])
    _set(registry, BUS_SUBSCRIPTION_GROUPS, stats["topics"])


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
