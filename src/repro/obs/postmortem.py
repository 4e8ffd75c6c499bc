"""Post-mortem reconstruction of a flight recording (``repro inspect``).

Reads a journal — a :class:`~repro.obs.recorder.FlightRecorder` spill/dump
file or its in-memory entries — and rebuilds what each workflow instance
went through: the attempt ledger (every submission with its host, outcome
and detector verdict), the recovery decisions that dispatched them, and
the checkpoint restarts, all stitched together through the causal
trace/span ids stamped by :mod:`repro.obs.tracectx`.  The output answers
the operator's question after a masked failure: *which decision caused
this attempt, and which verdict caused that decision?*

The attempt ledger is the ``task.attempt`` spans of the journal
(:func:`~repro.obs.observer.spans_of`, the decoder behind every rendered
view), so ``inspect`` and a live trace tell one story: an attempt the
engine cancelled (a losing replica, a branch that lost an OR join) ends
``cancelled`` when its node resolves, and only an attempt of an unfinished
workflow is ``in-flight``.  Recordings without trace ids (an untraced run)
still produce the ledger, just without causal arrows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable

from .observer import spans_of
from .recorder import JOURNAL_VERSION

__all__ = [
    "AttemptRecord",
    "DecisionRecord",
    "WorkflowTimeline",
    "load_recording",
    "build_timelines",
    "render_timeline",
    "render_report",
]

_RECOVERY_TOPICS = (
    "recovery.retry",
    "recovery.checkpoint_restart",
    "recovery.replication_win",
    "recovery.exhausted",
    "recovery.resolved",
)
#: Entry keys a decision's detail leaves out: its identity and its place.
_DECISION_KEYS = (
    "seq",
    "topic",
    "activity",
    "at",
    "workflow_id",
    "trace_id",
    "span_id",
    "parent_id",
)


@dataclass
class AttemptRecord:
    """One submission attempt: birth, host, and detector verdict."""

    job: str
    activity: str
    host: str = ""
    started_at: float | None = None
    ended_at: float | None = None
    outcome: str = "in-flight"
    reason: str = ""
    exception: str = ""
    span_id: str = ""
    parent_id: str = ""
    #: Human description of the causal parent event (resolved via span
    #: ids), e.g. ``recovery.retry[s16]``; "" when untraced.
    caused_by: str = ""


@dataclass
class DecisionRecord:
    """One recovery-framework dispatch (retry / restart / win / verdict)."""

    topic: str
    activity: str
    at: float = 0.0
    span_id: str = ""
    parent_id: str = ""
    caused_by: str = ""
    detail: dict[str, Any] = field(default_factory=dict)


@dataclass
class WorkflowTimeline:
    """Everything one workflow instance did, in causal order."""

    workflow_id: str
    workflow: str = ""
    status: str = "in-flight"
    finished_at: float | None = None
    trace_id: str = ""
    attempts: list[AttemptRecord] = field(default_factory=list)
    decisions: list[DecisionRecord] = field(default_factory=list)
    #: node → terminal status, from engine.node_completed/cancelled.
    nodes: dict[str, str] = field(default_factory=dict)

    @property
    def checkpoint_restarts(self) -> list[DecisionRecord]:
        return [
            d for d in self.decisions if d.topic == "recovery.checkpoint_restart"
        ]

    def verdict_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for attempt in self.attempts:
            counts[attempt.outcome] = counts.get(attempt.outcome, 0) + 1
        return counts


def load_recording(path: str) -> list[dict[str, Any]]:
    """Parse a recorder spill/dump file into journal entries.

    Tolerates a trailing partial line (a run that died mid-write) but
    refuses a journal whose version header is from a newer layout.
    """
    entries: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if lineno > 0:  # torn final write: salvage what we have
                    break
                raise
            version = record.get("journal_version")
            if version is not None:
                if version > JOURNAL_VERSION:
                    raise ValueError(
                        f"recording {path!r} has journal_version {version}; "
                        f"this build reads up to {JOURNAL_VERSION}"
                    )
                continue
            entries.append(record)
    return entries


def build_timelines(
    entries: Iterable[dict[str, Any]],
) -> dict[str, WorkflowTimeline]:
    """Group journal entries into per-workflow causally-linked timelines.

    The attempts are the ``task.attempt`` spans of the journal replayed as
    log records (:func:`~repro.obs.observer.spans_of`, the decoder every
    rendered view shares), so an attempt its node's resolution cancelled
    ends there, ``cancelled``.  Node statuses, decisions and the span ids
    the causal arrows resolve against are read off the entries by topic."""
    timelines: dict[str, WorkflowTimeline] = {}
    # span_id → short description of the event that carried it, for
    # resolving each parent_id into a readable causal arrow.
    span_events: dict[str, str] = {}
    started: set[str] = set()  # jobs with a TaskStart in the journal
    exceptions: dict[str, str] = {}

    def timeline(entry: dict[str, Any]) -> WorkflowTimeline:
        wfid = str(entry.get("workflow_id", "") or "")
        tl = timelines.get(wfid)
        if tl is None:
            tl = timelines[wfid] = WorkflowTimeline(workflow_id=wfid)
        if not tl.workflow and entry.get("workflow"):
            tl.workflow = str(entry["workflow"])
        if not tl.trace_id and entry.get("trace_id"):
            tl.trace_id = str(entry["trace_id"])
        return tl

    def register_span(span: Any, description: str) -> None:
        if span:
            span_events[str(span)] = f"{description}[{span}]"

    records = []
    for entry in entries:
        topic = str(entry.get("topic", ""))
        records.append(
            (entry.get("seq", 0), float(entry.get("at", 0.0) or 0.0), 0.0, topic, entry)
        )
        if topic == "engine.node_launched":
            register_span(entry.get("span_id"), f"launch:{entry.get('node', '?')}")
        elif topic in ("engine.node_completed", "engine.node_cancelled"):
            status = str(entry.get("status", "cancelled"))
            timeline(entry).nodes[str(entry.get("node", "?"))] = status
        elif topic == "engine.workflow_finished":
            tl = timeline(entry)
            tl.status = str(entry.get("status", ""))
            at = entry.get("at")
            tl.finished_at = float(at) if at is not None else None
        elif topic.startswith("task."):
            timeline(entry)
            if topic == "task.active":
                started.add(entry.get("job_id", ""))
            elif entry.get("exception"):
                exceptions[entry.get("job_id", "")] = str(entry["exception"])
        elif topic in _RECOVERY_TOPICS:
            decision = DecisionRecord(
                topic=topic,
                activity=str(entry.get("activity", "")),
                at=float(entry.get("at", 0.0) or 0.0),
                span_id=str(entry.get("span_id", "") or ""),
                parent_id=str(entry.get("parent_id", "") or ""),
                detail={k: v for k, v in entry.items() if k not in _DECISION_KEYS},
            )
            timeline(entry).decisions.append(decision)
            register_span(decision.span_id, topic)

    for span in spans_of(records):
        if span.name != "task.attempt":
            continue
        labels = span.labels
        job = labels["job"]
        attempt = AttemptRecord(
            job=job,
            activity=labels["activity"],
            host=labels["host"],
            started_at=span.sim_start if job in started else None,
            ended_at=span.sim_end,
            outcome=labels.get("outcome", "in-flight"),
            reason=labels.get("reason", ""),
            exception=exceptions.get(job, ""),
            span_id=str(labels.get("span_id", "")),
            parent_id=str(labels.get("parent_id", "")),
        )
        timelines[labels.get("workflow_id", "")].attempts.append(attempt)
        register_span(attempt.span_id, f"attempt:{job}")

    # Resolve causal arrows now every span is registered.
    for tl in timelines.values():
        for record in (*tl.attempts, *tl.decisions):
            if record.parent_id:
                record.caused_by = span_events.get(
                    record.parent_id, f"[{record.parent_id}]"
                )
    return timelines


def _fmt_time(value: float | None) -> str:
    return "?" if value is None else f"{value:.3f}"


def render_timeline(tl: WorkflowTimeline) -> str:
    """One workflow's post-mortem as indented text."""
    title = tl.workflow_id or tl.workflow or "(unscoped run)"
    lines = [
        f"workflow {title}"
        + (f" [{tl.workflow}]" if tl.workflow and tl.workflow_id else "")
        + f" — {tl.status}"
        + (f" at {_fmt_time(tl.finished_at)}s" if tl.finished_at else "")
        + (f"  trace={tl.trace_id}" if tl.trace_id else "")
    ]
    if tl.nodes:
        summary = ", ".join(f"{n}={s}" for n, s in sorted(tl.nodes.items()))
        lines.append(f"  nodes: {summary}")
    verdicts = tl.verdict_counts()
    if verdicts:
        summary = ", ".join(f"{k}={v}" for k, v in sorted(verdicts.items()))
        lines.append(f"  attempts ({len(tl.attempts)}): {summary}")
    for attempt in tl.attempts:
        span = f"[{attempt.span_id}] " if attempt.span_id else ""
        window = f"{_fmt_time(attempt.started_at)}→{_fmt_time(attempt.ended_at)}"
        verdict = attempt.outcome
        if attempt.reason:
            verdict += f"({attempt.reason})"
        if attempt.exception:
            verdict += f" exception={attempt.exception}"
        arrow = f"  ⇐ {attempt.caused_by}" if attempt.caused_by else ""
        lines.append(
            f"    {span}{attempt.job} {attempt.activity}@{attempt.host}: "
            f"{verdict} {window}s{arrow}"
        )
    if tl.decisions:
        lines.append(f"  recovery decisions ({len(tl.decisions)}):")
        for decision in tl.decisions:
            span = f"[{decision.span_id}] " if decision.span_id else ""
            extra = ", ".join(
                f"{k}={v}" for k, v in decision.detail.items() if v is not None
            )
            arrow = f"  ⇐ {decision.caused_by}" if decision.caused_by else ""
            lines.append(
                f"    {span}{decision.topic} {decision.activity} "
                f"@{_fmt_time(decision.at)}s"
                + (f" ({extra})" if extra else "")
                + arrow
            )
    restarts = tl.checkpoint_restarts
    if restarts:
        lines.append(f"  checkpoint restarts: {len(restarts)}")
    return "\n".join(lines)


def render_report(
    timelines: dict[str, WorkflowTimeline], *, workflow_id: str | None = None
) -> str:
    """Full ``repro inspect`` text output (optionally one instance)."""
    if workflow_id is not None:
        if workflow_id not in timelines:
            known = ", ".join(sorted(timelines)) or "(none)"
            return f"no workflow {workflow_id!r} in recording; found: {known}"
        return render_timeline(timelines[workflow_id])
    ordered = sorted(timelines.items())
    return "\n\n".join(render_timeline(tl) for _, tl in ordered)
