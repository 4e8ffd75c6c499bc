"""Post-mortem reconstruction of a flight recording (``repro inspect``).

Reads a journal — a :class:`~repro.obs.recorder.FlightRecorder` spill/dump
file or its in-memory entries — and rebuilds what each workflow instance
went through: the attempt ledger (every submission with its host, outcome
and detector verdict), the recovery decisions that dispatched them, and
the checkpoint restarts, all stitched together through the causal
trace/span ids stamped by :mod:`repro.obs.tracectx`.  The output answers
the operator's question after a masked failure: *which decision caused
this attempt, and which verdict caused that decision?*

Everything here works on plain dicts; recordings without trace ids (an
untraced run) still produce the ledger, just without causal arrows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable

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

_TERMINAL_TASK = ("task.done", "task.failed", "task.exception")
_RECOVERY_TOPICS = (
    "recovery.retry",
    "recovery.checkpoint_restart",
    "recovery.replication_win",
    "recovery.exhausted",
    "recovery.resolved",
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
    """Group journal entries into per-workflow causally-linked timelines."""
    timelines: dict[str, WorkflowTimeline] = {}
    # span_id → short description of the event that carried it, for
    # resolving each entry's parent_id into a readable causal arrow.
    span_events: dict[str, str] = {}

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

    def register_span(entry: dict[str, Any], description: str) -> None:
        span = entry.get("span_id")
        if span:
            span_events[str(span)] = f"{description}[{span}]"

    attempts_by_job: dict[str, AttemptRecord] = {}
    for entry in entries:
        topic = str(entry.get("topic", ""))
        if topic == "engine.node_launched":
            register_span(entry, f"launch:{entry.get('node', '?')}")
        elif topic in ("engine.node_completed", "engine.node_cancelled"):
            tl = timeline(entry)
            node = str(entry.get("node", "?"))
            tl.nodes[node] = str(entry.get("status", "cancelled"))
        elif topic == "engine.workflow_finished":
            tl = timeline(entry)
            tl.status = str(entry.get("status", ""))
            at = entry.get("at")
            tl.finished_at = float(at) if at is not None else None
        elif topic == "task.active":
            tl = timeline(entry)
            job = str(entry.get("job_id", entry.get("job", "?")))
            record = AttemptRecord(
                job=job,
                activity=str(entry.get("activity", "")),
                host=str(entry.get("hostname", entry.get("host", ""))),
                started_at=float(entry["at"]) if "at" in entry else None,
                outcome="in-flight",
                span_id=str(entry.get("span_id", "") or ""),
                parent_id=str(entry.get("parent_id", "") or ""),
            )
            attempts_by_job[job] = record
            tl.attempts.append(record)
            register_span(entry, f"attempt:{job}")
        elif topic in _TERMINAL_TASK:
            tl = timeline(entry)
            job = str(entry.get("job_id", entry.get("job", "?")))
            record = attempts_by_job.get(job)
            if record is None:  # terminal with no recorded start
                record = AttemptRecord(
                    job=job,
                    activity=str(entry.get("activity", "")),
                    host=str(entry.get("hostname", entry.get("host", ""))),
                    span_id=str(entry.get("span_id", "") or ""),
                    parent_id=str(entry.get("parent_id", "") or ""),
                )
                attempts_by_job[job] = record
                tl.attempts.append(record)
                register_span(entry, f"attempt:{job}")
            record.outcome = topic.rsplit(".", 1)[1]
            record.reason = str(entry.get("reason", "") or "")
            record.exception = str(entry.get("exception", "") or "")
            if "at" in entry:
                record.ended_at = float(entry["at"])
        elif topic in _RECOVERY_TOPICS:
            tl = timeline(entry)
            decision = DecisionRecord(
                topic=topic,
                activity=str(entry.get("activity", "")),
                at=float(entry.get("at", 0.0) or 0.0),
                span_id=str(entry.get("span_id", "") or ""),
                parent_id=str(entry.get("parent_id", "") or ""),
                detail={
                    k: v
                    for k, v in entry.items()
                    if k
                    not in (
                        "seq",
                        "topic",
                        "activity",
                        "at",
                        "workflow_id",
                        "trace_id",
                        "span_id",
                        "parent_id",
                    )
                },
            )
            tl.decisions.append(decision)
            register_span(entry, topic)

    # Second pass: resolve causal arrows now every span is registered.
    for tl in timelines.values():
        for attempt in tl.attempts:
            if attempt.parent_id:
                attempt.caused_by = span_events.get(
                    attempt.parent_id, f"[{attempt.parent_id}]"
                )
        for decision in tl.decisions:
            if decision.parent_id:
                decision.caused_by = span_events.get(
                    decision.parent_id, f"[{decision.parent_id}]"
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
