"""Execution reports: per-node tables and ASCII Gantt timelines.

The paper's engine "monitor[s] the status of submitted tasks"; operators of
a real deployment need to *see* that status.  This module renders a
completed (or in-flight) :class:`~repro.engine.instance.WorkflowInstance`
as:

* :func:`node_table` — one row per node: status, start/finish, duration,
  tries;
* :func:`gantt` — an ASCII timeline showing when each node ran, which makes
  recovery behaviour visible at a glance (retries stretch a bar; an
  alternative task starts where the failed task ended);
* :func:`run_report` — both, plus the workflow verdict.

Used by the CLI's ``--report`` flag.
"""

from __future__ import annotations

from .engine.instance import NodeStatus, WorkflowInstance

__all__ = ["node_table", "gantt", "run_report"]

_STATUS_GLYPH = {
    NodeStatus.DONE: "#",
    NodeStatus.FAILED: "x",
    NodeStatus.EXCEPTION: "!",
    NodeStatus.CANCELLED: "~",
    NodeStatus.RUNNING: ">",
}


def node_table(instance: WorkflowInstance) -> str:
    """Fixed-width per-node execution summary."""
    headers = ("node", "status", "start", "finish", "duration", "tries")
    widths = [
        max(12, max((len(n) for n in instance.nodes), default=4)),
        13,
        9,
        9,
        9,
        5,
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for name, node in instance.nodes.items():
        start = "-" if node.started_at is None else f"{node.started_at:.2f}"
        finish = "-" if node.finished_at is None else f"{node.finished_at:.2f}"
        if node.started_at is not None and node.finished_at is not None:
            duration = f"{node.finished_at - node.started_at:.2f}"
        else:
            duration = "-"
        tries = str(node.tries_used) if node.tries_used else "-"
        cells = (name, node.status.value, start, finish, duration, tries)
        lines.append(
            "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))
        )
    return "\n".join(lines)


def gantt(instance: WorkflowInstance, *, width: int = 64) -> str:
    """ASCII timeline: one bar per node that actually ran.

    Bar glyphs encode the outcome: ``#`` done, ``x`` failed, ``!``
    exception, ``~`` cancelled, ``>`` still running.  Skipped nodes are
    listed without bars.
    """
    ran = [
        (name, node)
        for name, node in instance.nodes.items()
        if node.started_at is not None
    ]
    if not ran:
        return "(no node ever started)"
    t0 = min(node.started_at for _, node in ran)
    t1_candidates = [
        node.finished_at for _, node in ran if node.finished_at is not None
    ]
    t1 = max(t1_candidates) if t1_candidates else t0 + 1.0
    span = max(t1 - t0, 1e-9)
    name_width = max(len(name) for name, _ in ran)
    lines = [f"t = [{t0:g}, {t1:g}]  ({span:g} seconds)"]
    for name, node in instance.nodes.items():
        if node.started_at is None:
            if node.status in (NodeStatus.SKIPPED_OK, NodeStatus.SKIPPED_ERROR):
                lines.append(f"{name.ljust(name_width)} |{'':{width}}| {node.status.value}")
            continue
        start = node.started_at
        finish = node.finished_at if node.finished_at is not None else t1
        begin_col = round((start - t0) / span * (width - 1))
        end_col = max(begin_col, round((finish - t0) / span * (width - 1)))
        glyph = _STATUS_GLYPH.get(node.status, "?")
        bar = [" "] * width
        for col in range(begin_col, end_col + 1):
            bar[col] = glyph
        lines.append(
            f"{name.ljust(name_width)} |{''.join(bar)}| {node.status.value}"
        )
    legend = "  ".join(
        f"{glyph}={status.value}" for status, glyph in _STATUS_GLYPH.items()
    )
    lines.append(legend)
    return "\n".join(lines)


def run_report(instance: WorkflowInstance, *, width: int = 64) -> str:
    """Full report: verdict + node table + timeline."""
    status = instance.status.value
    duration = (
        f"{instance.finished_at - instance.started_at:.3f}s"
        if instance.started_at is not None and instance.finished_at is not None
        else "n/a"
    )
    return "\n\n".join(
        [
            f"workflow {instance.spec.name!r}: {status} "
            f"(completion time {duration})",
            node_table(instance),
            gantt(instance, width=width),
        ]
    )
