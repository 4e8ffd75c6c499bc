"""Exporters for the observability layer.

Three renderings of one recording:

* :func:`jsonl_lines` / :func:`write_jsonl` — newline-delimited JSON, one
  record per line (``{"kind": "event" | "span" | "metrics", ...}``; an
  event line is its journal entry).
  Greppable, streamable, and the replay-friendly machine format;
* :func:`prometheus_text` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` / cumulative ``_bucket{le=...}`` histograms),
  scrape-able or diffable as a run summary;
* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  ``trace_event`` JSON object format: open the file in ``chrome://tracing``
  or https://ui.perfetto.dev and the run renders as a timeline.  Spans are
  laid out on the **simulation clock** (microsecond ticks = virtual
  microseconds) and grouped into one named track per node/activity, so
  nested ``node.run`` → ``task.attempt`` → ``recovery.backoff`` spans are
  visible per task.

All three are pure functions over the recorder/registry state — they take
no locks and mutate nothing, so exporting mid-run is safe.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .metrics import MetricsRegistry
    from .spans import Span

__all__ = [
    "atomic_write_text",
    "jsonl_lines",
    "write_jsonl",
    "prometheus_text",
    "chrome_trace",
    "write_chrome_trace",
]


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write *text* to *path* via ``.tmp`` + rename.

    A scraper or a tailing reader never sees a half-written export: the
    file either holds the previous complete contents or the new ones.
    """
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, target)


# -- JSON lines ---------------------------------------------------------------


def _json_default(value: Any) -> Any:
    return str(value)


def _finite(value: float) -> float | str:
    """JSON has no Infinity/NaN literals; spell them as strings."""
    if math.isinf(value) or math.isnan(value):
        return str(value)
    return value


def jsonl_lines(
    *,
    events: Iterable[dict[str, Any]] = (),
    spans: Iterable["Span"] = (),
    metrics: "MetricsRegistry | None" = None,
    header: dict[str, Any] | None = None,
) -> Iterator[str]:
    """One JSON document per record: every event (its journal entry,
    ``{"kind": "event", "seq": …, "topic": …, …}``), then every span, then a
    single trailing metrics snapshot (when a registry is given) — after one
    ``{"kind": "header", ...}`` line when the export has something to say
    about itself (*header*: that the log it was rendered from wrapped)."""
    if header:
        yield json.dumps({"kind": "header", **header}, sort_keys=True)
    for entry in events:
        line = {"kind": "event", **entry}
        if isinstance(line.get("at"), float):
            line["at"] = _finite(line["at"])
        yield json.dumps(line, sort_keys=True, default=_json_default)
    for span in spans:
        yield json.dumps(
            {
                "kind": "span",
                "id": span.id,
                "name": span.name,
                "parent": span.parent,
                "labels": span.labels,
                "sim_start": _finite(span.sim_start),
                "sim_end": None if span.sim_end is None else _finite(span.sim_end),
                "wall_duration": span.wall_duration,
            },
            sort_keys=True,
            default=_json_default,
        )
    if metrics is not None:
        yield json.dumps(
            {"kind": "metrics", "families": metrics.snapshot()},
            sort_keys=True,
            default=_json_default,
        )


def write_jsonl(
    path: str | Path,
    *,
    events: Iterable[dict[str, Any]] = (),
    spans: Iterable["Span"] = (),
    metrics: "MetricsRegistry | None" = None,
    header: dict[str, Any] | None = None,
) -> int:
    """Write the JSON-lines export to *path* atomically; returns the line
    count."""
    lines = list(jsonl_lines(events=events, spans=spans, metrics=metrics, header=header))
    atomic_write_text(path, "".join(line + "\n" for line in lines))
    return len(lines)


# -- Prometheus text exposition -----------------------------------------------


def _prom_name(name: str) -> str:
    """Metric names may arrive dotted; Prometheus wants [a-zA-Z0-9_:]."""
    return "".join(c if c.isalnum() or c in "_:" else "_" for c in name)


def _prom_labels(
    labels: dict[str, str], extra: tuple[tuple[str, str], ...] = ()
) -> str:
    items = [*sorted(labels.items()), *extra]
    if not items:
        return ""
    rendered = ",".join(
        f'{k}="{v.replace(chr(92), chr(92) * 2).replace(chr(34), chr(92) + chr(34))}"'
        for k, v in items
    )
    return "{" + rendered + "}"


def _prom_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value) if isinstance(value, float) else str(value)


def prometheus_text(registry: "MetricsRegistry") -> str:
    """The registry in Prometheus text exposition format (version 0.0.4).

    Histograms render cumulatively with the conventional ``_bucket``
    (``le`` upper bounds, ``+Inf`` last), ``_sum`` and ``_count`` series,
    plus ``_p50``/``_p95``/``_p99`` summary lines (bucket upper bounds).
    """
    lines: list[str] = []
    for family in registry.families():
        name = _prom_name(family.name)
        if family.help:
            lines.append(f"# HELP {name} {family.help}")
        lines.append(f"# TYPE {name} {family.kind}")
        for key, instrument in family.series.items():
            labels = dict(key)
            if family.kind == "histogram":
                cumulative = 0
                bounds = [*instrument.bounds, float("inf")]
                for bound, bucket_count in zip(bounds, instrument.counts):
                    cumulative += bucket_count
                    le = "+Inf" if math.isinf(bound) else _prom_value(bound)
                    lines.append(
                        f"{name}_bucket"
                        f"{_prom_labels(labels, (('le', le),))} {cumulative}"
                    )
                lines.append(
                    f"{name}_sum{_prom_labels(labels)} "
                    f"{_prom_value(instrument.sum)}"
                )
                lines.append(
                    f"{name}_count{_prom_labels(labels)} {instrument.count}"
                )
                # Summary-style quantile lines (bucket upper bounds, the
                # best a bucketed histogram can report) so scrape-side
                # dashboards get tail latency without PromQL.
                for q in (0.5, 0.95, 0.99):
                    lines.append(
                        f"{name}_p{int(q * 100)}{_prom_labels(labels)} "
                        f"{_prom_value(instrument.quantile(q))}"
                    )
            else:
                lines.append(
                    f"{name}{_prom_labels(labels)} {_prom_value(instrument.value)}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


# -- Chrome trace_event -------------------------------------------------------

#: Simulated seconds → trace microseconds.  Perfetto's time axis is in
#: microsecond ticks; mapping 1 virtual second to 1 trace second keeps
#: timestamps human-readable.
SIM_TO_MICROS = 1_000_000.0

#: Track (``tid``) a span lands on: its node/activity/technique label, so
#: each task's attempts and recovery waits nest on one named row.
_TRACK_LABELS = ("node", "activity", "technique")


def _track_for(span: "Span") -> str:
    for key in _TRACK_LABELS:
        value = span.labels.get(key)
        if value is not None:
            return str(value)
    return span.name.split(".", 1)[0]


def chrome_trace(spans: Iterable["Span"], *, process_name: str = "repro") -> dict:
    """Spans as a Chrome ``trace_event`` JSON object (complete events).

    Open spans are rendered with zero duration at their start time rather
    than dropped, so an interrupted run still produces a loadable trace.
    """
    tracks: dict[str, int] = {}
    events: list[dict] = []
    # Causal flow bookkeeping: spans stamped by the tracer carry
    # span_id/parent_id labels; where both ends of a parent→child edge are
    # present, a Chrome flow ("s"/"f" pair) draws the arrow — retry
    # decision to the attempt it spawned, attempt to the verdict it drew.
    by_span_id: dict[str, tuple[float, int]] = {}
    flow_edges: list[tuple[str, str, float, int]] = []
    for span in spans:
        track = _track_for(span)
        tid = tracks.setdefault(track, len(tracks) + 1)
        ts = span.sim_start * SIM_TO_MICROS
        span_id = span.labels.get("span_id")
        if span_id is not None:
            by_span_id[str(span_id)] = (ts, tid)
        parent_id = span.labels.get("parent_id")
        if span_id is not None and parent_id is not None:
            flow_edges.append((str(parent_id), str(span_id), ts, tid))
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": ts,
                "dur": span.sim_duration * SIM_TO_MICROS,
                "pid": 1,
                "tid": tid,
                "args": {
                    **{k: str(v) for k, v in span.labels.items()},
                    "wall_seconds": round(span.wall_duration, 9),
                },
            }
        )
    for flow_id, (parent_id, span_id, child_ts, child_tid) in enumerate(
        flow_edges, start=1
    ):
        source = by_span_id.get(parent_id)
        if source is None:
            continue  # the causing event was outside this recording
        source_ts, source_tid = source
        common = {"cat": "causal", "name": "causal", "id": flow_id, "pid": 1}
        events.append(
            {**common, "ph": "s", "ts": source_ts, "tid": source_tid}
        )
        events.append(
            {
                **common,
                "ph": "f",
                "bp": "e",
                "ts": max(child_ts, source_ts),
                "tid": child_tid,
            }
        )
    meta: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "args": {"name": process_name},
        }
    ]
    for track, tid in tracks.items():
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": track},
            }
        )
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str | Path, spans: Iterable["Span"], *, process_name: str = "repro"
) -> int:
    """Write the Chrome trace to *path* atomically; returns the event
    count."""
    payload = chrome_trace(spans, process_name=process_name)
    atomic_write_text(path, json.dumps(payload, indent=1) + "\n")
    return len(payload["traceEvents"])
