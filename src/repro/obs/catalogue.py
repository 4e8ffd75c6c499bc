"""The metric and topic catalogues, generated from the declarations.

Every family the telemetry plane emits is a module-level
:class:`~repro.obs.metrics.MetricSpec` in the module that emits it, and
every bus topic the stack publishes on is a module-level string constant
in the module that publishes it; this renders both as the tables README.md
carries between marker comments::

    python -m repro.obs.catalogue --check README.md    # CI: fail on drift
    python -m repro.obs.catalogue --write README.md    # regenerate in place
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import NamedTuple

from ..detection import detector
from ..engine import engine, host, recovery
from ..sim import adaptive, engine_mc, parallel
from . import estimators, health, observer
from .metrics import MetricSpec

__all__ = [
    "TopicSpec",
    "metric_specs",
    "topic_specs",
    "render",
    "render_topics",
    "main",
]


def metric_specs() -> list[MetricSpec]:
    """Declared families, in declaration order, module by module."""
    return [
        value
        for module in (observer, estimators, engine_mc, parallel, adaptive)
        for value in vars(module).values()
        if isinstance(value, MetricSpec)
    ]


class TopicSpec(NamedTuple):
    """One declared bus topic: who publishes it, and what it carries."""

    topic: str
    module: str
    payload: str


#: Publishing module, the prefix its topic constants share, and what their
#: publications carry: a type, a description, or ``None`` where the module
#: declares a type per topic (its ``PAYLOADS``).  Every ``task.*``,
#: ``engine.*`` and ``recovery.*`` payload names its instance under
#: ``workflow_id``.
_TOPIC_SOURCES = (
    (detector, "TASK_", detector.AttemptOutcome),
    (detector, "HOST_", "`str` (hostname)"),
    (host, "ENGINE_", None),
    (engine, "ENGINE_", None),
    (recovery, "RECOVERY_", None),
    (estimators, "DRIFT_", "`dict`"),
    (health, "ALERT_", "`dict`"),
)


def _payload(declared: type | str) -> str:
    """The payload column: a ``NamedTuple`` by its name and fields."""
    if isinstance(declared, str):
        return declared
    return f"`{declared.__name__}` ({', '.join(declared._fields)})"


def topic_specs() -> list[TopicSpec]:
    """Declared topics, in declaration order, publisher by publisher —
    the whole namespace: nothing under ``src/repro`` publishes on a topic
    that is not one of these constants."""
    return [
        TopicSpec(
            value,
            module.__name__,
            _payload(module.PAYLOADS[value] if payload is None else payload),
        )
        for module, prefix, payload in _TOPIC_SOURCES
        for name, value in vars(module).items()
        if name.startswith(prefix) and isinstance(value, str)
    ]


def render() -> str:
    """The metric table."""
    rows = ["| metric | kind | labels | help |", "|---|---|---|---|"]
    for spec in metric_specs():
        labels = ", ".join(spec.labels) or "—"
        rows.append(f"| `{spec.name}` | {spec.kind} | {labels} | {spec.help} |")
    return "\n".join(rows)


def render_topics() -> str:
    """The topic table."""
    rows = ["| topic | published by | payload |", "|---|---|---|"]
    rows += [
        f"| `{spec.topic}` | `{spec.module}` | {spec.payload} |"
        for spec in topic_specs()
    ]
    return "\n".join(rows)


#: Marker name in README.md → what is generated between its markers.
_TABLES = (("metric-catalogue", render), ("topic-catalogue", render_topics))


def _spliced(text: str) -> str:
    for name, table in _TABLES:
        begin = f"<!-- {name}:begin (python -m repro.obs.catalogue --write README.md) -->"
        end = f"<!-- {name}:end -->"
        head, _, rest = text.partition(begin)
        _, found, tail = rest.partition(end)
        if not found:
            raise SystemExit(f"{name} markers not found")
        text = f"{head}{begin}\n{table()}\n{end}{tail}"
    return text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", metavar="FILE", type=Path)
    mode.add_argument("--write", metavar="FILE", type=Path)
    args = parser.parse_args(argv)
    path = args.check or args.write
    text = path.read_text(encoding="utf-8")
    wanted = _spliced(text)
    if args.write:
        path.write_text(wanted, encoding="utf-8")
    elif wanted != text:
        print(f"{path}: catalogue tables are out of date (run with --write)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
