"""The metric catalogue, generated from the declarations themselves.

Every family the telemetry plane emits is a module-level
:class:`~repro.obs.metrics.MetricSpec` in the module that emits it; this
renders them as the table README.md carries between two marker comments::

    python -m repro.obs.catalogue --check README.md    # CI: fail on drift
    python -m repro.obs.catalogue --write README.md    # regenerate in place
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import estimators, observer
from .metrics import MetricSpec

__all__ = ["metric_specs", "render", "main"]

BEGIN = "<!-- metric-catalogue:begin (python -m repro.obs.catalogue --write README.md) -->"
END = "<!-- metric-catalogue:end -->"


def metric_specs() -> list[MetricSpec]:
    """Declared families, in declaration order, module by module."""
    return [
        value
        for module in (observer, estimators)
        for value in vars(module).values()
        if isinstance(value, MetricSpec)
    ]


def render() -> str:
    rows = ["| metric | kind | labels | help |", "|---|---|---|---|"]
    for spec in metric_specs():
        labels = ", ".join(
            f"{name}?" if name in spec.optional else name for name in spec.labels
        )
        rows.append(f"| `{spec.name}` | {spec.kind} | {labels or '—'} | {spec.help} |")
    return "\n".join(rows)


def _spliced(text: str) -> str:
    head, _, rest = text.partition(BEGIN)
    _, found, tail = rest.partition(END)
    if not found:
        raise SystemExit("catalogue markers not found")
    return f"{head}{BEGIN}\n{render()}\n{END}{tail}"


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
        print(f"{path}: metric catalogue is out of date (run with --write)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
