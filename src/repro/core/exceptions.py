"""User-defined exceptions and the one rule that routes them.

Requirement 2.3 of the paper: users must be able to *define* task-specific
failures ("out of memory", "disk_full", solver-didn't-converge, ...) and
recover from each — typically by an alternative task — without touching
the application code.

An exception here is identified by a name.  Tasks raise exceptions through
the task-side notification API (:mod:`repro.detection.api`).  A
specification routes them in two places, both by :func:`specificity`: an
activity's ``<Rethrow>`` records rename an exception first, then its
exception edges pick the alternative task.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from typing import Any

__all__ = ["UserException", "specificity"]


@dataclass(frozen=True)
class UserException:
    """A task-specific failure raised during execution.

    ``name`` identifies the exception (e.g. ``"disk_full"``); ``message``
    and ``data`` carry optional diagnostics from the task.
    """

    name: str
    message: str = ""
    data: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("exception name must be non-empty")

    def __str__(self) -> str:
        return f"{self.name}: {self.message}" if self.message else self.name


def specificity(pattern: str, name: str) -> tuple[int, int] | None:
    """How specifically *pattern* matches the exception *name*: ``None``
    when it does not, else a key where more specific is larger.

    A pattern holding ``*``, ``?`` or ``[`` is a glob, any other an exact
    name; an exact name beats a glob, and among globs the longest literal
    prefix wins.  Equal keys tie: every tied exception edge fires, and the
    first declared of tied ``<Rethrow>`` records translates.

    >>> specificity("disk_full", "disk_full"), specificity("disk_*", "disk_full")
    ((2, 9), (1, 5))
    >>> specificity("net_*", "disk_full") is None
    True
    """
    literal = next((i for i, ch in enumerate(pattern) if ch in "*?["), len(pattern))
    if literal == len(pattern):
        return (2, literal) if pattern == name else None
    return (1, literal) if fnmatch.fnmatchcase(name, pattern) else None
