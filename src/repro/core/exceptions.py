"""User-defined exceptions and their handler bindings.

Requirement 2.3 of the paper: users must be able to *define* task-specific
failures ("out of memory", "disk_full", solver-didn't-converge, ...) and bind
each one to a recovery procedure — typically an alternative task — without
touching the application code.

An exception here is identified by a name.  Tasks raise exceptions through
the task-side notification API (:mod:`repro.detection.api`); the workflow
specification binds exception names (or glob patterns over names) to
workflow-level handlers.  Matching is most-specific-first: an exact name
binding beats a pattern binding, and among patterns the longest literal
prefix wins.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from typing import Any

__all__ = ["UserException", "ExceptionBinding", "ExceptionTable"]


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


@dataclass(frozen=True)
class ExceptionBinding:
    """Binds an exception name/pattern to a handler activity.

    ``handler`` names the activity to launch when a matching exception is
    raised (the *alternative task* of Section 5.3).  ``rethrow_as`` lets a
    binding translate the exception instead of handling it, propagating a
    renamed exception to any enclosing scope.
    """

    pattern: str
    handler: str | None = None
    rethrow_as: str | None = None

    def __post_init__(self) -> None:
        if not self.pattern:
            raise ValueError("exception binding pattern must be non-empty")
        if (self.handler is None) == (self.rethrow_as is None):
            raise ValueError(
                "exception binding must set exactly one of handler/rethrow_as"
            )

    @property
    def is_pattern(self) -> bool:
        return any(ch in self.pattern for ch in "*?[")

    def matches(self, name: str) -> bool:
        if self.is_pattern:
            return fnmatch.fnmatchcase(name, self.pattern)
        return self.pattern == name

    def specificity(self) -> tuple[int, int]:
        """Sort key: exact bindings first, then longest literal prefix."""
        if not self.is_pattern:
            return (2, len(self.pattern))
        literal = 0
        for ch in self.pattern:
            if ch in "*?[":
                break
            literal += 1
        return (1, literal)


class ExceptionTable:
    """Ordered collection of exception bindings for one activity.

    Lookup returns the most specific matching binding, or ``None`` when the
    exception is unhandled (in which case the recovery coordinator treats it
    like an unmaskable failure and escalates).
    """

    def __init__(self, bindings: list[ExceptionBinding] | None = None) -> None:
        self._bindings: list[ExceptionBinding] = list(bindings or [])

    def add(self, binding: ExceptionBinding) -> None:
        self._bindings.append(binding)

    def __len__(self) -> int:
        return len(self._bindings)

    def __iter__(self):
        return iter(self._bindings)

    def lookup(self, exc: UserException | str) -> ExceptionBinding | None:
        """Find the most specific binding matching *exc*, if any."""
        name = exc.name if isinstance(exc, UserException) else exc
        matches = [b for b in self._bindings if b.matches(name)]
        if not matches:
            return None
        return max(matches, key=lambda b: b.specificity())
