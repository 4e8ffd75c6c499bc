"""Task-level failure handling policies.

Section 4 of the paper describes three task-level (masking) techniques —
retrying, replication, and checkpointing — configured declaratively on each
activity:

* ``max_tries`` / ``interval`` attributes enable **retrying** (Figure 2);
* ``policy='replica'`` plus multiple resource options enables
  **replication** (Figure 3);
* **checkpointing** needs no specification at all — a task announces itself
  as checkpoint-enabled by calling the task-side checkpoint API, and the
  framework then restarts it from the saved state when retrying
  (Section 4.3).

A :class:`FailurePolicy` value captures the per-activity configuration, and
its flat fields are the only representation of it: the
:class:`~repro.engine.recovery.RecoveryCoordinator` reads its three
decisions (how many slots, whether, where and when a crashed slot retries,
whether a submission carries the slot's checkpoint flag) straight off them.
Policies are plain immutable data so workflow specifications stay
declarative and serializable.

The paper's central claim is that the techniques *combine* freely
(Section 6: replicas may each be retried; retried attempts restart from
checkpoints).  They combine by attribute: set ``replication`` and
``max_tries`` on one policy and each replica retries; the three named
constructors cover Figures 2 and 3 and :func:`dataclasses.replace` every
other combination.  Retrying additionally supports exponential backoff
(``interval * backoff_factor**(n-1)``, capped at ``max_interval``) — a
standard Grid middleware refinement the paper's fixed ``interval`` subsumes
as the ``backoff_factor == 1`` case; :meth:`FailurePolicy.retry_delay` is
the one place that wait is computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from ..errors import PolicyError

__all__ = [
    "ResourceSelection",
    "ReplicationMode",
    "FailurePolicy",
    "DEFAULT_POLICY",
]


class ResourceSelection(str, Enum):
    """How to pick the resource for a retry attempt.

    The paper's Figure 2 retries on *the same* resource; its caption notes
    that "users can also specify retrying on different resources by simply
    defining multiple Grid resources" — which we expose as ``ROTATE``
    (round-robin across the program's resource options, skipping the one
    that just failed when possible).
    """

    SAME = "same"
    ROTATE = "rotate"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class ReplicationMode(str, Enum):
    """Whether an activity runs singly or replicated across resources."""

    NONE = "none"
    #: Submit simultaneously to every resource option; first success wins
    #: (Figure 3's ``policy='replica'``).
    REPLICA = "replica"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class FailurePolicy:
    """Task-level failure handling configuration for one activity.

    Attributes
    ----------
    max_tries:
        Maximum number of times the task may be *started* (first attempt
        included).  ``1`` means no retrying; the paper's ``max_tries='3'``
        example allows up to three tries.  ``None`` means unlimited retries
        — the semantics the paper's evaluation assumes ("each run is
        assumed to employ the retrying ... until it has completed").
    interval:
        Seconds to wait between a detected failure and the next try
        (Figure 2's ``interval='10'``).
    replication:
        ``REPLICA`` submits the task to all of its program's resource
        options at once and succeeds as soon as one replica succeeds.
        Combines with retrying: Section 6 notes each replica may itself be
        retried by also setting ``max_tries``.
    resource_selection:
        Resource choice for retries (same resource vs rotating through the
        program's options).
    restart_from_checkpoint:
        When the task has announced itself checkpoint-enabled, restart it
        from the last checkpoint flag instead of from the beginning.  On by
        default, matching the paper ("users do not have to specify
        anything about the checkpointing").
    retry_on_exception:
        Off by default: user-defined exceptions are task-specific failures
        and escalate straight to the workflow level (Figure 1).  Turning
        this on makes the task level treat exceptions like generic crashes
        and retry them — the (deliberately inappropriate) masking
        configuration whose cost Figure 13 quantifies.
    attempt_timeout:
        Per-attempt execution time limit (the paper's *performance
        failure*: "a linear solver task should reach convergence within 30
        minutes; otherwise, it would be considered to be a performance
        failure").  When an attempt neither completes nor fails within
        this many seconds, the framework cancels it and treats it as a
        task crash — so the retry/replication policy applies.  ``None``
        disables the limit.
    backoff_factor:
        Multiplier applied to ``interval`` per successive retry of the same
        slot: the *n*-th retry waits ``interval * backoff_factor**(n-1)``.
        ``1.0`` (the default) keeps the paper's fixed interval.
    max_interval:
        Upper bound on any single backoff wait; ``None`` leaves the
        geometric growth uncapped.
    """

    max_tries: int | None = 1
    interval: float = 0.0
    replication: ReplicationMode = ReplicationMode.NONE
    resource_selection: ResourceSelection = ResourceSelection.SAME
    restart_from_checkpoint: bool = True
    retry_on_exception: bool = False
    attempt_timeout: float | None = None
    backoff_factor: float = 1.0
    max_interval: float | None = None

    def __post_init__(self) -> None:
        if self.max_tries is not None and self.max_tries < 1:
            raise PolicyError(
                f"max_tries must be >= 1 (the first attempt) or None, "
                f"got {self.max_tries}"
            )
        if not self.interval >= 0:
            raise PolicyError(f"interval must be >= 0, got {self.interval}")
        if self.attempt_timeout is not None and not self.attempt_timeout > 0:
            raise PolicyError(
                f"attempt_timeout must be positive or None, "
                f"got {self.attempt_timeout}"
            )
        if not isinstance(self.replication, ReplicationMode):
            raise PolicyError(f"invalid replication mode: {self.replication!r}")
        if not isinstance(self.resource_selection, ResourceSelection):
            raise PolicyError(
                f"invalid resource selection: {self.resource_selection!r}"
            )
        if not self.backoff_factor >= 1.0:
            raise PolicyError(
                f"backoff_factor must be >= 1.0, got {self.backoff_factor}"
            )
        if self.max_interval is not None and not self.max_interval > 0:
            raise PolicyError(
                f"max_interval must be positive or None, got {self.max_interval}"
            )

    # -- convenience constructors -------------------------------------------

    @staticmethod
    def retrying(max_tries: int | None, interval: float = 0.0,
                 resource_selection: ResourceSelection = ResourceSelection.SAME,
                 ) -> "FailurePolicy":
        """Policy of Figure 2: retry up to *max_tries* total attempts."""
        return FailurePolicy(
            max_tries=max_tries,
            interval=interval,
            resource_selection=resource_selection,
        )

    @staticmethod
    def replica(max_tries: int | None = 1, interval: float = 0.0) -> "FailurePolicy":
        """Policy of Figure 3: replicate across all resource options.

        Passing ``max_tries > 1`` additionally retries each replica, the
        task-level combination described in Section 6.
        """
        return FailurePolicy(
            max_tries=max_tries,
            interval=interval,
            replication=ReplicationMode.REPLICA,
        )

    @staticmethod
    def backoff_retrying(
        max_tries: int | None,
        interval: float,
        backoff_factor: float = 2.0,
        max_interval: float | None = None,
        resource_selection: ResourceSelection = ResourceSelection.SAME,
    ) -> "FailurePolicy":
        """Retrying with exponentially growing waits between attempts."""
        return FailurePolicy(
            max_tries=max_tries,
            interval=interval,
            backoff_factor=backoff_factor,
            max_interval=max_interval,
            resource_selection=resource_selection,
        )

    # -- queries --------------------------------------------------------------

    @property
    def retries_enabled(self) -> bool:
        return self.max_tries is None or self.max_tries > 1

    @property
    def replicated(self) -> bool:
        return self.replication is ReplicationMode.REPLICA

    @property
    def uses_backoff(self) -> bool:
        return self.backoff_factor > 1.0

    def tries_remaining(self, tries_used: int) -> float:
        """Tries still available after *tries_used* starts (``inf`` when
        retries are unlimited)."""
        if self.max_tries is None:
            return float("inf")
        return max(0, self.max_tries - tries_used)

    def retry_delay(self, retry_number: int) -> float:
        """Wait before the *retry_number*-th retry of a slot (1-based).

        ``interval * backoff_factor**(retry_number - 1)``, capped at
        ``max_interval`` when one is set.  With ``backoff_factor == 1``
        this is the paper's fixed ``interval``.  The recovery coordinator
        and the ``backoff_retry`` sampler both wait exactly this long.

        A capped wait saturates before the power is taken, which overflows
        a float from ``2.0 ** 1024`` on: it is ``max_interval`` for every
        retry past the cap, however many (for any cap below ``1e307``
        times the interval).
        """
        if retry_number < 1:
            raise PolicyError(
                f"retry_number must be >= 1, got {retry_number}"
            )
        if self.interval == 0.0:
            return 0.0  # nothing to grow: the power could only overflow
        exponent = retry_number - 1
        cap = self.max_interval
        if (
            cap is not None
            and self.backoff_factor > 1.0
            # Past the cap by a factor e, far beyond any rounding of the
            # power, so ``min`` below would return the cap as well.
            and exponent * math.log(self.backoff_factor)
            > math.log(cap) - math.log(self.interval) + 1.0
        ):
            return cap
        delay = self.interval * self.backoff_factor**exponent
        if cap is not None:
            delay = min(delay, cap)
        return delay

    def techniques(self) -> tuple[str, ...]:
        """Names of the task-level techniques this policy activates,
        outermost first (replicas fan out, each restarts from its
        checkpoint, each retries)."""
        names: list[str] = []
        if self.replicated:
            names.append("replication")
        if self.restart_from_checkpoint:
            names.append("checkpointing")
        if self.retries_enabled:
            names.append("backoff_retry" if self.uses_backoff else "retrying")
        return tuple(names)

    def describe(self) -> str:
        """Human-readable one-line summary (used in engine logs)."""
        parts = []
        if self.replicated:
            parts.append("replicate across all resource options")
        if self.retries_enabled:
            limit = "unlimited" if self.max_tries is None else f"up to {self.max_tries}"
            pacing = f"interval {self.interval:g}s"
            if self.uses_backoff:
                pacing += f" x{self.backoff_factor:g} backoff"
                if self.max_interval is not None:
                    pacing += f" capped at {self.max_interval:g}s"
            parts.append(
                f"retry {limit} tries"
                f" ({self.resource_selection.value} resource,"
                f" {pacing})"
            )
        if self.restart_from_checkpoint:
            parts.append("restart from checkpoint when available")
        if self.retry_on_exception:
            parts.append("mask user-defined exceptions by retrying")
        if self.attempt_timeout is not None:
            parts.append(
                f"declare a performance failure after {self.attempt_timeout:g}s"
            )
        return "; ".join(parts) if parts else "no task-level recovery"


#: The default policy: single attempt, no replication, checkpoint-aware.
DEFAULT_POLICY = FailurePolicy()
