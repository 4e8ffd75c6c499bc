"""Composable task-level recovery strategies.

The paper's Section 4 presents retrying, replication and checkpointing as
*freely combinable* masking techniques, but the original coordinator
hardcoded one retry/replica control flow.  This module turns each technique
into a :class:`RecoveryStrategy` object and expresses combinations as
composition instead of branching:

* :class:`RetryStrategy` — the Figure 2 loop: budget check, resource
  selection (same / rotate), fixed inter-try interval;
* :class:`ExponentialBackoffRetryStrategy` — the same loop with the wait
  growing geometrically per successive retry of a slot
  (``interval * backoff_factor**(n-1)``, capped at ``max_interval``);
* :class:`CheckpointRestartStrategy` — a decorator that makes every
  (re)submission of the inner strategy carry the slot's last announced
  checkpoint flag (Section 4.3's restart-from-checkpoint);
* :class:`ReplicateStrategy` — a decorator that fans the inner strategy out
  over one slot per resolved resource option (Figure 3); each replica keeps
  its own independent inner retry loop, giving Section 6's "each replica
  may itself be retried" combination for free.

Strategies are *stateless*: all per-activity mutable state (try counts,
active jobs, timers) stays in the coordinator's slots, so one strategy
instance is shared by every run of an activity — and the coordinator does
resolve a policy, and ask :meth:`~RecoveryStrategy.plan_slots`, once per
(program, policy) pair and runtime, not per activity start.

:func:`resolve_strategy` maps a declarative
:class:`~repro.core.policy.FailurePolicy` to a strategy composition through
a :class:`StrategyRegistry`, so deployments can substitute their own
technique implementations (a different placement heuristic, a jittered
backoff) without touching the coordinator:

>>> resolve_strategy(FailurePolicy.replica(max_tries=None)).describe()
'replicate(checkpoint_restart(retry))'
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

from ..ckpt.manager import CheckpointManager
from ..core.policy import FailurePolicy
from ..errors import RecoveryError
from ..wpdl.model import Activity, Program
from .broker import Broker

__all__ = [
    "SlotPlan",
    "RetryDecision",
    "RecoveryStrategy",
    "RetryStrategy",
    "ExponentialBackoffRetryStrategy",
    "CheckpointRestartStrategy",
    "ReplicateStrategy",
    "StrategyRegistry",
    "DEFAULT_REGISTRY",
    "resolve_strategy",
]


@dataclass(frozen=True)
class SlotPlan:
    """One retry loop to start: which resource option it begins on."""

    option_index: int


@dataclass(frozen=True)
class RetryDecision:
    """Verdict for a crashed slot: try again on *option_index* after
    *delay* seconds.  ``None`` in its place means the budget is spent."""

    option_index: int
    delay: float = 0.0


class RecoveryStrategy(ABC):
    """One task-level masking technique (or a composition of them).

    The coordinator owns all mutable state; strategies are consulted at
    three points of an activity's life:

    * :meth:`plan_slots` — how many parallel retry loops, and on which
      resource options.  Asked once per (program, policy) pair, with the
      first activity that starts under it: the answer may depend on the
      program and the policy, on nothing else of the activity;
    * :meth:`next_attempt` — after a detected crash of one slot: retry
      (where, after how long) or give up;
    * :meth:`submit_flag` — at each submission: which checkpoint flag, if
      any, the attempt should restart from.
    """

    #: Registry name of the technique this class implements.
    name: str = "abstract"

    @abstractmethod
    def plan_slots(
        self, activity: Activity, program: Program, broker: Broker
    ) -> list[SlotPlan]:
        """Slots to open when the activity starts."""

    @abstractmethod
    def next_attempt(
        self,
        activity: Activity,
        program: Program,
        broker: Broker,
        *,
        failed_option: int,
        tries_used: int,
    ) -> RetryDecision | None:
        """Decide the crashed slot's next attempt; ``None`` exhausts it."""

    def submit_flag(
        self, activity: Activity, checkpoints: CheckpointManager, key: str
    ) -> str | None:
        """Checkpoint flag for the next submission of slot *key*."""
        return None

    def describe(self) -> str:
        """Composition-revealing name, e.g. ``replicate(retry)``."""
        return self.name


# ---------------------------------------------------------------------------
# Base techniques
# ---------------------------------------------------------------------------


class RetryStrategy(RecoveryStrategy):
    """Figure 2: a single retry loop with a fixed inter-try interval."""

    name = "retry"

    def plan_slots(
        self, activity: Activity, program: Program, broker: Broker
    ) -> list[SlotPlan]:
        return [SlotPlan(option_index=0)]

    def next_attempt(
        self,
        activity: Activity,
        program: Program,
        broker: Broker,
        *,
        failed_option: int,
        tries_used: int,
    ) -> RetryDecision | None:
        policy = activity.policy
        if policy.tries_remaining(tries_used) <= 0:
            return None
        option = broker.retry_index(
            activity,
            program,
            failed_index=failed_option,
            tries_used=tries_used,
            selection=policy.resource_selection,
        )
        return RetryDecision(
            option_index=option,
            delay=self._delay(policy, retry_number=tries_used),
        )

    def _delay(self, policy: FailurePolicy, *, retry_number: int) -> float:
        return policy.interval


class ExponentialBackoffRetryStrategy(RetryStrategy):
    """Retrying with geometrically growing waits between attempts.

    The *n*-th retry of a slot waits ``interval * backoff_factor**(n-1)``
    seconds, capped at the policy's ``max_interval``.  Against memoryless
    (exponential) failures the waits only add idle time — they never change
    an attempt's success probability — which is exactly what the
    ``backoff_retry`` sampler (:func:`repro.sim.samplers.sample_backoff_retry`)
    models and the engine-vs-sampler agreement tests verify.
    """

    name = "backoff_retry"

    def _delay(self, policy: FailurePolicy, *, retry_number: int) -> float:
        return policy.retry_delay(retry_number)


# ---------------------------------------------------------------------------
# Composing decorators
# ---------------------------------------------------------------------------


class CheckpointRestartStrategy(RecoveryStrategy):
    """Decorator: restart each attempt from the slot's last checkpoint.

    Wraps any inner strategy; only submission is affected (Section 4.3:
    checkpointing composes transparently with retrying and replication).
    """

    name = "checkpoint_restart"

    def __init__(self, inner: RecoveryStrategy) -> None:
        self.inner = inner

    def plan_slots(
        self, activity: Activity, program: Program, broker: Broker
    ) -> list[SlotPlan]:
        return self.inner.plan_slots(activity, program, broker)

    def next_attempt(
        self,
        activity: Activity,
        program: Program,
        broker: Broker,
        *,
        failed_option: int,
        tries_used: int,
    ) -> RetryDecision | None:
        return self.inner.next_attempt(
            activity,
            program,
            broker,
            failed_option=failed_option,
            tries_used=tries_used,
        )

    def submit_flag(
        self, activity: Activity, checkpoints: CheckpointManager, key: str
    ) -> str | None:
        flag = checkpoints.flag_for(key)
        if flag is not None:
            return flag
        return self.inner.submit_flag(activity, checkpoints, key)

    def describe(self) -> str:
        return f"{self.name}({self.inner.describe()})"


class ReplicateStrategy(RecoveryStrategy):
    """Decorator: fan the inner strategy out over all resource options.

    Opens one slot per resolved option (Figure 3); crash handling and
    checkpoint flags delegate to the inner strategy *per slot*, so
    ``ReplicateStrategy(CheckpointRestartStrategy(RetryStrategy()))`` is
    replication whose replicas each retry from their own checkpoints.
    """

    name = "replicate"

    def __init__(self, inner: RecoveryStrategy) -> None:
        self.inner = inner

    def plan_slots(
        self, activity: Activity, program: Program, broker: Broker
    ) -> list[SlotPlan]:
        targets = broker.resolve_all(activity, program)
        return [SlotPlan(option_index=t.option_index) for t in targets]

    def next_attempt(
        self,
        activity: Activity,
        program: Program,
        broker: Broker,
        *,
        failed_option: int,
        tries_used: int,
    ) -> RetryDecision | None:
        return self.inner.next_attempt(
            activity,
            program,
            broker,
            failed_option=failed_option,
            tries_used=tries_used,
        )

    def submit_flag(
        self, activity: Activity, checkpoints: CheckpointManager, key: str
    ) -> str | None:
        return self.inner.submit_flag(activity, checkpoints, key)

    def describe(self) -> str:
        return f"{self.name}({self.inner.describe()})"


# ---------------------------------------------------------------------------
# Registry and policy resolution
# ---------------------------------------------------------------------------


class StrategyRegistry:
    """Name → strategy factory table.

    Base techniques are registered as zero-argument factories; decorators
    as one-argument factories taking the inner strategy.  Substituting an
    entry swaps the technique's implementation everywhere a policy names
    it, without touching the coordinator.
    """

    def __init__(self) -> None:
        self._factories: dict[str, Callable[..., RecoveryStrategy]] = {}

    def register(
        self, name: str, factory: Callable[..., RecoveryStrategy]
    ) -> None:
        self._factories[name] = factory

    def create(self, name: str, *args: RecoveryStrategy) -> RecoveryStrategy:
        try:
            factory = self._factories[name]
        except KeyError:
            raise RecoveryError(
                f"unknown recovery strategy {name!r}; "
                f"registered: {sorted(self._factories)}"
            ) from None
        return factory(*args)

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._factories))

    def copy(self) -> "StrategyRegistry":
        """Independent registry with the same entries (override locally
        without mutating the process-wide default)."""
        clone = StrategyRegistry()
        clone._factories.update(self._factories)
        return clone


def _default_registry() -> StrategyRegistry:
    registry = StrategyRegistry()
    registry.register(RetryStrategy.name, RetryStrategy)
    registry.register(
        ExponentialBackoffRetryStrategy.name, ExponentialBackoffRetryStrategy
    )
    registry.register(CheckpointRestartStrategy.name, CheckpointRestartStrategy)
    registry.register(ReplicateStrategy.name, ReplicateStrategy)
    return registry


#: Process-wide default registry; :meth:`StrategyRegistry.copy` it to
#: customise per engine.
DEFAULT_REGISTRY = _default_registry()


def resolve_strategy(
    policy: FailurePolicy, registry: StrategyRegistry | None = None
) -> RecoveryStrategy:
    """Compose the strategy stack a declarative *policy* describes.

    Innermost is always a retry loop (a single-attempt policy is just a
    retry loop with an exhausted budget), wrapped by checkpoint-restart
    when the policy restarts from checkpoints, wrapped by replication when
    the policy replicates — mirroring :meth:`FailurePolicy.techniques`
    outside-in.
    """
    registry = registry if registry is not None else DEFAULT_REGISTRY
    base = "backoff_retry" if policy.uses_backoff else "retry"
    strategy = registry.create(base)
    if policy.checkpoint.enabled:
        strategy = registry.create("checkpoint_restart", strategy)
    if policy.replicated:
        strategy = registry.create("replicate", strategy)
    return strategy
