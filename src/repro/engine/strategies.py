"""Task-level recovery decisions, read straight off the failure policy.

The paper's Section 4 presents retrying, replication and checkpointing as
*freely combinable* masking techniques, and they combine declaratively:
through an activity's WPDL attributes, i.e. the flat fields of one
:class:`~repro.core.policy.FailurePolicy`.  A :class:`RecoveryStrategy`
answers the coordinator's three questions from those fields and nothing
else:

* :meth:`~RecoveryStrategy.plan_slots` — Figure 3: a replicated policy
  opens one slot per resolved resource option, any other policy one slot
  on the first option;
* :meth:`~RecoveryStrategy.next_attempt` — Figure 2, per slot (so each
  replica retries on its own, Section 6): give up when ``max_tries`` is
  spent, else retry on the option ``resource_selection`` picks after
  :meth:`FailurePolicy.retry_delay` seconds;
* :meth:`~RecoveryStrategy.submit_flag` — Section 4.3: every (re)submission
  carries the slot's last announced checkpoint flag, unless the policy
  turns ``restart_from_checkpoint`` off.

A strategy is *stateless*: try counts, active jobs and timers stay in the
coordinator's slots, so one instance serves every run under its (program,
policy) pair — resolved, and asked to plan, once per pair and runtime.

To substitute a technique (a different placement heuristic, a jittered
backoff), subclass :class:`RecoveryStrategy` and hand the engine a
``strategy_resolver=`` that returns it; :func:`resolve_strategy` is the
default resolver:

>>> strategy = resolve_strategy(FailurePolicy.replica(max_tries=None))
>>> type(strategy).__name__, strategy.policy.techniques()
('RecoveryStrategy', ('replication', 'checkpointing', 'retrying'))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ..ckpt.manager import CheckpointManager
from ..core.policy import FailurePolicy
from ..wpdl.model import Activity, Program
from .broker import Broker

__all__ = ["SlotPlan", "RetryDecision", "RecoveryStrategy", "resolve_strategy"]


@dataclass(frozen=True)
class SlotPlan:
    """One retry loop to start: which resource option it begins on."""

    option_index: int


class RetryDecision(NamedTuple):
    """Verdict for a crashed slot: try again on *option_index* after
    *delay* seconds.  ``None`` in its place means the budget is spent."""

    option_index: int
    delay: float = 0.0


_tuple_new = tuple.__new__


class RecoveryStrategy:
    """The task-level decisions *policy* declares.  Every broker and
    checkpoint-manager call is made on the instance handed in, so a wrapper
    set on it (a tracer's) is what runs."""

    def __init__(self, policy: FailurePolicy) -> None:
        self.policy = policy

    def plan_slots(
        self, activity: Activity, program: Program, broker: Broker
    ) -> list[SlotPlan]:
        """Slots to open when the activity starts.  Asked once per
        (program, policy) pair, with the first activity that starts under
        it: the answer may depend on the program and the policy, on
        nothing else of the activity."""
        if not self.policy.replicated:
            return [SlotPlan(option_index=0)]
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
        """Decide the crashed slot's next attempt; ``None`` exhausts it."""
        policy = self.policy
        if policy.tries_remaining(tries_used) <= 0:
            return None
        option = broker.retry_index(
            activity,
            program,
            failed_index=failed_option,
            tries_used=tries_used,
            selection=policy.resource_selection,
        )
        return _tuple_new(RetryDecision, (option, policy.retry_delay(tries_used)))

    def submit_flag(
        self, activity: Activity, checkpoints: CheckpointManager, key: str
    ) -> str | None:
        """Checkpoint flag for the next submission of slot *key*."""
        if not self.policy.restart_from_checkpoint:
            return None
        return checkpoints.flag_for(key)


def resolve_strategy(policy: FailurePolicy) -> RecoveryStrategy:
    """The default ``strategy_resolver``: the strategy reading *policy*."""
    return RecoveryStrategy(policy)
