"""Task-level decisions are read straight off the policy.

One exhaustive decision table holds :class:`RecoveryStrategy` to the paper's
rules, written out here independently of the code: Figure 3's fan-out
(``plan_slots``), Figure 2's retry loop (``next_attempt``) and Section 4.3's
checkpoint-flag hand-back (``submit_flag``) — including *which* broker and
checkpoint-manager calls each decision makes.  The named cases below it are
the paper's own examples; the coordinator-level tests drive the strategy
through a :class:`RecoveryCoordinator` on a ``SimKernel``, a custom
``strategy_resolver`` included, and hold the engine and the ``backoff_retry``
sampler to one retry schedule.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest

from repro.ckpt.manager import CheckpointManager
from repro.core.policy import FailurePolicy, ReplicationMode, ResourceSelection
from repro.core.states import TaskState
from repro.detection.detector import AttemptOutcome, FailureDetector
from repro.engine.broker import Broker
from repro.engine.recovery import RecoveryCoordinator
from repro.engine.strategies import (
    RecoveryStrategy,
    RetryDecision,
    SlotPlan,
    resolve_strategy,
)
from repro.execution import ExecutionService, SubmitRequest
from repro.sim.params import SimulationParams
from repro.sim.samplers import sample_backoff_retry, sample_retry, technique_policy
from repro.wpdl.model import Activity, Option, Program

INTERVAL = 3.0
CAP = 5.0  # between the first wait and the second doubled one


def program(*hosts):
    return Program(name="p", options=tuple(Option(hostname=h) for h in hosts))


def activity(policy, name="act"):
    return Activity(name=name, implement="p", policy=policy)


def decide(policy, hosts, *, failed_option, tries_used):
    return resolve_strategy(policy).next_attempt(
        activity(policy),
        program(*hosts),
        Broker(),
        failed_option=failed_option,
        tries_used=tries_used,
    )


class CountingBroker(Broker):
    """Counts the two calls a strategy may make on its broker."""

    def __init__(self):
        super().__init__()
        self.calls = {"resolve_all": 0, "retry_index": 0}

    def resolve_all(self, activity, program):
        self.calls["resolve_all"] += 1
        return super().resolve_all(activity, program)

    def retry_index(self, activity, program, **kwargs):
        self.calls["retry_index"] += 1
        return super().retry_index(activity, program, **kwargs)


# ---------------------------------------------------------------------------
# The decision table
# ---------------------------------------------------------------------------


def expected_slots(policy, n_options):
    """Figure 3: ``policy='replica'`` submits to every resource option at
    once; anything else runs one loop, on the first option."""
    return list(range(n_options)) if policy.replicated else [0]


def expected_attempt(policy, n_options, failed_option, tries_used):
    """Figure 2: after a crash, give up once ``max_tries`` starts are used;
    otherwise resubmit — to the same option, or rotating round-robin by try
    number past the one that just failed — after ``interval`` seconds,
    multiplied by ``backoff_factor`` per earlier retry of the slot and never
    more than ``max_interval``."""
    if policy.max_tries is not None and tries_used >= policy.max_tries:
        return None
    option = failed_option
    if policy.resource_selection is ResourceSelection.ROTATE and n_options > 1:
        option = tries_used % n_options
        if option == failed_option:
            option = (option + 1) % n_options
    delay = policy.interval
    for _ in range(tries_used - 1):
        delay *= policy.backoff_factor
    if policy.max_interval is not None and delay > policy.max_interval:
        delay = policy.max_interval
    return RetryDecision(option_index=option, delay=delay)


def policies(max_tries, replicated):
    for restart, factor, cap, selection in itertools.product(
        (True, False), (1.0, 2.0), (None, CAP), ResourceSelection
    ):
        yield FailurePolicy(
            max_tries=max_tries,
            interval=INTERVAL,
            replication=ReplicationMode.REPLICA if replicated else ReplicationMode.NONE,
            resource_selection=selection,
            restart_from_checkpoint=restart,
            backoff_factor=factor,
            max_interval=cap,
        )


@pytest.mark.parametrize("hosts", [("h1",), ("h1", "h2", "h3")], ids=["1opt", "3opt"])
@pytest.mark.parametrize("replicated", [False, True], ids=["single", "replica"])
@pytest.mark.parametrize("max_tries", [1, 3, None])
def test_decision_table(max_tries, replicated, hosts):
    n = len(hosts)
    for policy in policies(max_tries, replicated):
        strategy = resolve_strategy(policy)
        assert type(strategy) is RecoveryStrategy and strategy.policy is policy
        act, prog, broker = activity(policy), program(*hosts), CountingBroker()

        plans = strategy.plan_slots(act, prog, broker)
        assert plans == [SlotPlan(i) for i in expected_slots(policy, n)], policy
        assert broker.calls == {"resolve_all": int(replicated), "retry_index": 0}

        asked = 0
        for failed, used in itertools.product(range(n), range(1, 6)):
            decision = strategy.next_attempt(
                act, prog, broker, failed_option=failed, tries_used=used
            )
            expected = expected_attempt(policy, n, failed, used)
            assert decision == expected, (policy, failed, used)
            asked += expected is not None
        # The broker places a retry; it is not asked about a spent budget.
        assert broker.calls == {"resolve_all": int(replicated), "retry_index": asked}

        # Section 4.3: a slot's own last flag rides on its next submission.
        checkpoints = CheckpointManager()
        checkpoints.record("act@slot1", "flag-7")
        offered = "flag-7" if policy.restart_from_checkpoint else None
        assert strategy.submit_flag(act, checkpoints, "act@slot1") == offered, policy
        assert strategy.submit_flag(act, checkpoints, "act@slot0") is None


# ---------------------------------------------------------------------------
# The paper's examples, by name
# ---------------------------------------------------------------------------


def offers(policy, checkpoints, key):
    return resolve_strategy(policy).submit_flag(activity(policy), checkpoints, key)


class TestResolution:
    def test_plain_policy_resolves_to_checkpointed_retry(self):
        # restart_from_checkpoint defaults on, per the paper.
        policy = FailurePolicy.retrying(3)
        checkpoints = CheckpointManager()
        checkpoints.record("act@slot0", "flag-3")
        assert offers(policy, checkpoints, "act@slot0") == "flag-3"
        assert decide(policy, ("h1",), failed_option=0, tries_used=2) is not None
        assert decide(policy, ("h1",), failed_option=0, tries_used=3) is None

    def test_checkpointing_disabled_leaves_bare_retry(self):
        policy = replace(FailurePolicy.retrying(3), restart_from_checkpoint=False)
        checkpoints = CheckpointManager()
        checkpoints.record("act@slot0", "flag-3")
        assert offers(policy, checkpoints, "act@slot0") is None
        assert decide(policy, ("h1",), failed_option=0, tries_used=2) is not None

    def test_replica_policy_composes_all_three(self):
        policy = FailurePolicy.replica(max_tries=None)
        strategy = resolve_strategy(policy)
        plans = strategy.plan_slots(activity(policy), program("h1", "h2"), Broker())
        assert [p.option_index for p in plans] == [0, 1]
        checkpoints = CheckpointManager()
        checkpoints.record("act@slot1", "flag-7")
        assert offers(policy, checkpoints, "act@slot1") == "flag-7"
        assert decide(policy, ("h1", "h2"), failed_option=1, tries_used=99) == (
            RetryDecision(option_index=1, delay=0.0)
        )

    def test_full_stack_composition(self):
        # Every technique at once, by attribute: replicas that each retry
        # with backoff from their own checkpoint.
        policy = FailurePolicy(
            max_tries=None,
            interval=1.0,
            replication=ReplicationMode.REPLICA,
            backoff_factor=2.0,
        )
        assert policy.techniques() == ("replication", "checkpointing", "backoff_retry")
        plans = resolve_strategy(policy).plan_slots(
            activity(policy), program("h1", "h2", "h3"), Broker()
        )
        assert len(plans) == 3
        assert decide(policy, ("h1", "h2", "h3"), failed_option=2, tries_used=3) == (
            RetryDecision(option_index=2, delay=4.0)
        )

    def test_composition_mirrors_policy_techniques(self):
        # techniques() names exactly what the strategy will do.
        for replicated, max_tries in itertools.product((False, True), (1, 3, None)):
            for policy in policies(max_tries, replicated):
                strategy = resolve_strategy(policy)
                names = policy.techniques()
                act, prog = activity(policy), program("h1", "h2")
                checkpoints = CheckpointManager()
                checkpoints.record("k", "flag")
                assert ("replication" in names) == (
                    len(strategy.plan_slots(act, prog, Broker())) == 2
                )
                assert ("checkpointing" in names) == (
                    strategy.submit_flag(act, checkpoints, "k") == "flag"
                )
                retries = decide(policy, ("h1", "h2"), failed_option=0, tries_used=1)
                assert bool({"retrying", "backoff_retry"} & set(names)) == (
                    retries is not None
                )


class TestRetryDecisions:
    def test_budget_exhaustion_returns_none(self):
        policy = FailurePolicy.retrying(2)
        assert decide(policy, ("h1",), failed_option=0, tries_used=2) is None

    def test_same_selection_stays_on_failed_option(self):
        policy = FailurePolicy.retrying(5, interval=3.0)
        decision = decide(policy, ("h1", "h2"), failed_option=0, tries_used=1)
        assert decision == RetryDecision(option_index=0, delay=3.0)

    def test_rotate_selection_moves_off_failed_option(self):
        policy = FailurePolicy.retrying(5, resource_selection=ResourceSelection.ROTATE)
        decision = decide(policy, ("h1", "h2", "h3"), failed_option=1, tries_used=1)
        assert decision.option_index != 1

    def test_backoff_delays_grow_geometrically(self):
        policy = FailurePolicy.backoff_retrying(
            None, interval=1.0, backoff_factor=2.0, max_interval=8.0
        )
        delays = [
            decide(policy, ("h1",), failed_option=0, tries_used=n).delay
            for n in range(1, 7)
        ]
        assert delays == [1.0, 2.0, 4.0, 8.0, 8.0, 8.0]  # capped at 8

    def test_fixed_interval_is_capped_like_any_other_wait(self):
        # ``max_interval`` bounds every wait, not only a growing one.
        policy = FailurePolicy(max_tries=None, interval=10, max_interval=2)
        assert decide(policy, ("h1",), failed_option=0, tries_used=1).delay == 2


class TestSlotPlanning:
    def test_retry_plans_single_slot(self):
        policy = FailurePolicy.retrying(3)
        plans = resolve_strategy(policy).plan_slots(
            activity(policy), program("h1", "h2"), Broker()
        )
        assert plans == [SlotPlan(option_index=0)]

    def test_replicate_plans_one_slot_per_option(self):
        policy = FailurePolicy.replica()
        plans = resolve_strategy(policy).plan_slots(
            activity(policy), program("h1", "h2", "h3"), Broker()
        )
        assert [p.option_index for p in plans] == [0, 1, 2]


class TestSubmitFlags:
    def test_bare_retry_never_offers_flag(self):
        checkpoints = CheckpointManager()
        checkpoints.record("act@slot0", "flag-3")
        policy = FailurePolicy(restart_from_checkpoint=False)
        assert offers(policy, checkpoints, "act@slot0") is None

    def test_checkpoint_restart_offers_recorded_flag(self):
        checkpoints = CheckpointManager()
        checkpoints.record("act@slot0", "flag-3")
        assert offers(FailurePolicy(), checkpoints, "act@slot0") == "flag-3"

    def test_checkpoint_restart_without_record_falls_through(self):
        assert offers(FailurePolicy(), CheckpointManager(), "act@slot0") is None

    def test_replicate_delegates_flags_per_slot(self):
        checkpoints = CheckpointManager()
        checkpoints.record("act@slot1", "flag-7")
        policy = FailurePolicy.replica()
        assert offers(policy, checkpoints, "act@slot0") is None
        assert offers(policy, checkpoints, "act@slot1") == "flag-7"


# ---------------------------------------------------------------------------
# Coordinator integration
# ---------------------------------------------------------------------------


class FakeService(ExecutionService):
    def __init__(self):
        self.submissions: list[SubmitRequest] = []
        #: The ``checkpoint_flag`` each submission was given, in order.
        self.flags: list[str | None] = []
        self.cancelled: list[str] = []
        self._seq = itertools.count(1)

    def submit(
        self, request: SubmitRequest, *, checkpoint_flag=None, workflow_id=""
    ) -> str:
        self.submissions.append(request)
        self.flags.append(checkpoint_flag)
        return f"fake-{next(self._seq)}"

    def cancel(self, job_id: str) -> None:
        self.cancelled.append(job_id)

    def connect(self, sink) -> None:  # pragma: no cover - unused here
        pass


def outcome(job_id, state, *, flag=None, result=None):
    return AttemptOutcome(
        job_id=job_id,
        activity="act",
        state=state,
        checkpoint_flag=flag,
        exception=None,
        result=result,
    )


@pytest.fixture
def harness(reactor, bus):
    def build(strategy_resolver=None):
        service = FakeService()
        resolutions = []
        coordinator = RecoveryCoordinator(
            service,
            FailureDetector(reactor, bus),
            Broker(),
            reactor,
            on_resolution=resolutions.append,
            strategy_resolver=strategy_resolver,
        )
        return service, coordinator, resolutions

    return build


def waits_between_retries(coord, service, kernel, retries):
    """Crash the running attempt *retries* times; the simulated seconds the
    coordinator let pass before each resubmission."""
    waits = []
    for retry in range(1, retries + 1):
        coord.handle_outcome(outcome(f"fake-{retry}", TaskState.FAILED))
        before = kernel.now()
        kernel.run()
        waits.append(kernel.now() - before)
        assert len(service.submissions) == retry + 1
    return waits


class TestCoordinatorIntegration:
    def test_backoff_policy_waits_before_each_retry(self, harness, kernel):
        service, coord, resolutions = harness()
        policy = FailurePolicy.backoff_retrying(4, interval=1.0, backoff_factor=2.0)
        coord.start_activity(activity(policy), program("h1"))
        # n-th retry waits interval * 2**(n-1): 1, 2, 4 seconds.
        assert waits_between_retries(coord, service, kernel, 3) == [1.0, 2.0, 4.0]
        coord.handle_outcome(outcome("fake-4", TaskState.DONE))
        assert resolutions[0].state is TaskState.DONE
        assert resolutions[0].tries_used == 4

    @pytest.mark.parametrize(
        "schedule",
        [
            dict(retry_interval=10.0, backoff_factor=1.0, max_retry_interval=2.0),
            dict(retry_interval=1.0, backoff_factor=2.0, max_retry_interval=8.0),
        ],
        ids=["capped-fixed", "capped-backoff"],
    )
    def test_engine_and_sampler_wait_the_policys_retry_delay(
        self, harness, kernel, schedule
    ):
        params = SimulationParams(mttf=15.0, runs=4000, seed=11, **schedule)
        policy = technique_policy("backoff_retry", params)
        delays = [policy.retry_delay(n) for n in range(1, 6)]
        # The engine: exactly that number, retry after retry.
        service, coord, _ = harness()
        coord.start_activity(activity(policy), program("h1"))
        assert waits_between_retries(coord, service, kernel, 5) == delays
        # The sampler: on one random stream, backoff retrying differs from
        # plain retrying by a run's waits alone, so the distinct differences
        # are the schedule's running totals.
        waited = sample_backoff_retry(
            params, rng=np.random.default_rng(3)
        ) - sample_retry(params, rng=np.random.default_rng(3))
        totals = np.unique(waited.round(6))
        assert totals[0] == 0.0 and len(totals) > 5
        assert np.diff(totals)[:5] == pytest.approx(delays)

    def test_custom_resolver_overrides_composition(self, harness):
        class SingleShot(RecoveryStrategy):
            def next_attempt(self, *args, **kwargs):
                return None  # never retry, whatever the policy says

        service, coord, resolutions = harness(SingleShot)
        coord.start_activity(
            activity(FailurePolicy.retrying(5)), program("h1")
        )
        coord.handle_outcome(outcome("fake-1", TaskState.FAILED))
        assert len(service.submissions) == 1
        assert resolutions[0].state is TaskState.FAILED

    def test_replicated_retry_from_checkpoint_resubmits_with_flag(
        self, harness, kernel
    ):
        service, coord, resolutions = harness()
        policy = FailurePolicy.replica(max_tries=3)
        coord.start_activity(activity(policy), program("h1", "h2"))
        assert len(service.submissions) == 2
        # Replica 0 crashes having checkpointed: its retry carries the flag.
        coord.handle_outcome(outcome("fake-1", TaskState.FAILED, flag="flag-2"))
        kernel.run()
        assert len(service.submissions) == 3
        assert service.flags[2] == "flag-2"
        # The sibling replica never sees replica 0's checkpoint.
        coord.handle_outcome(outcome("fake-2", TaskState.FAILED))
        kernel.run()
        assert len(service.submissions) == 4
        assert service.flags[3] is None
        coord.handle_outcome(outcome("fake-3", TaskState.DONE))
        assert resolutions[0].state is TaskState.DONE
