"""Task-level decisions are read straight off the policy.

One exhaustive decision table holds the :class:`RecoveryCoordinator` to the
paper's rules, written out here independently of the code: Figure 3's
fan-out (which options the first submissions go to), Figure 2's retry loop
(where, and after how long, a crashed slot tries again, and when it gives
up) and Section 4.3's checkpoint-flag hand-back (which flag each
resubmission carries) — including how often the broker is asked to place a
retry.  Everything is observed from outside: the submissions a fake
execution service receives and the simulated clock between them.  The named
cases below it are the paper's own examples, and the last tests hold the
engine and the ``backoff_retry`` sampler to one retry schedule.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from repro.core.policy import FailurePolicy, ReplicationMode, ResourceSelection
from repro.core.states import TaskState
from repro.detection.detector import AttemptOutcome
from repro.engine.broker import Broker
from repro.engine.recovery import RecoveryCoordinator
from repro.events import EventBus
from repro.grid import SimKernel, SimReactor
from repro.sim.params import SimulationParams
from repro.sim.samplers import sample_technique, technique_policy
from repro.wpdl.model import Activity, Option, Program
from tests.helpers import fake_runtime

INTERVAL = 3.0
CAP = 5.0  # between the first wait and the second doubled one


def program(*hosts):
    return Program(name="p", options=tuple(Option(hostname=h) for h in hosts))


def activity(policy, name="act"):
    return Activity(name=name, implement="p", policy=policy)


class CountingBroker(Broker):
    """Counts how often the coordinator asks where a retry goes."""

    def __init__(self):
        super().__init__()
        self.retries_placed = 0

    def retry_index(self, activity, program, **kwargs):
        self.retries_placed += 1
        return super().retry_index(activity, program, **kwargs)


def outcome(job_id, state, *, flag=None, result=None):
    return AttemptOutcome(
        job_id=job_id,
        activity="act",
        state=state,
        checkpoint_flag=flag,
        exception=None,
        result=result,
    )


class Resubmission(NamedTuple):
    """What a crash led to: the option, the flag and the simulated wait of
    the slot's next submission."""

    option: int
    flag: str | None
    wait: float


class Activation:
    """One activity under a :class:`RecoveryCoordinator` on a ``SimKernel``,
    driven by hand: the test plays the detector, handing the coordinator
    one verdict at a time, and reads what it submitted."""

    def __init__(self, policy, *hosts):
        self.kernel = SimKernel()
        self.hosts = hosts
        self.broker = CountingBroker()
        runtime = fake_runtime(SimReactor(self.kernel), EventBus(), self.broker)
        self.service = runtime.service
        self.resolutions = []
        self.coordinator = RecoveryCoordinator(
            runtime, {}, on_resolution=self.resolutions.append
        )
        self.coordinator.start_activity(activity(policy), program(*hosts))
        #: Each slot's live job, in slot order (the first submissions).
        self.live = [f"fake-{n}" for n in range(1, len(self.service.submissions) + 1)]

    def option(self, submission: int) -> int:
        return self.hosts.index(self.service.submissions[submission].hostname)

    @property
    def first_options(self) -> list[int]:
        return [self.option(n) for n in range(len(self.live))]

    def crash(self, slot: int = 0, *, flag=None) -> Resubmission | None:
        """Crash *slot*'s live attempt (having reported *flag*), let the
        simulated clock run out, and say what was resubmitted."""
        submitted = len(self.service.submissions)
        before = self.kernel.now()
        self.coordinator.handle_outcome(
            outcome(self.live[slot], TaskState.FAILED, flag=flag)
        )
        self.kernel.run()
        assert len(self.service.submissions) - submitted <= 1
        if len(self.service.submissions) == submitted:
            return None
        self.live[slot] = f"fake-{submitted + 1}"
        return Resubmission(
            self.option(submitted),
            self.service.flags[submitted],
            self.kernel.now() - before,
        )

    def succeed(self, slot: int = 0):
        self.coordinator.handle_outcome(
            outcome(self.live[slot], TaskState.DONE, result="ok")
        )
        [resolution] = self.resolutions
        return resolution


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
    more than ``max_interval``.  ``(option, wait)``, or ``None`` for giving
    up."""
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
    return option, delay


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


#: Rounds of crashes the table plays on an unlimited budget.
ROUNDS = 5


@pytest.mark.contract
@pytest.mark.parametrize("hosts", [("h1",), ("h1", "h2", "h3")], ids=["1opt", "3opt"])
@pytest.mark.parametrize("replicated", [False, True], ids=["single", "replica"])
@pytest.mark.parametrize("max_tries", [1, 3, None])
def test_decision_table(max_tries, replicated, hosts):
    n = len(hosts)
    for policy in policies(max_tries, replicated):
        run = Activation(policy, *hosts)
        slots = expected_slots(policy, n)
        assert run.first_options == slots, policy
        assert run.service.flags == [None] * len(slots), policy

        options, tries = list(slots), [1] * len(slots)
        spent: set[int] = set()
        placed = 0
        for crash in range(ROUNDS * len(slots)):
            slot = crash % len(slots)
            if slot in spent:
                continue
            flag = f"flag-{crash}"  # every failed attempt reported one
            expected = expected_attempt(policy, n, options[slot], tries[slot])
            got = run.crash(slot, flag=flag)
            where = (policy, slot, tries[slot])
            if expected is None:
                assert got is None, where
                spent.add(slot)
                continue
            placed += 1
            assert (got.option, got.wait) == expected, where
            # Section 4.3: the slot's own last flag rides on its retry.
            assert got.flag == (flag if policy.restart_from_checkpoint else None), where
            options[slot] = got.option
            tries[slot] += 1
        # The broker places each retry; it is not asked about a spent budget.
        assert run.broker.retries_placed == placed, policy
        if len(spent) == len(slots):
            [resolution] = run.resolutions
            assert resolution.state is TaskState.FAILED, policy
            assert resolution.tries_used == sum(tries) == max_tries * len(slots)
        else:
            assert max_tries is None and not spent and not run.resolutions
            assert run.succeed().tries_used == sum(tries) == (ROUNDS + 1) * len(slots)


# ---------------------------------------------------------------------------
# The paper's examples, by name
# ---------------------------------------------------------------------------


def offered(policy, hosts=("h1",), slot=0):
    """The flag slot *slot*'s retry carries after its attempt reported
    ``flag-3`` (``None``: none; ``False``: no retry at all)."""
    got = Activation(policy, *hosts).crash(slot, flag="flag-3")
    return False if got is None else got.flag


def waits(policy, crashes, hosts=("h1",)):
    run = Activation(policy, *hosts)
    return [run.crash().wait for _ in range(crashes)]


class TestResolution:
    def test_plain_policy_resolves_to_checkpointed_retry(self):
        # restart_from_checkpoint defaults on, per the paper.
        policy = FailurePolicy.retrying(3)
        assert offered(policy) == "flag-3"
        run = Activation(policy, "h1")
        assert run.crash() is not None and run.crash() is not None
        assert run.crash() is None
        assert run.resolutions[0].state is TaskState.FAILED

    def test_checkpointing_disabled_leaves_bare_retry(self):
        policy = replace(FailurePolicy.retrying(3), restart_from_checkpoint=False)
        assert offered(policy) is None

    def test_replica_policy_composes_all_three(self):
        policy = FailurePolicy.replica(max_tries=None)
        run = Activation(policy, "h1", "h2")
        assert run.first_options == [0, 1]
        got = run.crash(1, flag="flag-7")
        assert (got.option, got.flag, got.wait) == (1, "flag-7", 0.0)
        for _ in range(97):
            run.crash(1)
        got = run.crash(1)  # its 99th crash: retried still, at once, in place
        assert (got.option, got.wait) == (1, 0.0)

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
        run = Activation(policy, "h1", "h2", "h3")
        assert run.first_options == [0, 1, 2]
        assert [run.crash(2, flag="f").wait for _ in range(3)] == [1.0, 2.0, 4.0]
        assert run.service.flags[-1] == "f"

    def test_composition_mirrors_policy_techniques(self):
        # techniques() names exactly what the coordinator will do.
        for replicated, max_tries in itertools.product((False, True), (1, 3, None)):
            for policy in policies(max_tries, replicated):
                names = policy.techniques()
                assert ("replication" in names) == (
                    len(Activation(policy, "h1", "h2").live) == 2
                )
                got = Activation(policy, "h1", "h2").crash(flag="flag")
                assert bool({"retrying", "backoff_retry"} & set(names)) == (
                    got is not None
                )
                if got is not None:
                    assert ("checkpointing" in names) == (got.flag == "flag")


class TestRetryDecisions:
    def test_budget_exhaustion_returns_none(self):
        run = Activation(FailurePolicy.retrying(2), "h1")
        assert run.crash() is not None
        assert run.crash() is None
        assert run.resolutions[0].tries_used == 2

    def test_same_selection_stays_on_failed_option(self):
        policy = FailurePolicy.retrying(5, interval=3.0)
        got = Activation(policy, "h1", "h2").crash()
        assert (got.option, got.wait) == (0, 3.0)

    def test_rotate_selection_moves_off_failed_option(self):
        policy = FailurePolicy.retrying(5, resource_selection=ResourceSelection.ROTATE)
        run = Activation(policy, "h1", "h2", "h3")
        previous = 0
        for _ in range(4):
            option = run.crash().option
            assert option != previous
            previous = option

    def test_backoff_delays_grow_geometrically(self):
        policy = FailurePolicy.backoff_retrying(
            None, interval=1.0, backoff_factor=2.0, max_interval=8.0
        )
        assert waits(policy, 6) == [1.0, 2.0, 4.0, 8.0, 8.0, 8.0]  # capped at 8

    def test_fixed_interval_is_capped_like_any_other_wait(self):
        # ``max_interval`` bounds every wait, not only a growing one.
        policy = FailurePolicy(max_tries=None, interval=10, max_interval=2)
        assert waits(policy, 1) == [2]


class TestSlotPlanning:
    def test_retry_plans_single_slot(self):
        run = Activation(FailurePolicy.retrying(3), "h1", "h2")
        assert run.first_options == [0]

    def test_replicate_plans_one_slot_per_option(self):
        run = Activation(FailurePolicy.replica(), "h1", "h2", "h3")
        assert run.first_options == [0, 1, 2]


class TestSubmitFlags:
    def test_bare_retry_never_offers_flag(self):
        policy = FailurePolicy(max_tries=2, restart_from_checkpoint=False)
        assert offered(policy) is None

    def test_checkpoint_restart_offers_recorded_flag(self):
        assert offered(FailurePolicy(max_tries=2)) == "flag-3"

    def test_checkpoint_restart_without_record_falls_through(self):
        got = Activation(FailurePolicy(max_tries=2), "h1").crash()
        assert got.flag is None

    def test_replicate_delegates_flags_per_slot(self):
        run = Activation(FailurePolicy.replica(max_tries=2), "h1", "h2")
        assert run.crash(1, flag="flag-7").flag == "flag-7"
        # Slot 0 never sees slot 1's checkpoint.
        assert run.crash(0).flag is None


# ---------------------------------------------------------------------------
# Coordinator integration
# ---------------------------------------------------------------------------


@pytest.fixture
def harness(runtime):
    """The fake service, a coordinator on ``runtime`` and its resolutions."""
    resolutions = []
    coordinator = RecoveryCoordinator(runtime, {}, on_resolution=resolutions.append)
    return runtime.service, coordinator, resolutions


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
        service, coord, resolutions = harness
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
        service, coord, _ = harness
        coord.start_activity(activity(policy), program("h1"))
        assert waits_between_retries(coord, service, kernel, 5) == delays
        # The sampler: on one random stream, backoff retrying differs from
        # plain retrying by a run's waits alone, so the distinct differences
        # are the schedule's running totals.
        backoff = sample_technique(
            "backoff_retry", params, rng=np.random.default_rng(3)
        )
        plain = sample_technique("retrying", params, rng=np.random.default_rng(3))
        waited = backoff - plain
        totals = np.unique(waited.round(6))
        assert totals[0] == 0.0 and len(totals) > 5
        assert np.diff(totals)[:5] == pytest.approx(delays)

    def test_replicated_retry_from_checkpoint_resubmits_with_flag(
        self, harness, kernel
    ):
        service, coord, resolutions = harness
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
