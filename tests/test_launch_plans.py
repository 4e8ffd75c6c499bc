"""One launch plan per (program, policy) on the runtime — and what a plan
must *not* hold.

A plan keeps the resolved strategy, the slots it planned, each
literal ``<Option>``'s target and the attempt timeout, so starting an
activity or an attempt re-derives none of them.  These tests pin the other
side of that: a ``hostname='*'`` option is matched against the catalog and
the activity's query at every submission, plans are per strategy resolver,
the engine's per-launch rebuilt activity finds the plan of the activity it
came from and still submits its freshly bound arguments, and a bad option
index is still the broker's error.  And what a plan *does* share: one
``SubmitRequest`` per (activity, literal option), whatever the instance or
the attempt.  (Lifetime — weak towards the
specification and towards the runtime — is in
``tests/test_multiplex.py::TestNothingOutlivesTheVerdict``.)
"""

from __future__ import annotations

import itertools

import pytest

from repro.catalogs import ResourceCatalog, ResourceQuery
from repro.core import FailurePolicy
from repro.engine import EngineHost, WorkflowEngine
from repro.engine.broker import Broker
from repro.engine.recovery import RecoveryCoordinator
from repro.engine.strategies import RecoveryStrategy, SlotPlan, resolve_strategy
from repro.errors import BrokerError
from repro.grid import (
    RELIABLE,
    CrashingTask,
    FixedDurationTask,
    GridConfig,
    SimulatedGrid,
)
from repro.wpdl import WorkflowBuilder
from repro.wpdl.model import Activity, Option, Parameter, Program

HOSTS = ("h1", "h2", "h3")


def make_grid():
    """Three reliable hosts of falling speed (so the catalog ranks them
    h1 > h2 > h3), ``task`` everywhere; records every submission."""
    grid = SimulatedGrid(seed=5, config=GridConfig(heartbeats=False))
    catalog = ResourceCatalog()
    for i, name in enumerate(HOSTS):
        spec = RELIABLE(name, slots=None, speed=3.0 - i)
        grid.add_host(spec)
        catalog.register(spec)
    grid.install_everywhere("task", FixedDurationTask(2.0, result="ok"))
    submitted = []
    submit = grid.submit

    def recording(request, **kwargs):
        submitted.append(request)
        return submit(request, **kwargs)

    grid.submit = recording
    return grid, catalog, submitted


def one_task(*hosts, policy=None, name="w"):
    return (
        WorkflowBuilder(name)
        .program("task", hosts=list(hosts))
        .activity("a", implement="task", policy=policy or FailurePolicy())
        .build()
    )


def plans_of(runtime):
    return [plan for table in runtime.launch_plans.values() for plan in table.values()]


class TestWildcardsAreNeverCached:
    def test_query_exclusion_and_catalog_change_reach_the_next_instance(self):
        grid, catalog, submitted = make_grid()
        broker = Broker(catalog)
        host = EngineHost(grid, reactor=grid.reactor, broker=broker)
        spec = one_task("*")

        def run_one():
            host.submit(spec)
            assert all(r.succeeded for r in host.wait_all(timeout=1e6).values())
            return submitted[-1].hostname

        assert run_one() == "h1"
        assert run_one() == "h1"  # same plan, same catalog, same answer
        broker.set_query("a", ResourceQuery(exclude_hosts=frozenset({"h1"})))
        assert run_one() == "h2"
        catalog.deregister("h2")
        assert run_one() == "h3"
        broker.set_query("a", ResourceQuery())
        assert run_one() == "h1"
        [plan] = plans_of(host.runtime)
        assert plan.targets == {}  # nothing of a wildcard is kept

    def test_wildcard_replicas_are_matched_per_submission_too(self):
        grid, catalog, submitted = make_grid()
        broker = Broker(catalog)
        host = EngineHost(grid, reactor=grid.reactor, broker=broker)
        spec = one_task("*", "h3", policy=FailurePolicy.replica())
        host.submit(spec)
        host.wait_all(timeout=1e6)
        assert [r.hostname for r in submitted] == ["h1", "h3"]
        broker.set_query("a", ResourceQuery(exclude_hosts=frozenset({"h1"})))
        host.submit(spec)
        host.wait_all(timeout=1e6)
        assert [r.hostname for r in submitted[2:]] == ["h2", "h3"]
        [plan] = plans_of(host.runtime)
        assert list(plan.targets) == [1]  # the literal option, and only it

    def test_literal_option_is_resolved_once_for_n_instances(self, monkeypatch):
        grid, _catalog, submitted = make_grid()
        calls = []
        resolve = Broker._resolve

        def counting(self, activity, program, index, **kwargs):
            calls.append(index)
            return resolve(self, activity, program, index, **kwargs)

        monkeypatch.setattr(Broker, "_resolve", counting)
        host = EngineHost(grid, reactor=grid.reactor)
        host.submit_many(one_task("h2"), 25)
        results = host.wait_all(timeout=1e6)
        assert len(results) == 25 and all(r.succeeded for r in results.values())
        assert [r.hostname for r in submitted] == ["h2"] * 25
        assert calls == [0]
        assert len(plans_of(host.runtime)) == 1

    def test_bad_option_index_is_still_the_brokers_error(self, reactor, bus):
        from repro.detection.detector import FailureDetector
        from tests.test_recovery import FakeService

        class Lost(RecoveryStrategy):
            def plan_slots(self, activity, program, broker):
                return [SlotPlan(option_index=5)]

        coordinator = RecoveryCoordinator(
            FakeService(),
            FailureDetector(reactor, bus),
            Broker(),
            reactor,
            on_resolution=lambda resolution: None,
            strategy_resolver=Lost,
        )
        program = Program("p", (Option("h1"),))
        for name in ("first", "second"):  # planned once, refused every time
            with pytest.raises(BrokerError, match="out of range"):
                coordinator.start_activity(Activity(name, implement="p"), program)


class TestPlansArePerResolver:
    def setup_method(self):
        self.ids = itertools.count(1)

    def run(self, runtime_owner, spec, grid, resolver):
        engine = WorkflowEngine(
            spec,
            grid,
            reactor=grid.reactor,
            runtime=runtime_owner.runtime,
            strategy_resolver=resolver,
            workflow_id=f"wf-{next(self.ids)}",
        )
        assert engine.run(timeout=1e6).succeeded
        return engine

    def test_two_resolvers_on_one_runtime_get_their_own_strategies(self):
        grid, _catalog, _submitted = make_grid()
        host = EngineHost(grid, reactor=grid.reactor)
        spec = one_task("h1", policy=FailurePolicy.retrying(3))
        asked = {"plain": 0, "marked": 0}

        class Marked(RecoveryStrategy):
            pass

        def plain(policy):
            asked["plain"] += 1
            return resolve_strategy(policy)

        def marked(policy):
            asked["marked"] += 1
            return Marked(policy)

        for _ in range(3):
            self.run(host, spec, grid, plain)
            self.run(host, spec, grid, marked)
        assert asked == {"plain": 1, "marked": 1}
        kinds = sorted(type(p.strategy).__name__ for p in plans_of(host.runtime))
        assert kinds == ["Marked", "RecoveryStrategy"]

    def test_a_subclass_still_substitutes_its_technique(self):
        grid, _catalog, _submitted = make_grid()
        host = EngineHost(grid, reactor=grid.reactor)
        spec = one_task("h1", policy=FailurePolicy.retrying(3))
        used = []

        class Audited(RecoveryStrategy):
            def plan_slots(self, activity, program, broker):
                used.append(activity.name)
                return super().plan_slots(activity, program, broker)

        self.run(host, spec, grid, None)  # the default plan comes first
        self.run(host, spec, grid, Audited)
        assert used == ["a"]
        assert len(plans_of(host.runtime)) == 2


class TestReboundActivityHitsItsPlan:
    def test_value_dependency_launch_shares_the_plan_and_binds_afresh(self):
        grid, _catalog, submitted = make_grid()
        grid.install_everywhere("make", FixedDurationTask(1.0, result={"n": 7}))
        policy = FailurePolicy.retrying(2)
        spec = (
            WorkflowBuilder("deps")
            .program("make", hosts=["h1"])
            .program("task", hosts=["h2"])
            .activity("make", implement="make", outputs=["n"])
            .activity("use", implement="task", policy=policy, inputs=[Parameter("k", ref="n")])
            .activity("plain", implement="task", policy=policy)
            .sequence("make", "use", "plain")
            .build()
        )
        assert spec.compiled.nodes["use"].has_refs
        host = EngineHost(grid, reactor=grid.reactor)
        host.submit_many(spec, 4)
        assert all(r.succeeded for r in host.wait_all(timeout=1e6).values())
        # ``use`` is rebuilt per launch (its inputs are bound then), yet it
        # and ``plain`` share the plan of their (program, policy) pair.
        assert len(plans_of(host.runtime)) == 2
        uses = [r for r in submitted if r.activity == "use"]
        assert len(uses) == 4 and all(r.arguments == {"k": 7} for r in uses)
        assert all(r.hostname == "h2" for r in uses)


class TestOneRequestPerActivityAndOption:
    def test_every_instance_and_attempt_submits_the_same_object(self):
        grid, _catalog, _submitted = make_grid()
        grid.install_everywhere("flaky", CrashingTask(2.0, crash_at=1.0, result="ok"))
        calls = []
        submit = grid.submit

        def recording(request, **kwargs):
            calls.append((request, kwargs))
            return submit(request, **kwargs)

        grid.submit = recording
        spec = (
            WorkflowBuilder("shared")
            .program("flaky", hosts=["h1"])
            .program("task", hosts=["h2", "h3"])
            .activity("a", implement="flaky", policy=FailurePolicy.retrying(3))
            .activity("b", implement="task", policy=FailurePolicy.replica())
            .transition("a", "b")
            .build()
        )
        host = EngineHost(grid, reactor=grid.reactor)
        host.submit_many(spec, 100)
        results = host.wait_all(timeout=1e6)
        assert len(results) == 100 and all(r.succeeded for r in results.values())
        # Every instance: ``a`` crashes once and is retried, ``b`` runs on
        # both replicas -- 400 submissions of three request objects.
        assert len(calls) == 400
        requests = {}
        for request, _kwargs in calls:
            requests.setdefault((request.activity, request.hostname), set()).add(
                id(request)
            )
        assert {pair: len(ids) for pair, ids in requests.items()} == {
            ("a", "h1"): 1,
            ("b", "h2"): 1,
            ("b", "h3"): 1,
        }
        # What varies goes with the submission: each instance's attempts
        # were numbered apart (one crash each), under its own id.
        assert len({kwargs["workflow_id"] for _request, kwargs in calls}) == 100
        assert all(sum(r.tries.values()) == 4 for r in results.values())

