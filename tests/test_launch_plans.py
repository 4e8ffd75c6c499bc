"""One launch plan per (program, policy) on the runtime — and what a plan
must *not* hold.

A plan keeps the options its slots start on and each literal
``<Option>``'s target, so starting an activity or an attempt re-derives
neither.  These tests pin the other side of that: a ``hostname='*'`` option
is matched against the catalog and the activity's query at every
submission — away from the hosts a replica's siblings hold — and the
engine's per-launch rebuilt activity finds the plan of the activity it came
from and still submits its freshly bound arguments.  And what a plan *does*
share: one ``SubmitRequest`` per (activity, literal option), whatever the
instance or the attempt.  (Lifetime — weak towards the
specification and towards the runtime — is in
``tests/test_multiplex.py::TestNothingOutlivesTheVerdict``.)
"""

from __future__ import annotations

import pytest

from repro.catalogs import ResourceCatalog, ResourceQuery
from repro.core import FailurePolicy
from repro.engine import EngineHost
from repro.engine.broker import Broker
from repro.errors import BrokerError
from repro.grid import (
    RELIABLE,
    CrashingTask,
    FixedDurationTask,
    GridConfig,
    SimulatedGrid,
)
from repro.wpdl import WorkflowBuilder
from repro.wpdl.model import Parameter

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
        # A resource registered after the plan was made, ranked above h2.
        newcomer = RELIABLE("h0", slots=None, speed=2.5)
        grid.add_host(newcomer)
        grid.install("h0", "task", FixedDurationTask(2.0, result="ok"))
        catalog.register(newcomer)
        assert run_one() == "h0"
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
        resolve = Broker.resolve_index

        def counting(self, activity, program, index, **kwargs):
            calls.append(index)
            return resolve(self, activity, program, index, **kwargs)

        monkeypatch.setattr(Broker, "resolve_index", counting)
        host = EngineHost(grid, reactor=grid.reactor)
        # Held here: the host drops its engines, and plans go with the spec.
        spec = one_task("h2")
        host.submit_many(spec, 25)
        results = host.wait_all(timeout=1e6)
        assert len(results) == 25 and all(r.succeeded for r in results.values())
        assert [r.hostname for r in submitted] == ["h2"] * 25
        assert calls == [0]
        assert len(plans_of(host.runtime)) == 1


@pytest.mark.contract
class TestDirectoryBrokeredReplicas:
    """A replica's ``*`` option is matched away from the hosts its sibling
    slots hold: at start, the hosts earlier slots chose; at a retry, the
    hosts of siblings with a live attempt.  Every slot's target is found
    before the first submission, so a broker error submits nothing."""

    def run(self, grid, catalog, *hosts, policy):
        host = EngineHost(grid, reactor=grid.reactor, broker=Broker(catalog))
        host.submit(one_task(*hosts, policy=policy))
        assert all(r.succeeded for r in host.wait_all(timeout=1e6).values())

    def test_two_wildcards_land_on_distinct_hosts(self):
        grid, catalog, submitted = make_grid()
        self.run(grid, catalog, "*", "*", policy=FailurePolicy.replica())
        assert [r.hostname for r in submitted] == ["h1", "h2"]

    def test_a_wildcard_avoids_its_literal_sibling(self):
        grid, catalog, submitted = make_grid()
        self.run(grid, catalog, "h1", "*", policy=FailurePolicy.replica())
        assert [r.hostname for r in submitted] == ["h1", "h2"]

    def test_a_retry_avoids_the_host_of_a_live_sibling(self):
        grid, catalog, submitted = make_grid()
        grid.install("h1", "task", FixedDurationTask(30.0, result="ok"))
        # GRAM numbers the activity's attempts: h1 runs the first, h2 the second.
        grid.install("h2", "task", CrashingTask(2.0, 1.0, crashes=2, result="ok"))
        self.run(grid, catalog, "*", "*", policy=FailurePolicy.replica(max_tries=2))
        # Slot 1 crashes on h2 while slot 0 runs on h1: h2 again, not h1.
        assert [r.hostname for r in submitted] == ["h1", "h2", "h2"]

    def test_a_broker_error_leaves_nothing_submitted(self):
        grid, _catalog, submitted = make_grid()
        host = EngineHost(grid, reactor=grid.reactor)  # no catalog
        host.submit(one_task("h1", "*", policy=FailurePolicy.replica()))
        with pytest.raises(BrokerError, match="no resource catalog"):
            host.wait_all(timeout=1e6)
        assert grid.gram.submitted_count == 0 and submitted == []


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

