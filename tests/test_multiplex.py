"""Multiplexed engine hosting: N concurrent instances, one shared runtime.

Covers :class:`repro.engine.host.EngineHost` and the per-instance scoping
it relies on: verdicts handed back to the coordinator that tracked the
attempt (the bus only narrates, ``workflow_id`` on every payload),
``(workflow_id, activity)`` attempt counters, scoped checkpoint-flag keys,
host-managed engine-id allocation, batched heartbeat delivery, and the
determinism contract — multiplexed results bit-identical to isolated
sequential runs.
"""

from __future__ import annotations

import gc
import inspect
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import (
    fig4_workflow,
    result_identity,
    run_isolated,
    run_multiplexed,
    single_task_workflow,
)
from repro.core import FailurePolicy
from repro.core.policy import ResourceSelection
from repro.detection.detector import FailureDetector
from repro.detection.messages import Done, TaskEnd
from repro.engine import EngineHost, WorkflowEngine
from repro.engine.broker import Broker
from repro.engine.instance import WorkflowInstance
from repro.errors import EngineError
from repro.events import EventBus
from repro.grid import (
    RELIABLE,
    CheckpointingTask,
    CrashingTask,
    FixedDurationTask,
    GridConfig,
    SimulatedGrid,
    UNRELIABLE,
    inject_crash,
)
from repro.obs import RunObserver, Tracer
from repro.obs.catalogue import topic_specs
from repro.wpdl import WorkflowBuilder, parse_wpdl


def quiet_grid(seed=42):
    return SimulatedGrid(seed=seed, config=GridConfig(heartbeats=False))


def fixed_grid(seed=42, *, duration=5.0):
    """One reliable unlimited-slot host running a fixed-duration task."""
    grid = quiet_grid(seed)
    grid.add_host(RELIABLE("h1", slots=None))
    grid.install("h1", "task", FixedDurationTask(duration, result="ok"))
    return grid


def crashing_grid(seed=42):
    """Task crashes deterministically on its first attempt, then succeeds."""
    grid = quiet_grid(seed)
    grid.add_host(RELIABLE("h1", slots=None))
    grid.install(
        "h1",
        "task",
        CrashingTask(duration=3.0, crash_at=1.0, crashes=1, result="ok"),
    )
    return grid


class TestEngineHostBasics:
    def test_submit_and_wait_all(self):
        grid = fixed_grid()
        host = EngineHost(grid, reactor=grid.reactor)
        ids = [host.submit(single_task_workflow()) for _ in range(3)]
        assert ids == ["wf-1", "wf-2", "wf-3"]
        results = host.wait_all(timeout=1e7)
        assert list(results) == ids
        assert all(r.succeeded for r in results.values())

    def test_results_in_submission_order(self):
        grid = fixed_grid()
        host = EngineHost(grid, reactor=grid.reactor)
        host.submit(single_task_workflow("a"))
        host.submit(single_task_workflow("b"))
        results = host.wait_all(timeout=1e7)
        assert [r.workflow for r in results.values()] == ["a", "b"]

    def test_submit_many_single_spec(self):
        grid = fixed_grid()
        host = EngineHost(grid, reactor=grid.reactor)
        ids = host.submit_many(single_task_workflow(), 5)
        assert len(ids) == 5
        assert len(host.wait_all(timeout=1e7)) == 5

    def test_duplicate_workflow_id_rejected(self):
        grid = fixed_grid()
        host = EngineHost(grid, reactor=grid.reactor)
        host.submit(single_task_workflow(), workflow_id="mine")
        with pytest.raises(EngineError, match="already submitted"):
            host.submit(single_task_workflow(), workflow_id="mine")

    def test_empty_workflow_id_rejected(self):
        grid = fixed_grid()
        host = EngineHost(grid, reactor=grid.reactor)
        with pytest.raises(EngineError, match="non-empty"):
            host.submit(single_task_workflow(), workflow_id="")

    def test_unknown_engine_lookup_raises(self):
        grid = fixed_grid()
        host = EngineHost(grid, reactor=grid.reactor)
        with pytest.raises(EngineError, match="unknown workflow_id"):
            host.engine("wf-99")

    def test_pending_then_drained(self):
        grid = fixed_grid()
        host = EngineHost(grid, reactor=grid.reactor)
        wfid = host.submit(single_task_workflow())
        assert host.pending == [wfid]
        host.wait_all(timeout=1e7)
        assert host.pending == []

    def test_no_cross_instance_serialization(self):
        # Unlimited slots: 50 concurrent instances each finish at exactly
        # the task duration, as if each ran alone.
        grid = fixed_grid(duration=7.0)
        host = EngineHost(grid, reactor=grid.reactor)
        host.submit_many(single_task_workflow(), 50)
        results = host.wait_all(timeout=1e7)
        assert {r.completion_time for r in results.values()} == {7.0}


class TestAttemptScoping:
    def test_each_instance_pays_its_own_crash(self):
        # Broken scoping would let one instance's crash consume the
        # (shared-keyed) attempt counter and the sibling would spuriously
        # succeed first try.
        grid = crashing_grid()
        host = EngineHost(grid, reactor=grid.reactor)
        host.submit_many(
            single_task_workflow(policy=FailurePolicy.retrying(3)), 2
        )
        results = host.wait_all(timeout=1e7)
        assert [r.tries["task"] for r in results.values()] == [2, 2]

    def test_scoped_checkpoint_flags_do_not_collide(self):
        grid = crashing_grid()
        host = EngineHost(grid, reactor=grid.reactor)
        host.submit_many(
            single_task_workflow(policy=FailurePolicy.retrying(3)), 2
        )
        host.wait_all(timeout=1e7)
        # Both coordinators shared one CheckpointManager without clobbering
        # each other; all per-instance scopes drained at completion.
        assert host.runtime.checkpoints.snapshot() == {}


class TestEventScoping:
    def test_no_cross_instance_event_leakage(self):
        """100 concurrent crash-and-retry instances: every task event names
        its instance on the payload (topics are plain), a coordinator is
        handed its own attempts' verdicts and no sibling's, and a tap sees
        a verdict before the resolution and completion it caused."""
        grid = crashing_grid()
        host = EngineHost(grid, reactor=grid.reactor)
        tapped = []
        host.runtime.bus.add_tap(
            lambda topic, payload: tapped.append((topic, payload))
        )
        spec = single_task_workflow(policy=FailurePolicy.retrying(3))
        handed = []
        for wfid in host.submit_many(spec, 100):
            coordinator = host.engine(wfid).coordinator

            def handle(outcome, wfid=wfid, handle=coordinator.handle_outcome):
                handed.append((wfid, outcome))
                handle(outcome)

            # Read off the instance at every submit (a tracer's seam), so
            # this is what the detector calls.
            coordinator.handle_outcome = handle
        results = host.wait_all(timeout=1e7)
        assert len(results) == 100
        assert all(r.succeeded and r.tries["task"] == 2 for r in results.values())

        declared = {spec.topic for spec in topic_specs()}
        verdicts = []
        last_verdict = {}  # workflow_id -> its latest terminal task event
        for topic, payload in tapped:
            assert topic in declared
            if topic.startswith("task."):
                assert payload.workflow_id in results
                if topic != "task.active":
                    verdicts.append(payload)
                    last_verdict[payload.workflow_id] = (payload.activity, topic)
                continue
            assert payload["workflow_id"] in results
            if topic == "recovery.retry":
                cause = (payload["activity"], "task.failed")
            elif topic == "recovery.resolved":
                cause = (payload["activity"], "task." + payload["state"])
            elif topic == "engine.node_completed":
                cause = (payload["node"], "task." + payload["status"])
            else:
                continue
            assert last_verdict[payload["workflow_id"]] == cause
        assert len(verdicts) == 200
        assert [(o.workflow_id, o) for o in verdicts] == handed

    def test_nothing_outside_obs_subscribes(self):
        # Control by call, narration by bus: only the telemetry plane
        # consumes the bus, and only through its log's tap, so nothing that
        # steers a run — nor any alert — can come to depend on dispatch
        # order or on who else is listening.
        import ast
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        offenders = [
            f"{path.relative_to(root)}:{node.lineno}"
            for path in sorted(root.rglob("*.py"))
            if path != root / "events.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and (
                node.func.attr == "subscribe"
                or (node.func.attr == "add_tap" and root / "obs" not in path.parents)
            )
        ]
        assert offenders == []

    def test_the_plane_reads_the_bus_through_one_tap(self):
        # Pay once per event: inside ``repro.obs`` one tap (the event
        # log's) appends every publish, taking one snapshot of its payload,
        # and everything else is a view of the log or a fold over it.  No
        # routed subscription is left: the fold that finds a drift latches
        # the health engine's rule by call.
        import ast
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        calls: dict[str, list[str]] = {"subscribe": [], "add_tap": [], "dict(payload)": []}
        for path in sorted(root.rglob("*.py")):
            if path == root / "events.py":
                continue
            where = str(path.relative_to(root))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                if isinstance(node.func, ast.Attribute) and node.func.attr in calls:
                    calls[node.func.attr].append(where)
                elif where.startswith("obs/") and ast.unparse(node) == "dict(payload)":
                    calls["dict(payload)"].append(where)
        assert calls == {
            "subscribe": [],
            "add_tap": ["obs/log.py"],
            "dict(payload)": ["obs/log.py"],
        }
        source = (root / "obs" / "estimators.py").read_text(encoding="utf-8")
        assert "self.health.latch_drift(DRIFT_MTTF, drift)" in source

    def test_unscoped_single_engine_unchanged(self):
        # The classic path publishes on bare topics with empty workflow_id.
        grid = fixed_grid()
        engine = WorkflowEngine(
            single_task_workflow(), grid, reactor=grid.reactor
        )
        done = []
        engine.runtime.bus.subscribe("task.done", lambda _t, o: done.append(o))
        result = engine.run(timeout=1e7)
        assert result.succeeded
        assert len(done) == 1
        assert done[0].workflow_id == ""


class TestDeterminism:
    def test_multiplexed_equals_isolated_sequential(self):
        def chain_grid(seed=11):
            grid = quiet_grid(seed)
            # Unlimited slots: instances must not contend for capacity, or
            # multiplexed completion times would (correctly) diverge.
            grid.add_host(RELIABLE("u1", slots=None))
            grid.install("u1", "prep", FixedDurationTask(2.0, result="prepped"))
            grid.install(
                "u1",
                "crunch",
                CrashingTask(
                    duration=4.0, crash_at=1.0, crashes=1, result="crunched"
                ),
            )
            grid.install("u1", "publish", FixedDurationTask(1.0, result="done"))
            return grid

        chain = (
            WorkflowBuilder("chain")
            .program("prep", hosts=["u1"])
            .program("crunch", hosts=["u1"])
            .program("publish", hosts=["u1"])
            .activity("prep", implement="prep")
            .activity(
                "crunch", implement="crunch", policy=FailurePolicy.retrying(3)
            )
            .activity("publish", implement="publish")
            .sequence("prep", "crunch", "publish")
            .build()
        )
        single = single_task_workflow(policy=FailurePolicy.retrying(3))
        for spec, crasher, instances, make_grid in (
            (single, "task", 10, crashing_grid),
            (chain, "crunch", 100, chain_grid),
        ):
            specs = [spec] * instances
            mux = run_multiplexed(specs, make_grid())
            seq = run_isolated(specs, make_grid)
            assert [result_identity(m) for m in mux] == [
                result_identity(s) for s in seq
            ]
            # Every instance pays its own scripted crash and retry, however
            # many siblings share the runtime.
            assert all(m.succeeded and m.tries[crasher] == 2 for m in mux)

    def test_mixed_specs_multiplexed_equals_isolated(self):
        def make_grid(seed=42):
            grid = quiet_grid(seed)
            grid.add_host(RELIABLE("u1", slots=None))
            grid.add_host(RELIABLE("r1", slots=None))
            grid.install("u1", "fast", FixedDurationTask(5.0, result="f"))
            grid.install("r1", "slow", FixedDurationTask(50.0, result="s"))
            grid.add_host(RELIABLE("h1", slots=None))
            grid.install("h1", "task", FixedDurationTask(2.0, result="ok"))
            return grid

        specs = [fig4_workflow(), single_task_workflow(), fig4_workflow()]
        mux = run_multiplexed(specs, make_grid())
        seq = run_isolated(specs, make_grid)
        assert [result_identity(m) for m in mux] == [
            result_identity(s) for s in seq
        ]


# Deterministic per-activity durations drawn by hypothesis; the grid
# installs one executable per (spec, activity) so instances of different
# specs never share attempt identities by accident.
@st.composite
def chain_specs(draw):
    n_specs = draw(st.integers(min_value=2, max_value=8))
    specs = []
    for s in range(n_specs):
        n_tasks = draw(st.integers(min_value=1, max_value=3))
        durations = [
            draw(st.integers(min_value=1, max_value=20)) for _ in range(n_tasks)
        ]
        crash_first = draw(st.booleans())
        specs.append((s, durations, crash_first))
    return specs


class TestInterleavingProperty:
    @settings(max_examples=20, deadline=None)
    @given(chain_specs())
    def test_interleaved_equals_isolated(self, specs):
        """2–8 random chain workflows: concurrent interleaved execution is
        indistinguishable (statuses, tries, completion times, variables)
        from each running alone."""

        def build_spec(index, durations, crash_first):
            builder = WorkflowBuilder(f"chain-{index}")
            prev = None
            for i in range(len(durations)):
                exe = f"exe-{index}-{i}"
                builder.program(exe, hosts=["h1"])
                builder.activity(
                    f"t{i}",
                    implement=exe,
                    policy=FailurePolicy.retrying(3),
                )
                if prev is not None:
                    builder.transition(prev, f"t{i}")
                prev = f"t{i}"
            return builder.build()

        def build_grid(seed=42):
            grid = quiet_grid(seed)
            grid.add_host(RELIABLE("h1", slots=None))
            for index, durations, crash_first in specs:
                for i, duration in enumerate(durations):
                    if crash_first and i == 0:
                        behavior = CrashingTask(
                            duration=float(duration),
                            crash_at=float(duration) / 2,
                            crashes=1,
                            result=i,
                        )
                    else:
                        behavior = FixedDurationTask(float(duration), result=i)
                    grid.install("h1", f"exe-{index}-{i}", behavior)
            return grid

        workflows = [build_spec(*spec) for spec in specs]
        mux = run_multiplexed(workflows, build_grid())
        seq = run_isolated(workflows, build_grid)
        assert [result_identity(m) for m in mux] == [
            result_identity(s) for s in seq
        ]


class TestObserverDimension:
    def test_per_instance_spans_and_labels(self):
        grid = fixed_grid()
        host = EngineHost(grid, reactor=grid.reactor)
        observer = RunObserver(host.runtime.bus, clock=grid.reactor.now)
        host.submit_many(single_task_workflow(), 3)
        host.wait_all(timeout=1e7)
        wf_spans = [s for s in observer.spans if s.name == "workflow.run"]
        assert {s.labels["workflow_id"] for s in wf_spans} == {
            "wf-1",
            "wf-2",
            "wf-3",
        }
        node_spans = [s for s in observer.spans if s.name == "node.run"]
        assert len(node_spans) == 3
        parents = {s.parent for s in node_spans}
        assert parents == {s.id for s in wf_spans}

    def test_workflow_id_metric_label(self):
        grid = fixed_grid()
        host = EngineHost(grid, reactor=grid.reactor)
        observer = RunObserver(host.runtime.bus, clock=grid.reactor.now)
        host.submit_many(single_task_workflow(), 2)
        host.wait_all(timeout=1e7)
        # A series is named by the specification: two instances of one
        # workflow are one series, and no series carries an instance id ...
        registry = observer.metrics
        assert (
            registry.value("engine_workflow_runs_total", status="done", workflow="single")
            == 2
        )
        assert (
            registry.value(
                "task_attempts_total", activity="task", outcome="done", workflow="single"
            )
            == 2
        )
        assert not any(
            "workflow_id" in dict(key)
            for family in registry.families()
            for key in family.series
        )
        # ... the instances are told apart where detail is bounded by a ring.
        runs = [s for s in observer.spans if s.name == "workflow.run"]
        assert [s.labels["workflow_id"] for s in runs] == ["wf-1", "wf-2"]

    def test_unscoped_run_has_no_workflow_id_label(self):
        grid = fixed_grid()
        engine = WorkflowEngine(
            single_task_workflow(), grid, reactor=grid.reactor
        )
        observer = RunObserver.attach(engine)
        engine.run(timeout=1e7)
        spans = [s for s in observer.spans if s.name == "workflow.run"]
        assert len(spans) == 1
        assert "workflow_id" not in spans[0].labels


class TestEngineIdAllocation:
    def test_host_managed_reset_preserves_id_space(self):
        grid = fixed_grid()
        host = EngineHost(grid, reactor=grid.reactor)
        first = host.submit(single_task_workflow())
        host.wait_all(timeout=1e7)
        # An engine reset inside a host-managed runtime must not rewind
        # the shared counter — the next instance still gets a fresh id.
        host.engine(first).reset()
        grid.reset(seed=42)
        second = host.submit(single_task_workflow())
        assert second != first
        assert second == "wf-2"


class TestBatchedHeartbeats:
    def _run(self, *, batch: bool):
        grid = SimulatedGrid(
            seed=3,
            config=GridConfig(crash_detection="heartbeat", heartbeats=True),
        )
        grid.add_host(RELIABLE("flaky", heartbeat_period=1.0))
        grid.add_host(RELIABLE("backup", heartbeat_period=1.0))
        grid.install("flaky", "work", FixedDurationTask(50.0))
        grid.install("backup", "work", FixedDurationTask(50.0))
        inject_crash(grid.kernel, grid.host("flaky"), at=10.0, duration=1000.0)
        from repro.core.policy import ResourceSelection

        wf = (
            WorkflowBuilder("hb")
            .program("work", hosts=["flaky", "backup"])
            .activity(
                "work",
                implement="work",
                policy=FailurePolicy.retrying(
                    None, resource_selection=ResourceSelection.ROTATE
                ),
            )
            .build()
        )
        bus = EventBus()
        host = EngineHost(
            grid,
            reactor=grid.reactor,
            bus=bus,
            detector=FailureDetector(
                grid.reactor,
                bus,
                heartbeat_timeout=5.0,
                batch_heartbeats=batch,
            ),
        )
        host.submit(wf)
        results = host.wait_all(timeout=1e6)
        return list(results.values())[0]

    def test_batched_equals_unbatched(self):
        batched = self._run(batch=True)
        unbatched = self._run(batch=False)
        assert result_identity(batched) == result_identity(unbatched)
        assert batched.succeeded
        assert batched.tries["work"] == 2

    def test_host_has_no_batching_knob(self):
        # A detector the host builds always batches; the choice is made by
        # passing one's own detector=.
        assert "batch_heartbeats" not in inspect.signature(EngineHost).parameters


class TestDemandDrivenPublication:
    """Publishers build payloads only when someone receives them
    (``EventBus.wants``); what a listener sees, and the trace ids on it,
    must not depend on when it started listening."""

    INSTANCES = 100

    def _run(self, attach_after: int | None):
        """100 staggered crash-and-retry instances with causal tracing on;
        a ``RunObserver`` attaches once *attach_after* have finished
        (``None``: never).  Returns (events it recorded, index of the first
        event recorded after the 50th termination, results, bus stats)."""
        grid = crashing_grid()
        host = EngineHost(grid, reactor=grid.reactor, tracer=Tracer())
        bus = host.runtime.bus
        reactor = grid.reactor
        workflow = single_task_workflow()
        for i in range(self.INSTANCES):
            reactor.call_later(1.5 * i, lambda: host.submit(workflow))
        observer = None
        if attach_after == 0:
            observer = RunObserver(bus, clock=reactor.now)
        reactor.run_until_complete(lambda: len(host.results()) >= 50)
        cut = len(observer.events) if observer is not None else 0
        if attach_after == 50:
            observer = RunObserver(bus, clock=reactor.now)
        reactor.run_until_complete(
            lambda: len(host.results()) == self.INSTANCES
        )
        events = observer.events if observer is not None else []
        return events, cut, list(host.results().values()), bus.stats()

    def test_late_subscriber_sees_what_an_early_one_saw(self):
        early, cut, early_results, early_stats = self._run(0)
        late, _, late_results, late_stats = self._run(50)
        _, _, bare_results, bare_stats = self._run(None)
        assert 0 < cut < len(early)
        # Same topics, payloads and trace/span/parent ids from then on.
        assert late == early[cut:]
        assert any(event.detail.get("parent_id") for event in late)
        identities = [result_identity(r) for r in bare_results]
        assert [result_identity(r) for r in early_results] == identities
        assert [result_identity(r) for r in late_results] == identities
        # Every publication is offered whoever listens; only the share
        # that is built and dispatched differs.
        assert (
            early_stats["publishes"]
            == late_stats["publishes"]
            == bare_stats["publishes"]
        )
        assert early_stats["declined"] == 0
        assert 0 < late_stats["declined"] < bare_stats["declined"]


class TestNothingOutlivesTheVerdict:
    """The detector and GRAM hold live attempts only: a long-lived host
    running batch after batch must not accumulate per-attempt state."""

    #: Types of which one instance exists per submitted attempt.  A
    #: ``SubmitRequest`` is not one of them: a launch plan keeps one per
    #: (activity, option), which every instance and retry resubmits.
    PER_ATTEMPT = {
        "_Attempt",
        "JobProcess",
        "PlanContext",
        "AttemptOutcome",
    }

    def _census(self):
        gc.collect()
        objects = gc.get_objects()
        per_attempt = sum(1 for o in objects if type(o).__name__ in self.PER_ATTEMPT)
        requests = sum(1 for o in objects if type(o).__name__ == "SubmitRequest")
        return len(objects), per_attempt, requests

    def test_three_batches_on_one_host(self):
        grid = SimulatedGrid(
            seed=11,
            config=GridConfig(crash_detection="heartbeat", heartbeats=True),
        )
        hosts = [f"v{i}" for i in range(4)]
        for name in hosts:
            grid.add_host(
                UNRELIABLE(
                    name, mttf=30.0, mean_downtime=3.0, heartbeat_period=1.0,
                    slots=None,
                )
            )
        grid.install_everywhere("task", FixedDurationTask(15.0, result="ok"))
        policy = FailurePolicy.retrying(
            None, resource_selection=ResourceSelection.ROTATE
        )
        workflow = (
            WorkflowBuilder("chain")
            .program("task", hosts=hosts)
            .activity("a", implement="task", policy=policy)
            .activity("b", implement="task", policy=policy)
            .transition("a", "b")
            .build()
        )
        host = EngineHost(grid, reactor=grid.reactor, heartbeat_timeout=3.0)
        detector = host.runtime.detector
        censuses = [self._census()]
        tables, submitted, tries = [], [], []
        for _batch in range(3):
            host.submit_many(workflow, 100)
            results = host.wait_all(timeout=1e7)
            # A host that is down as the batch ends still owes the report
            # of the jobs its crash orphaned (all long since failed over by
            # heartbeat suspicion); give it time to come back and file it.
            grid.reactor.run_until_idle(timeout=60.0)
            censuses.append(self._census())
            tables.append((detector.live_attempts, grid.gram.live_jobs))
            submitted.append(grid.gram.submitted_count)
            tries.append(sum(sum(r.tries.values()) for r in results.values()))
        assert all(r.succeeded for r in results.values()) and len(results) == 300
        assert tries[-1] > 800  # hosts did crash under the batches
        assert tables == [(0, 0)] * 3
        assert submitted == tries
        # No per-attempt object survives its batch ...
        assert [per_attempt for _total, per_attempt, _ in censuses] == [0, 0, 0, 0]
        # ... and the requests kept for reuse are one per (activity, option)
        # (counted over what the process held before the first batch).
        requests = [count - censuses[0][2] for _total, _per_attempt, count in censuses]
        assert max(requests) <= 2 * len(hosts), requests
        # ... so what a batch leaves behind is per-instance state (engines,
        # results), the same for every batch however many attempts it took
        # — give or take the hosts' own timers at the moment of the census.
        totals = [total for total, _per_attempt, _ in censuses]
        assert totals[3] - totals[2] <= 1.05 * (totals[2] - totals[1])

        # A straggler for a job that already has its verdict is an
        # unknown-job message: ignored, nothing published, nothing revived.
        offered = host.runtime.bus.stats()["publishes"]
        detector.deliver(Done(job_id="job-000001", hostname="v0", exit_code=0))
        detector.deliver(TaskEnd(job_id="job-000001", hostname="v0"))
        assert host.runtime.bus.stats()["publishes"] == offered
        assert detector.live_attempts == 0
        assert detector.state_of("job-000001") is None

    # -- launch plans: weak towards the spec, weak towards the runtime -----

    CHAIN = """
    <Workflow name='chain-{n}'>
      <Activity name='a' max_tries='3'><Implement>task</Implement></Activity>
      <Activity name='b' max_tries='3'><Implement>task</Implement></Activity>
      <Activity name='c' policy='replica'><Implement>both</Implement></Activity>
      <Transition from='a' to='b'/>
      <Transition from='b' to='c'/>
      <Program name='task'><Option hostname='h1'/></Program>
      <Program name='both'><Option hostname='h1'/><Option hostname='h2'/></Program>
    </Workflow>
    """

    def _two_host_grid(self):
        grid = quiet_grid()
        for name in ("h1", "h2"):
            grid.add_host(RELIABLE(name, slots=None))
        grid.install_everywhere("task", FixedDurationTask(2.0, result="ok"))
        grid.install_everywhere("both", FixedDurationTask(2.0, result="ok"))
        return grid

    def test_plans_go_when_their_specification_goes(self):
        grid = self._two_host_grid()
        host = EngineHost(grid, reactor=grid.reactor)
        plans = host.runtime.launch_plans
        sizes = [len(plans)]
        for _batch in range(3):
            # Freshly parsed every time: new spec objects, new policies.
            specs = [parse_wpdl(self.CHAIN.format(n=n)) for n in range(4)]
            for spec in specs:
                host.submit_many(spec, 5)
            results = host.wait_all(timeout=1e6)
            assert all(r.succeeded for r in results.values())
            assert len(plans) == 4  # one table per live specification ...
            assert sum(len(table) for table in plans.values()) == 8  # of 2 plans
            # The host keeps every engine it ever ran, for diagnostics;
            # retire the batch by hand, the way a long-lived deployment
            # would, and drop our own references.  An engine and its
            # coordinator refer to each other, so it takes the collector
            # to free them — and with them the last holders of the specs.
            host._engines.clear()
            host._results.clear()
            host._order.clear()
            del specs, spec, results
            gc.collect()
            sizes.append(len(plans))
        assert sizes == [0, 0, 0, 0]
        assert gc.collect() == 0

    def test_spec_compiled_form_and_plans_are_free_of_cycles(self, reactor, bus):
        # Without engines in the picture reference counting alone must do:
        # the collector is off, and finds nothing when asked afterwards.
        from repro.engine.recovery import RecoveryCoordinator
        from tests.test_recovery import FakeService

        table = weakref.WeakKeyDictionary()
        gc.collect()
        gc.disable()
        try:
            spec = parse_wpdl(self.CHAIN.format(n=0))
            WorkflowInstance(spec)
            coordinator = RecoveryCoordinator(
                FakeService(),
                FailureDetector(reactor, bus),
                Broker(),
                reactor,
                on_resolution=[].append,
                plans=table.setdefault(spec.compiled, {}),
            )
            for node in spec.compiled.nodes.values():
                coordinator.start_activity(node.node, node.program)
            assert len(table[spec.compiled]) == 2
            # The coordinator stays (it and the detector refer to each other
            # through the attempts in flight); it holds plans, not the spec.
            del spec, node
            assert len(table) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_specification_outlives_twenty_runtimes_unchanged(self):
        spec = parse_wpdl(self.CHAIN.format(n=0))

        def reachable_from_spec():
            seen, stack = set(), [spec]
            while stack:
                obj = stack.pop()
                if id(obj) in seen or isinstance(obj, type):
                    continue
                seen.add(id(obj))
                stack.extend(gc.get_referents(obj))
            return len(seen)

        def run_on_a_new_host():
            grid = self._two_host_grid()
            host = EngineHost(grid, reactor=grid.reactor)
            host.submit_many(spec, 3)
            assert all(r.succeeded for r in host.wait_all(timeout=1e6).values())
            assert len(host.runtime.launch_plans) == 1

        run_on_a_new_host()  # compiles the spec
        gc.collect()
        before = reachable_from_spec()
        assert weakref.getweakrefcount(spec.compiled) == 0
        for _ in range(20):
            run_on_a_new_host()
        # Hosts, grids and engines are cyclic garbage of their own making;
        # once collected, every runtime's plan table and its weak key on
        # the compiled form are gone, and the spec is as it was.
        gc.collect()
        assert weakref.getweakrefcount(spec.compiled) == 0
        assert reachable_from_spec() == before
        assert gc.collect() == 0

    def test_attempts_leave_nothing_for_the_collector(self):
        # A job re-arms one timer with a callback bound to the job itself;
        # unless that reference goes at finish/cancel/crash, every attempt
        # is a cycle only the collector can free (and an engine-level MC
        # run stops being collection-free).  With the collector off, what
        # reference counting did not free is still there to be found.
        grid = SimulatedGrid(
            seed=11, config=GridConfig(crash_detection="prompt", heartbeats=True)
        )
        hosts = [f"v{i}" for i in range(4)]
        for name in hosts:
            grid.add_host(
                UNRELIABLE(
                    name, mttf=30.0, mean_downtime=3.0, heartbeat_period=1.0,
                    slots=None,
                )
            )
        grid.install_everywhere("task", FixedDurationTask(15.0, result="ok"))
        grid.install_everywhere(
            "solve",
            CheckpointingTask(12.0, checkpoints=6, overhead=0.25, recovery_time=0.25),
        )
        workflow = (
            WorkflowBuilder("w")
            .program("task", hosts=hosts[:3])
            .program("solve", hosts=hosts)
            # Replicas: the first to finish cancels its siblings mid-flight.
            .activity(
                "a", implement="task", policy=FailurePolicy.replica(max_tries=None)
            )
            .activity(
                "b",
                implement="solve",
                policy=FailurePolicy.retrying(
                    None, resource_selection=ResourceSelection.ROTATE
                ),
            )
            .transition("a", "b")
            .build()
        )
        host = EngineHost(grid, reactor=grid.reactor, heartbeat_timeout=3.0)
        host.submit_many(workflow, 5)  # plans, routes and caches get built
        host.wait_all(timeout=1e7)
        submitted = grid.gram.submitted_count
        cancelled = grid.kernel.stats()["timers_cancelled"]
        gc.collect()
        gc.disable()
        try:
            host.submit_many(workflow, 40)
            results = host.wait_all(timeout=1e7)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert all(r.succeeded for r in results.values())
        assert grid.gram.submitted_count - submitted >= 200
        assert sum(h.jobs_killed for h in grid.hosts.values()) > 50  # outages
        assert grid.kernel.stats()["timers_cancelled"] - cancelled > 50
        assert unreachable == 0
