"""One log under the plane: when a fold runs must not be observable.

The telemetry plane appends one record per publish and computes everything
else later — at the collector's tick, before a read, or when as many
records wait as the log's ring holds.  The reference is the cadence it had
before (``tests.eager_models.fold_eagerly``: every consumer up to date
after every publish); the two must render the same bytes through every
readable output, on the plane golden's batch and on random interleavings
of publishes, ticks, reads and engine resets.  A ring of a few
records (fold-before-overwrite on most appends) must compute what a ring
of 65 536 does — and show less of it: events, spans and the journal are
views of what the ring still holds.  A thread that is not the publishing
one must never fold — only see what the last fold left, whole.

*What* is folded has a reference too: the observer's and the tracker's own
loops, as they were before one pass off one per-instance table replaced
them (``EagerSpanFold``, ``EagerTracker``), run over each consumer's own
records after the fact.  Spans, registry and status must equal theirs on
the golden batch and on every interleaving.

A consumer is attached for the life of its bus: the log has one fold, and
what would make a consumer read differently from one attached from the
start — another bus, a second consumer of its kind, a join onto running
instances — is refused.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import sys
import threading
import time
import urllib.request

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import FailurePolicy
from repro.detection.detector import AttemptOutcome, TaskState
from repro.engine import EngineHost, EngineTrace, WorkflowEngine
from repro.errors import GridWFSError
from repro.events import EventBus
from repro.grid import (
    RELIABLE,
    CrashingTask,
    FixedDurationTask,
    GridConfig,
    SimulatedGrid,
)
from repro.obs import (
    AttachError,
    EstimatorSuite,
    EventLog,
    FlightRecorder,
    HealthEngine,
    PeriodicCollector,
    RunObserver,
    TelemetryServer,
    TimeSeriesStore,
    Tracer,
    WorkflowStatusTracker,
    default_rules,
    priors_from_grid,
    prometheus_text,
    scrape_bus,
)
from repro.obs.log import Fold
from tests.eager_models import EagerSpanFold, EagerTracker, fold_eagerly
from tests.helpers import single_task_workflow
from tests.obs_plane import ObservedHost

SEEDS = (20030623, 19990803)


def _journal(entries) -> list[str]:
    """A journal without its positions: folds publish (``obs.drift.*``)
    when they run, so *where* those entries land is the one thing the
    cadence may move — not what they say."""
    return sorted(
        json.dumps({k: v for k, v in entry.items() if k != "seq"}, default=str)
        for entry in entries
    )


def _spans(spans) -> list[list]:
    return [[s.id, s.name, s.sim_start, s.sim_end, s.parent, s.labels] for s in spans]


def assert_folds_like_the_parent(observer, tracker) -> None:
    """*observer* and *tracker* (on an unwrapped log) read what the parent's
    per-consumer folds make of the records published since they attached."""
    model = EagerSpanFold(observer._records())

    def stamped(spans):
        return [(s.wall_start, s.wall_end, *_spans([s])[0]) for s in spans]

    assert stamped(observer.spans) == stamped(model.spans)
    registry = observer.metrics.snapshot()
    for name, family in model.metrics.snapshot().items():
        assert registry[name] == family, name
    assert tracker.snapshot() == EagerTracker(tracker._records()).snapshot()


# -- the golden batch ---------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_golden_batch_reads_the_same_folded_per_event_and_per_tick(seed):
    outputs = []
    for eager in (True, False):
        plane = ObservedHost(seed)
        log = fold_eagerly(plane.bus) if eager else EventLog.on(plane.bus)
        folds = _count_folds(log)
        plane.run_batch(20)
        # Every publish folded — or every tick, the plane's stop, and the
        # odd alert a rule published before the next rule read its value.
        ticks, recorded = plane.plane.collector.ticks, plane.recorder.stats()["recorded"]
        if eager:
            assert folds[0] == recorded
        else:
            assert ticks < folds[0] <= ticks + 3 and 10 * ticks < recorded
        outputs.append(plane.outputs())
        assert_folds_like_the_parent(plane.observer, plane.tracker)
    eagerly, at_ticks = outputs
    for name in ("events", "spans", "tracker", "registry", "prometheus", "store"):
        assert at_ticks[name] == eagerly[name], name
    assert _journal(at_ticks["recorder"]) == _journal(eagerly["recorder"])


@pytest.mark.parametrize("seed", SEEDS)
def test_a_ring_of_64_folds_what_a_ring_of_65536_does(seed):
    outputs, folds, views = [], [], []
    for capacity in (64, 65_536):
        # The log exists, at this size, before anything attaches.
        bus = EventBus()
        log = EventLog.on(bus, capacity=capacity)
        plane = ObservedHost(seed, bus=bus)
        assert EventLog.on(plane.bus) is log and log.capacity == capacity
        counted = _count_folds(log)
        plane.run_batch(200)
        observer, tracker = plane.observer, plane.tracker
        outputs.append(
            (
                observer.metrics.snapshot(),
                tracker.snapshot(),
                plane.store.snapshot(),
            )
        )
        folds.append(counted[0])
        # The views are windows on the ring, the folds are not.
        assert len(plane.recorder.entries) == min(capacity, log.seq)
        views.append((observer.events, observer.spans))
    assert outputs[0] == outputs[1]
    # A ring of 64 holds less to look at: the last few events, and the
    # spans they make (some clipped: no parent, started where first seen).
    (few_events, few_spans), (events, spans) = views
    assert 0 < len(few_events) <= 64 < len(events)
    assert 0 < len(few_spans) <= 2 * 64 < len(spans)
    assert few_events == events[-len(few_events):]
    assert {(s.name, s.sim_end) for s in few_spans} <= {(s.name, s.sim_end) for s in spans}
    # Fold-before-overwrite did fire: most folds were the ring's doing.
    assert folds[0] > 100 and folds[0] > 3 * folds[1]


def _count_folds(log) -> list[int]:
    """Counts the folds of *log* that had something to fold."""
    counted = [0]
    fold = log.fold

    def counting_fold():
        if log._pending and not log._folding:
            counted[0] += 1
        fold()

    log.fold = counting_fold
    return counted


# -- random interleavings -----------------------------------------------------

WORKFLOWS = (("wf-1", "alpha"), ("wf-2", "alpha"), ("wf-3", "beta"), ("", "gamma"))
NODES = ("x", "y")
HOSTS = ("h1", "h2")
JOBS = tuple(f"job-{i}" for i in range(6))


class Rig:
    """A real engine and hand-made events on one bus, the whole plane
    attached, driven op by op."""

    def __init__(self, *, eager: bool, capacity: int | None = None) -> None:
        self.grid = grid = SimulatedGrid(seed=5, config=GridConfig(heartbeats=False))
        grid.add_host(RELIABLE("h1"))
        grid.install("h1", "task", CrashingTask(duration=12.0, crash_at=4.0, crashes=1))
        self.bus = bus = EventBus()
        clock = grid.reactor.now
        self.log = EventLog.on(bus, clock=clock, capacity=capacity)
        if eager:
            fold_eagerly(bus)
        self.engine = WorkflowEngine(
            single_task_workflow(policy=FailurePolicy.retrying(3, interval=1.0)),
            grid,
            reactor=grid.reactor,
            bus=bus,
            tracer=Tracer(),
        )
        self.runs = 0
        #: Hand-launched nodes still running, per instance: a stream the
        #: engine could have published launches no node twice over.
        self.launched: dict[str, set[str]] = {}
        self.observer = RunObserver(bus, clock=clock)
        self.recorder = FlightRecorder(bus)
        self.tracker = WorkflowStatusTracker(bus)
        self.store = store = TimeSeriesStore(step=2.0, capacity=8)
        # A threshold this low latches on a handful of quick failures.
        self.estimators = estimators = EstimatorSuite(
            bus,
            clock=clock,
            priors={host: (100.0, 1.0) for host in HOSTS},
            ph_threshold=2.0,
            store=store,
        )
        self.health = health = HealthEngine(clock=clock, bus=bus)
        default_rules(health, store=store, estimators=estimators, sustain=2.0)
        estimators.health = health
        self.collector = PeriodicCollector(
            store=store,
            registry=self.observer.metrics,
            reactor=grid.reactor,
            interval=2.0,
            scrapers=(lambda registry: scrape_bus(registry, bus),),
            estimators=estimators,
            health=health,
        )
        self.reads = {
            "events": lambda: self.observer.events,
            "spans": lambda: self.observer.spans,
            "metrics": lambda: self.observer.metrics.snapshot(),
            "value": lambda: self.observer.metrics.value(
                "engine_nodes_launched_total", workflow="alpha"
            ),
            "tracker": lambda: self.tracker.snapshot(),
            "journal": lambda: self.recorder.entries,
            "stats": lambda: self.recorder.stats(),
            "estimators": lambda: self.estimators.snapshot(),
            "drifted": lambda: [
                host for host, e in self.estimators.hosts.items() if e.detector.drifted
            ],
        }

    # -- ops -----------------------------------------------------------------

    def apply(self, op) -> None:
        kind = op[0]
        reactor = self.grid.reactor
        if kind == "publish":
            self.publish(*op[1:])
        elif kind == "advance":
            reactor.run_until_idle(timeout=op[1])
        elif kind == "tick":
            self.collector.tick()
        elif kind == "ticking":
            (self.collector.start if op[1] else self.collector.stop)()
        elif kind == "read":
            self.reads[op[1]]()
        elif kind == "crashes":
            # A host crashing every half second: enough to latch its drift
            # detector and to make an activity's failure rate alarming.
            for number in range(0, 14, 2):
                reactor.run_until_idle(timeout=0.5)
                self.publish("failed", op[1], 0, number % len(JOBS), op[2], number)
        elif kind == "run":
            # One real run (crash, retry, success), then the reuse path.
            self.collector.stop()
            self.runs += 1
            assert self.engine.run(timeout=1e6).succeeded
            self.grid.reset(seed=self.runs)
            self.engine.reset()

    def publish(self, what, workflow, node, job, host, number) -> None:
        wfid, name = WORKFLOWS[workflow]
        node, host = NODES[node], HOSTS[host]
        job = f"{JOBS[job]}@{node}"  # a job belongs to one activity
        running = self.launched.setdefault(wfid, set())
        at = self.grid.reactor.now()
        engine = {"workflow": name, "workflow_id": wfid, "at": at}
        recovery = {"activity": node, "workflow_id": wfid, "at": at, "span_id": f"s{number}"}
        if what in ("active", "done", "failed", "exception"):
            state = TaskState(what)
            reason = ("host-crashed", "nonzero-exit(1)")[number % 2] if what == "failed" else ""
            payload = AttemptOutcome(
                job, node, state, hostname=host, reason=reason, at=at, workflow_id=wfid
            )
            self.bus.publish(f"task.{what}", payload)
        elif what == "admitted":
            self.bus.publish("engine.workflow_admitted", engine)
        elif what == "launched":
            if node not in running:
                running.add(node)
                self.bus.publish("engine.node_launched", {**engine, "node": node})
        elif what == "completed":
            running.discard(node)
            status = ("done", "failed")[number % 2]
            self.bus.publish(
                "engine.node_completed",
                {**engine, "node": node, "status": status, "tries": number},
            )
        elif what == "cancelled":
            running.discard(node)
            self.bus.publish("engine.node_cancelled", {**engine, "node": node})
        elif what == "finished":
            running.clear()
            self.bus.publish("engine.workflow_finished", {**engine, "status": "done"})
        elif what == "retry":
            self.bus.publish(
                "recovery.retry", {**recovery, "delay": float(number % 3), "slot": 0}
            )
        elif what == "resolved":
            self.bus.publish(
                "recovery.resolved", {**recovery, "state": "done", "tries": number}
            )
        elif what == "win":
            self.bus.publish("recovery.replication_win", {**recovery, "host": host})
        elif what in ("suspected", "recovered"):
            self.bus.publish(f"detector.host_{what}", host)

    # -- what a reader can see -------------------------------------------------

    def outputs(self) -> dict[str, object]:
        return {
            "events": [[e.at, e.topic, e.detail] for e in self.observer.events],
            "spans": _spans(self.observer.spans),
            "tracker": self.tracker.snapshot(),
            "registry": self.observer.metrics.snapshot(),
            "prometheus": prometheus_text(self.observer.metrics),
            "store": self.store.snapshot(),
            "journal": _journal(self.recorder.entries),
            "recorded": self.recorder.stats(),
            "estimators": self.estimators.snapshot(),
            "alerts": self.health.alerts(),
        }


_events = st.tuples(
    st.just("publish"),
    st.sampled_from(
        [
            "admitted", "launched", "launched", "completed", "cancelled", "finished",
            "active", "active", "done", "failed", "failed", "failed", "exception",
            "retry", "resolved", "win", "suspected", "recovered",
        ]
    ),
    st.integers(0, len(WORKFLOWS) - 1),
    st.integers(0, len(NODES) - 1),
    st.integers(0, len(JOBS) - 1),
    st.integers(0, len(HOSTS) - 1),
    st.integers(0, 5),
)
_ops = st.one_of(
    _events,
    _events,
    _events,
    _events,
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.5, 1.0, 2.0, 5.0])),
    st.just(("tick",)),
    st.tuples(st.just("ticking"), st.booleans()),
    st.tuples(
        st.just("read"),
        st.sampled_from(
            ["events", "spans", "metrics", "value", "tracker", "journal", "stats",
             "estimators", "drifted"]
        ),
    ),
    st.just(("run",)),
    st.tuples(
        st.just("crashes"),
        st.integers(0, len(WORKFLOWS) - 1),
        st.integers(0, len(HOSTS) - 1),
    ),
)


class TestCadenceIsNotObservable:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(_ops, min_size=5, max_size=80))
    # A drift latched per event evaluates the health rules before any tick:
    # the event-flow rule's read of ``bus_publishes`` used to create the ring.
    @example([("run",), ("advance", 0.0), ("crashes", 0, 0)])
    def test_any_interleaving_reads_the_same_folded_per_event_and_on_demand(self, ops):
        eager, lazy, small = Rig(eager=True), Rig(eager=False), Rig(eager=False, capacity=5)
        for op in ops:
            for rig in (eager, lazy, small):
                rig.apply(op)
        expected = eager.outputs()
        assert lazy.outputs() == expected
        for rig in (eager, lazy):
            assert_folds_like_the_parent(rig.observer, rig.tracker)
        # A ring of five holds less to look at (events, spans, journal),
        # and folds to the same.
        folded = small.outputs()
        for name in ("tracker", "registry", "prometheus", "store", "estimators", "alerts"):
            assert folded[name] == expected[name], name
        assert folded["recorded"]["recorded"] == expected["recorded"]["recorded"]
        for name in ("events", "spans", "journal"):
            assert len(folded[name]) <= len(expected[name]), name

    def test_a_drift_is_published_by_the_fold_with_the_failures_own_time(self):
        eager, lazy = Rig(eager=True), Rig(eager=False)
        for rig in (eager, lazy):
            for i in range(8):
                rig.apply(("advance", 0.5))
                rig.apply(("publish", "failed", 0, 0, i % len(JOBS), 0, 0))
        assert eager.estimators.drift_events == 1
        assert lazy.estimators.drift_events == 0  # nobody looked yet
        assert lazy.estimators.hosts["h1"].detector.drifted  # a read folds
        assert lazy.estimators.drift_events == 1
        drifts = [
            [e for e in rig.recorder.entries if e["topic"] == "obs.drift.mttf"]
            for rig in (eager, lazy)
        ]
        ((eagerly,), (lazily,)) = drifts
        # Published later in the journal, saying the same thing.
        assert lazily["seq"] > eagerly["seq"]
        del lazily["seq"], eagerly["seq"]
        assert lazily == eagerly and lazily["at"] < lazy.grid.reactor.now()
        assert lazy.outputs() == eager.outputs()


# -- threads ------------------------------------------------------------------


class TestOnlyThePublishingThreadFolds:
    def test_a_read_from_another_thread_sees_the_last_folded_state(self):
        bus = EventBus()
        observer, tracker, recorder = (
            RunObserver(bus),
            WorkflowStatusTracker(bus),
            FlightRecorder(bus),
        )
        suite = EstimatorSuite(bus)
        log = EventLog.on(bus)
        launched = {"workflow": "w", "workflow_id": "wf-1", "node": "a", "at": 0.0}

        def read():
            return (
                observer.metrics.snapshot(),
                prometheus_text(observer.metrics),
                [s.name for s in observer.spans],
                tracker.snapshot(),
                recorder.entries,
                suite.snapshot()["activities"],
            )

        def read_elsewhere():
            out = []
            thread = threading.Thread(target=lambda: out.append(read()))
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
            return out[0]

        bus.publish("engine.node_launched", launched)
        bus.publish("task.done", AttemptOutcome("j1", "a", TaskState.DONE, workflow_id="wf-1"))
        # Another thread folds nothing, and sees nothing folded …
        assert read_elsewhere() == ({}, "", [], [], [], [])
        assert len(log._pending) == 2
        # … until the publishing thread looks (or ticks).
        here = read()
        assert len(log._pending) == 0 and here[2] == ["workflow.run", "node.run", "task.attempt"]
        assert read_elsewhere() == here
        bus.publish("engine.node_launched", {**launched, "node": "b"})
        assert read_elsewhere() == here
        assert read() != here

    def test_scrapes_and_status_reads_during_a_paced_batch(self):
        """Hammer ``/metrics`` and ``/workflows`` from four threads while
        40 staggered crash-and-retry instances run and the collector
        ticks: every response parses and is a state some fold left (what
        it counts adds up), and the run ends exactly as it does with
        nobody reading."""
        instances = 40

        def batch():
            grid = SimulatedGrid(config=GridConfig(heartbeats=False))
            grid.add_host(RELIABLE("h1", slots=None))
            grid.install(
                "h1", "task", CrashingTask(duration=3.0, crash_at=1.0, crashes=1)
            )
            bus = EventBus()
            observer = RunObserver(bus, clock=grid.reactor.now)
            tracker = WorkflowStatusTracker(bus)
            store = TimeSeriesStore(step=0.5)
            collector = PeriodicCollector(
                store=store,
                registry=observer.metrics,
                reactor=grid.reactor,
                interval=0.5,
                scrapers=(lambda registry: scrape_bus(registry, bus),),
                estimators=EstimatorSuite(bus, clock=grid.reactor.now),
            )
            host = EngineHost(grid, reactor=grid.reactor, bus=bus)
            wf = single_task_workflow(policy=FailurePolicy.retrying(3))
            for i in range(instances):
                grid.reactor.call_later(0.7 * i, lambda: host.submit(wf))
            collector.start()
            return grid, observer, tracker, collector, host

        def drive(grid, collector, host, between_ticks=lambda: None):
            ticks, last = 0, None
            while last is None or ticks == last:
                assert grid.kernel.step()
                if collector.ticks > ticks:
                    ticks = collector.ticks
                    between_ticks()
                if last is None and len(host.results()) == instances:
                    last = ticks
            collector.stop()

        grid, observer, tracker, collector, host = batch()
        drive(grid, collector, host)
        quiet = (observer.metrics.snapshot(), tracker.snapshot())

        grid, observer, tracker, collector, host = batch()
        server = TelemetryServer(registry=observer.metrics, tracker=tracker)
        port = server.start()
        failures: list[str] = []
        responses = [0]
        stop = threading.Event()

        def check_metrics(text: str) -> None:
            totals: dict[str, float] = {}
            for line in text.splitlines():
                if line.startswith(("engine_", "task_attempts_total")):
                    name = line.split("{", 1)[0]
                    totals[name] = totals.get(name, 0.0) + float(line.rsplit(" ", 1)[1])
            launched = totals.get("engine_nodes_launched_total", 0.0)
            completed = totals.get("engine_node_completions_total", 0.0)
            if not completed <= launched <= instances:
                failures.append(f"torn scrape: {totals}")
            if "workflow_id" in text:
                failures.append("an instance id on a series")

        def check_workflows(text: str) -> None:
            for status in json.loads(text):
                attempts = status["attempts"]
                ended = sum(
                    count
                    for outcome, count in attempts.items()
                    if outcome not in ("total", "in_flight")
                )
                if attempts["in_flight"] < 0 or attempts["total"] != (
                    ended + attempts["in_flight"]
                ):
                    failures.append(f"torn status: {status}")
                if status["nodes_completed"] > status["nodes_launched"]:
                    failures.append(f"torn status: {status}")

        def hammer(path, check):
            url = f"http://127.0.0.1:{port}{path}"
            while not stop.is_set():
                try:
                    with urllib.request.urlopen(url, timeout=10) as response:
                        check(response.read().decode())
                except Exception as exc:  # noqa: BLE001 - collected below
                    failures.append(repr(exc))
                    return
                responses[0] += 1

        def let_readers_in():
            seen = responses[0]
            deadline = time.monotonic() + 5.0
            while responses[0] == seen and not failures:
                assert time.monotonic() < deadline, "reader made no progress"
                time.sleep(0.0005)

        readers = [
            threading.Thread(target=hammer, args=args, daemon=True)
            for args in (("/metrics", check_metrics), ("/workflows", check_workflows)) * 2
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for reader in readers:
                reader.start()
            drive(grid, collector, host, let_readers_in)
            stop.set()
            for reader in readers:
                reader.join(timeout=10)
                assert not reader.is_alive()
            assert not failures, failures[:3]
            assert responses[0] >= collector.ticks
            assert (observer.metrics.snapshot(), tracker.snapshot()) == quiet
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            server.stop()


# -- one pass -----------------------------------------------------------------


class _Name(str):
    """A node name whose comparisons are Python calls, so a scan over a
    layer's names shows in a call count."""

    __slots__ = ()
    __hash__ = str.__hash__

    def __eq__(self, other):
        return str.__eq__(self, other)


def _fold_calls(width: int) -> int:
    """Python-level calls (cProfile ``total_calls``) of the one fold of a
    *width*-wide layer — every node launched with a winning and a losing
    attempt before the first resolves — for all three consumers."""
    bus = EventBus()
    tracker = WorkflowStatusTracker(bus)
    consumers = RunObserver(bus), tracker, EstimatorSuite(bus)
    fold = EventLog.on(bus).sampled
    assert (fold.observer, fold.tracker, fold.estimators) == consumers
    names = [_Name(f"n{i}") for i in range(width)]
    base = {"workflow": "wide", "workflow_id": "wf-1"}

    def attempt(job, name, state):
        return AttemptOutcome(job, name, state, workflow_id="wf-1")

    bus.publish("engine.workflow_admitted", base)
    for i, name in enumerate(names):
        bus.publish("engine.node_launched", {**base, "node": name})
        bus.publish("task.active", attempt(f"win-{i}", name, TaskState.ACTIVE))
        bus.publish("task.active", attempt(f"lose-{i}", name, TaskState.ACTIVE))
    for i, name in enumerate(names):
        bus.publish("task.done", attempt(f"win-{i}", name, TaskState.DONE))
        bus.publish(
            "recovery.resolved",
            {"activity": name, "workflow_id": "wf-1", "state": "done", "tries": 1},
        )
        bus.publish("engine.node_completed", {**base, "node": name, "status": "done", "tries": 1})
    bus.publish("engine.workflow_finished", {**base, "status": "done"})
    log = EventLog.on(bus)
    profile = cProfile.Profile()
    profile.enable()
    log.fold()
    profile.disable()
    (status,) = tracker.snapshot()
    assert status["attempts"] == {
        "total": 2 * width, "in_flight": 0, "done": width, "cancelled": width
    }
    return pstats.Stats(profile).total_calls


def test_a_node_of_a_wide_layer_folds_for_what_one_of_a_narrow_layer_does():
    """No scan over an instance's running nodes or attempts per node
    completion: the fifty nodes between a 10-wide and a 60-wide layer cost
    no more calls each than the ten did (127 and 120 on CPython 3.11; the
    per-consumer folds this replaced read 216 and 267, and 397 by 200)."""
    narrow, wide = _fold_calls(10), _fold_calls(60)
    assert (wide - narrow) / 50 <= narrow / 10 <= 135, (narrow, wide)


# -- one path -----------------------------------------------------------------


def test_every_consumer_reads_through_the_one_tap():
    """What a consumer reads is what the bus's one tap appended: consumers
    add no routed subscription and no second tap."""
    grid = SimulatedGrid(config=GridConfig(heartbeats=False))
    grid.add_host(RELIABLE("h1"))
    grid.install("h1", "task", FixedDurationTask(3.0))
    bus = EventBus()
    before = bus.stats()
    consumers = [
        RunObserver(bus),
        FlightRecorder(bus),
        WorkflowStatusTracker(bus),
        EstimatorSuite(bus),
    ]
    stats = bus.stats()
    assert stats["taps"] == before["taps"] + 1
    assert stats["topics"] == 0
    WorkflowEngine(single_task_workflow(), grid, reactor=grid.reactor, bus=bus).run()
    assert consumers[1].stats()["recorded"] == bus.stats()["publishes"] > 0
    assert bus.stats()["taps"] == before["taps"] + 1


# -- one lifecycle ------------------------------------------------------------


def _launched(wfid: str) -> dict:
    return {"workflow": "w", "workflow_id": wfid, "node": "a", "at": 0.0}


class TestAttachedForTheLifeOfItsBus:
    def test_again_is_a_no_op_and_another_bus_is_refused(self):
        bus, other = EventBus(), EventBus()
        consumers = [
            RunObserver(bus),
            FlightRecorder(bus),
            WorkflowStatusTracker(bus),
            EstimatorSuite(bus),
        ]
        for consumer in consumers:
            assert consumer.attach_bus(bus) is consumer
            with pytest.raises(AttachError, match="another bus"):
                consumer.attach_bus(other)
        assert issubclass(AttachError, GridWFSError)
        assert (bus.stats()["taps"], other.stats()["taps"]) == (1, 0)
        bus.publish("engine.node_launched", _launched("wf-1"))
        other.publish("engine.node_launched", _launched("wf-2"))
        observer, recorder, tracker, _suite = consumers
        assert [e["workflow_id"] for e in recorder.entries] == ["wf-1"]
        assert [s["workflow_id"] for s in tracker.snapshot()] == ["wf-1"]
        assert observer.metrics.value("engine_nodes_launched_total", workflow="w") == 1

    @pytest.mark.parametrize(
        "kind", [RunObserver, EngineTrace, WorkflowStatusTracker, EstimatorSuite]
    )
    def test_a_second_consumer_of_a_kind_is_refused(self, kind):
        bus = EventBus()
        first = kind(bus)
        with pytest.raises(AttachError, match="already folds"):
            kind(bus)
        assert getattr(EventLog.on(bus).sampled, first._slot) is first
        # A view keeps no state of its own: two journals read the same log.
        assert FlightRecorder(bus).entries == FlightRecorder(bus).entries == []

    def test_a_join_onto_running_instances_is_refused(self):
        bus = EventBus()
        observer = RunObserver(bus)
        bus.publish("engine.node_launched", _launched("wf-1"))
        # The tracker would serve wf-1 without its launch, and the
        # estimators would pool attempts whose start they never saw.
        for kind in (WorkflowStatusTracker, EstimatorSuite):
            with pytest.raises(AttachError, match=r"holds 1 running instance"):
                kind(bus)
        fold = EventLog.on(bus).sampled
        assert fold.tracker is fold.estimators is None
        bus.publish("engine.workflow_finished", {**_launched("wf-1"), "status": "done"})
        tracker = WorkflowStatusTracker(bus)  # nothing running: reads from here on
        bus.publish("engine.node_launched", _launched("wf-2"))
        assert [s["workflow_id"] for s in tracker.snapshot()] == ["wf-2"]
        assert observer.metrics.value("engine_nodes_launched_total", workflow="w") == 2


@pytest.mark.parametrize("wiring", ["plane", "public names"])
def test_one_fold_per_log_and_an_empty_table_after_a_batch(wiring):
    """``TelemetryPlane`` and the ledger's ``_Plane`` (every consumer by its
    public name, in its order) both attach before the first publish: one
    fold serves all three folded kinds, and a batch leaves its table empty."""
    if wiring == "plane":
        plane = ObservedHost(SEEDS[0])
        joined = plane.observer, plane.tracker, plane.plane.estimators
    else:
        plane = ObservedHost(SEEDS[0], observed=False)
        bus, clock = plane.bus, plane.reactor.now
        observer = RunObserver(bus, clock=clock)
        FlightRecorder(bus)
        tracker = WorkflowStatusTracker(bus)
        priors = priors_from_grid(plane.grid)
        estimators = EstimatorSuite(bus, clock=clock, priors=priors)
        HealthEngine(clock=clock, bus=bus)
        joined = observer, tracker, estimators
    log = EventLog.on(plane.bus)
    (fold,) = [value for value in vars(log).values() if isinstance(value, Fold)]
    for _batch in range(2):
        results = plane.run_batch(20)
        assert all(result.succeeded for result in results.values())
        assert (fold.observer, fold.tracker, fold.estimators) == joined
        assert fold.instances == {} and log.sampled is fold
    assert plane.bus.stats()["taps"] == 1
