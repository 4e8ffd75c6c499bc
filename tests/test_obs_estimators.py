"""Estimator tests: the EWMA and Wilson primitives, the Page–Hinkley
drift detector with its golden detection bounds (a 3× MTTF shift fires
within 200 events; 10k stationary events stay silent), and the
EstimatorSuite folding a live bus's log — terminal outcomes pooled per
(workflow specification, activity), host-failure attribution and dedup,
drift event publication with health re-evaluation on the latch and no
later than one collector interval after the failure, liveness ingestion,
and gauge export, which leaves the registry as a fresh walk over every
estimator would."""

from __future__ import annotations

import math
import random

import pytest

from repro.events import EventBus
from repro.grid import UNRELIABLE, GridConfig, SimReactor, SimulatedGrid
from repro.obs import (
    DRIFT_MTTF,
    ActivityEstimator,
    EstimatorSuite,
    EventLog,
    Ewma,
    HostEstimator,
    MetricsRegistry,
    PageHinkley,
    PeriodicCollector,
    TimeSeriesStore,
    priors_from_grid,
    prometheus_text,
    wilson_interval,
)


class TestEwma:
    def test_seeds_on_first_sample_then_smooths(self):
        ewma = Ewma(alpha=0.5)
        assert ewma.value is None
        assert ewma.update(10.0) == 10.0
        assert ewma.update(20.0) == 15.0
        assert ewma.n == 2

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            Ewma(alpha=0.0)
        with pytest.raises(ValueError):
            Ewma(alpha=1.5)


class TestWilsonInterval:
    def test_total_ignorance_at_zero_n(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_known_value(self):
        low, high = wilson_interval(5, 10)
        assert low == pytest.approx(0.2366, abs=1e-3)
        assert high == pytest.approx(0.7634, abs=1e-3)

    def test_interval_narrows_with_evidence(self):
        low_small, high_small = wilson_interval(3, 6)
        low_big, high_big = wilson_interval(300, 600)
        assert (high_big - low_big) < (high_small - low_small)
        assert 0.0 <= low_big <= high_big <= 1.0

    def test_stays_inside_unit_interval_at_extremes(self):
        assert wilson_interval(0, 5)[0] == 0.0
        assert wilson_interval(5, 5)[1] == 1.0


class TestPageHinkley:
    def test_stationary_unit_mean_stays_silent(self):
        rng = random.Random(1234)
        detector = PageHinkley()
        assert not any(
            detector.update(rng.expovariate(1.0)) for _ in range(10_000)
        )
        assert not detector.drifted

    def test_downward_shift_latches_once(self):
        detector = PageHinkley()
        edges = [detector.update(1 / 3) for _ in range(200)]
        assert detector.drifted and detector.direction == "down"
        assert edges.count(True) == 1  # the latch edge fires exactly once
        assert detector.drift_at is not None

    def test_upward_shift_detected_too(self):
        detector = PageHinkley()
        for _ in range(200):
            detector.update(3.0)
        assert detector.drifted and detector.direction == "up"

    def test_min_observations_guard(self):
        detector = PageHinkley(min_observations=5, threshold=0.1)
        assert not any(detector.update(0.0) for _ in range(4))
        assert detector.update(0.0)

    def test_reset_rearms(self):
        detector = PageHinkley()
        for _ in range(200):
            detector.update(1 / 3)
        detector.reset()
        assert not detector.drifted and detector.statistic() == 0.0
        assert detector.n == 0


class TestDriftGolden:
    """The acceptance bounds the CI telemetry-smoke job pins."""

    PRIOR_MTTF = 100.0

    def feed(self, estimator, rng, mean, count):
        at = estimator.last_failure_at or 0.0
        for i in range(count):
            at += rng.expovariate(1.0 / mean)
            if estimator.record_failure(at):
                return i + 1
        return None

    def test_three_fold_mttf_shift_fires_within_200_events(self):
        estimator = HostEstimator("h1", prior_mttf=self.PRIOR_MTTF)
        fired_after = self.feed(
            estimator, random.Random(42), self.PRIOR_MTTF / 3.0, 200
        )
        assert fired_after is not None and fired_after <= 200
        assert estimator.detector.direction == "down"

    def test_ten_thousand_stationary_events_stay_silent(self):
        estimator = HostEstimator("h1", prior_mttf=self.PRIOR_MTTF)
        assert (
            self.feed(estimator, random.Random(42), self.PRIOR_MTTF, 10_000)
            is None
        )
        assert not estimator.detector.drifted
        # The observed EWMA sits near the prior, as it should.
        assert estimator.mttf.value == pytest.approx(
            self.PRIOR_MTTF, rel=0.5
        )

    def test_unknown_prior_never_feeds_the_detector(self):
        estimator = HostEstimator("h1")  # prior_mttf=inf
        assert self.feed(estimator, random.Random(42), 1.0, 1000) is None
        assert estimator.detector.n == 0
        assert estimator.failures == 1000

    INTERVAL = 5.0

    def plane(self, mean, count):
        """A host failing every ``Exp(mean)`` seconds on a live bus, the
        estimators folded by a collector ticking every five.  Returns the
        ``obs.drift.mttf`` publications as ``(published at, payload)``."""
        reactor = SimReactor()
        bus = EventBus()
        log = EventLog.on(bus, clock=reactor.now)
        suite = EstimatorSuite(bus, priors={"h1": (self.PRIOR_MTTF, 0.0)})
        collector = PeriodicCollector(
            store=TimeSeriesStore(step=self.INTERVAL),
            registry=MetricsRegistry(),
            reactor=reactor,
            interval=self.INTERVAL,
            estimators=suite,
        )
        rng, at = random.Random(42), 0.0
        for i in range(count):
            at += rng.expovariate(1.0 / mean)
            outcome = _Payload(
                "failed", reason="host-crashed", hostname="h1", at=at
            )
            reactor.call_later(at, lambda o=outcome: bus.publish("task.failed", o))
        collector.start()
        reactor.run_until_idle(timeout=at + self.INTERVAL)
        collector.stop()
        assert suite.hosts["h1"].failures == count
        return [
            (sim, payload)
            for _seq, sim, _wall, topic, payload in log.records()
            if topic == DRIFT_MTTF
        ]

    def test_a_live_drift_is_published_within_one_collector_interval(self):
        # The same shifted trace as above, through the bus: the latch is
        # found by the fold at the next tick, so the event is published no
        # later than one interval after the failure that tripped it — and
        # says when that was.
        ((published, drift),) = self.plane(self.PRIOR_MTTF / 3.0, 200)
        assert drift["after_events"] <= 200 and drift["direction"] == "down"
        assert drift["at"] < published <= drift["at"] + self.INTERVAL
        assert published % self.INTERVAL == 0.0  # at a tick

    def test_a_live_stationary_trace_publishes_nothing(self):
        assert self.plane(self.PRIOR_MTTF, 2_000) == []


class TestHostEstimator:
    def test_downtime_from_suspected_recovered_spans(self):
        estimator = HostEstimator("h1")
        estimator.record_suspected(10.0)
        estimator.record_suspected(12.0)  # already suspected: no restart
        estimator.record_recovered(25.0)
        assert estimator.downtime.value == 15.0
        estimator.record_recovered(30.0)  # unmatched: ignored
        assert estimator.downtime.n == 1

    def test_snapshot_shape(self):
        estimator = HostEstimator("h1", prior_mttf=50.0, prior_downtime=2.0)
        estimator.record_failure(10.0)
        estimator.record_failure(40.0)
        snap = estimator.snapshot()
        assert snap["host"] == "h1"
        assert snap["failures"] == 2
        assert snap["mttf_observed"] == 30.0
        assert snap["mttf_prior"] == 50.0
        assert snap["drifted"] is False


class _Payload:
    """Duck-typed stand-in for the engine's AttemptOutcome payloads."""

    def __init__(self, state, **kw):
        self.state = state
        self.workflow_id = kw.get("workflow_id", "wf-1")
        self.activity = kw.get("activity", "task")
        self.reason = kw.get("reason", "")
        self.hostname = kw.get("hostname", "")
        self.at = kw.get("at", 0.0)


class _HealthSpy:
    def __init__(self):
        self.evaluated_at: list[float] = []
        self.latched: list[tuple[str, dict]] = []

    def latch_drift(self, topic, fields):
        self.latched.append((topic, fields))

    def evaluate(self, at):
        self.evaluated_at.append(at)


class TestEstimatorSuite:
    def test_terminal_topics_feed_activity_estimators(self):
        bus = EventBus()
        suite = EstimatorSuite(bus)
        # The instance says which specification it runs when it launches …
        for wfid in ("wf-1", "wf-2"):
            bus.publish(
                "engine.node_launched",
                {"workflow": "mosaic", "workflow_id": wfid, "node": "task"},
            )
        bus.publish("task.done", _Payload("done"))
        bus.publish("task.failed", _Payload("failed", reason="exit-code"))
        bus.publish("task.exception", _Payload("exception", workflow_id="wf-2"))
        bus.publish("task.active", _Payload("active"))  # non-terminal: ignored
        # … and its attempts count towards that specification's estimate,
        # pooled with every other instance's.
        (estimator,) = suite.activities.values()
        assert suite.activities == {("mosaic", "task"): estimator}
        assert estimator.attempts == 3 and estimator.failures == 2
        assert estimator.failure_probability() == pytest.approx(2 / 3)
        # A finished instance is forgotten: nothing is kept per instance.
        for wfid in ("wf-1", "wf-2"):
            bus.publish(
                "engine.workflow_finished",
                {"workflow": "mosaic", "workflow_id": wfid, "status": "done"},
            )
        suite.sync()
        assert suite._log.sampled.instances == {}

    def test_host_failures_only_from_host_reasons(self):
        bus = EventBus()
        suite = EstimatorSuite(bus)
        bus.publish(
            "task.failed",
            _Payload("failed", reason="exit-code", hostname="h1", at=5.0),
        )
        assert "h1" not in suite.hosts  # a task's own exit is not host MTTF
        bus.publish(
            "task.failed",
            _Payload("failed", reason="host-crashed", hostname="h1", at=9.0),
        )
        assert suite.hosts["h1"].failures == 1

    def test_replica_co_crash_dedupes_to_one_failure(self):
        suite = EstimatorSuite()
        suite.record_host_failure("h1", 10.0)
        suite.record_host_failure("h1", 10.0)  # replica, same instant
        suite.record_host_failure("h1", 30.0)
        assert suite.hosts["h1"].failures == 2
        assert suite.hosts["h1"].mttf.value == 20.0

    def test_drift_latch_publishes_and_reevaluates_health_promptly(self):
        bus = EventBus()
        drift_events = []

        def drift(topic, payload):
            if topic.startswith("obs.drift."):
                drift_events.append((topic, payload))

        bus.add_tap(drift)
        health = _HealthSpy()
        suite = EstimatorSuite(
            bus, priors={"h1": (100.0, 0.0)}, health=health
        )
        at, fired_at = 0.0, None
        for _ in range(300):
            at += 10.0  # 10x faster than the catalog promises
            suite.record_host_failure("h1", at)
            if suite.drift_events:
                fired_at = at
                break
        assert fired_at is not None
        ((topic, payload),) = drift_events
        assert topic == DRIFT_MTTF
        assert payload["host"] == "h1" and payload["prior_mttf"] == 100.0
        assert payload["direction"] == "down"
        # Health latched by call, with what was published, and re-evaluated
        # exactly once — on the latch, not per failure.
        assert health.latched == [(topic, payload)]
        assert health.evaluated_at == [fired_at]
        # Later failures don't re-publish a latched detector.
        suite.record_host_failure("h1", at + 10.0)
        assert suite.drift_events == 1 and len(drift_events) == 1
        assert suite.hosts["h1"].detector.drifted

    def test_ingest_liveness_folds_monitor_counters(self):
        suite = EstimatorSuite()
        suite.ingest_liveness(
            [{"host": "h1", "beats": 40, "suspicions": 4, "suspected": False}]
        )
        assert suite.hosts["h1"].heartbeat_loss_rate() == pytest.approx(0.1)

    def test_max_failure_probability_is_wilson_lower_bound(self):
        suite = EstimatorSuite()
        flaky = suite.activity("wf-1", "flaky")
        for _ in range(30):
            flaky.record("failed")
        steady = suite.activity("wf-1", "steady")
        for _ in range(30):
            steady.record("done")
        low, _high = wilson_interval(30, 30)
        assert suite.max_failure_probability() == pytest.approx(low)

    def test_export_publishes_gauges(self):
        suite = EstimatorSuite(priors={"h1": (100.0, 0.0)})
        suite.record_host_failure("h1", 10.0)
        suite.record_host_failure("h1", 40.0)
        activity = suite.activity("wf-1", "task")
        activity.record("failed")
        activity.record("done")
        registry = MetricsRegistry()
        suite.export(registry)
        assert registry.value("obs_host_failures_total", host="h1") == 2.0
        assert registry.value("obs_host_mttf_observed", host="h1") == 30.0
        assert registry.value("obs_host_mttf_prior", host="h1") == 100.0
        assert registry.value("obs_host_drift", host="h1") == 0.0
        labels = {"workflow": "wf-1", "activity": "task"}
        assert registry.value("obs_attempts_total", **labels) == 2.0
        assert registry.value(
            "obs_attempt_failure_probability", **labels
        ) == pytest.approx(0.5)
        low, high = wilson_interval(1, 2)
        assert registry.value(
            "obs_attempt_failure_wilson_low", **labels
        ) == pytest.approx(low)
        assert registry.value(
            "obs_attempt_failure_wilson_high", **labels
        ) == pytest.approx(high)


def export_every_activity(suite: EstimatorSuite, registry: MetricsRegistry) -> None:
    """The reference: every activity estimator, in key order, through a
    fresh keyword gauge lookup and a fresh Wilson interval, every time."""
    for key in sorted(suite.activities):
        estimator = suite.activities[key]
        low, high = wilson_interval(estimator.failures, estimator.attempts)
        labels = {"workflow": key[0], "activity": key[1]}
        registry.gauge(
            "obs_attempt_failure_probability",
            help="attempt failures / attempts",
            **labels,
        ).set(estimator.failure_probability())
        registry.gauge(
            "obs_attempt_failure_wilson_low",
            help="Wilson 95% lower bound on the failure probability",
            **labels,
        ).set(low)
        registry.gauge(
            "obs_attempt_failure_wilson_high",
            help="Wilson 95% upper bound on the failure probability",
            **labels,
        ).set(high)
        registry.gauge(
            "obs_attempts_total",
            help="terminal attempt outcomes observed",
            **labels,
        ).set(estimator.attempts)


class TestExportOfWhatChanged:
    """What ``export`` leaves in a registry as the estimators change.  No
    host estimators here, so ``export`` is the activity walk alone and
    ``export_every_activity`` is its whole reference."""

    def test_ticks_match_a_full_walk_in_values_and_order(self):
        suite = EstimatorSuite()
        registry, reference = MetricsRegistry(), MetricsRegistry()
        rng = random.Random(13)
        # Workflows show up out of key order and keep recording later.
        for tick in range(12):
            for _ in range(rng.randrange(0, 6)):
                wfid = f"wf-{rng.randrange(0, 9)}"
                activity = rng.choice(["solve", "fetch", "publish"])
                suite.activity(wfid, activity).record(
                    rng.choice(["done", "done", "failed", "exception"])
                )
            suite.export(registry)
            export_every_activity(suite, reference)
            assert registry.snapshot() == reference.snapshot(), tick
            assert prometheus_text(registry) == prometheus_text(reference), tick

    def test_estimator_created_but_never_recorded_is_exported(self):
        suite = EstimatorSuite()
        suite.activity("wf-1", "idle")
        registry, reference = MetricsRegistry(), MetricsRegistry()
        suite.export(registry)
        export_every_activity(suite, reference)
        assert registry.snapshot() == reference.snapshot()
        labels = {"workflow": "wf-1", "activity": "idle"}
        assert registry.value("obs_attempts_total", **labels) == 0.0
        assert registry.value("obs_attempt_failure_wilson_high", **labels) == 1.0

    def test_second_registry_gets_everything(self):
        suite = EstimatorSuite()
        suite.activity("wf-1", "task").record("failed")
        suite.activity("wf-2", "task").record("done")
        first, second, reference = (MetricsRegistry() for _ in range(3))
        suite.export(first)
        suite.activity("wf-2", "task").record("failed")
        suite.export(second)  # wf-1 is clean, and still has to land here
        export_every_activity(suite, reference)
        assert second.snapshot() == reference.snapshot()
        # ...and going back, the first one catches up through new handles.
        suite.activity("wf-1", "task").record("done")
        suite.export(first)
        export_every_activity(suite, reference)
        assert first.snapshot() == reference.snapshot()

    def test_cleared_registry_gets_everything(self):
        suite = EstimatorSuite()
        suite.activity("wf-1", "task").record("failed")
        suite.activity("wf-2", "task").record("done")
        registry, reference = MetricsRegistry(), MetricsRegistry()
        suite.export(registry)
        registry.clear()
        suite.activity("wf-2", "task").record("done")
        suite.export(registry)
        export_every_activity(suite, reference)
        assert registry.snapshot() == reference.snapshot()

    def test_gauge_overwritten_by_a_merge_is_restored(self):
        suite = EstimatorSuite()
        suite.activity("wf-1", "task").record("failed")
        registry, reference = MetricsRegistry(), MetricsRegistry()
        suite.export(registry)
        stray = MetricsRegistry()
        stray.gauge("obs_attempts_total", workflow="wf-1", activity="task").set(99)
        registry.merge(stray.snapshot())
        assert registry.value(
            "obs_attempts_total", workflow="wf-1", activity="task"
        ) == 99.0
        suite.export(registry)  # nothing recorded since the last export
        export_every_activity(suite, reference)
        assert registry.snapshot() == reference.snapshot()

    def test_failure_probability_bound_tracks_records_between_exports(self):
        suite = EstimatorSuite()
        estimator = suite.activity("wf-1", "task")
        for n in range(1, 20):
            estimator.record("failed")
            if n % 5 == 0:
                suite.export(MetricsRegistry())
            assert suite.max_failure_probability() == wilson_interval(n, n)[0]
        for n in range(1, 40):
            estimator.record("done")
            assert (
                suite.max_failure_probability()
                == wilson_interval(19, 19 + n)[0]
            )


class TestPriorsFromGrid:
    def test_reads_host_specs(self):
        grid = SimulatedGrid(config=GridConfig(heartbeats=False))
        grid.add_host(UNRELIABLE("h1", mttf=120.0, mean_downtime=6.0))
        priors = priors_from_grid(grid)
        assert priors["h1"] == (120.0, 6.0)
        suite = EstimatorSuite(priors=priors)
        assert suite.host("h1").prior_mttf == 120.0
        assert math.isinf(suite.host("h2").prior_mttf)  # uncatalogued
