"""Health-rule engine tests: the ok → pending → firing → ok state
machine with sim-time hysteresis, alert edges on the bus, the
edge-triggered drift latch, JSON-safe snapshots, the default rule set the
CLI installs — and what its ``attempt-failure-probability`` rule means now
that the estimate behind it is pooled per workflow specification."""

from __future__ import annotations

import random

import pytest

from repro.detection.detector import AttemptOutcome, TaskState
from repro.engine.engine import NodeLaunched, WorkflowFinished
from repro.events import EventBus
from repro.obs import health
from repro.obs import (
    ALERT_FIRED,
    ALERT_RESOLVED,
    EstimatorSuite,
    HealthEngine,
    HealthRule,
    MetricsRegistry,
    TimeSeriesStore,
    default_rules,
)


def _health(bus: EventBus | None = None) -> HealthEngine:
    """A health engine on *bus* (a fresh one by default) whose clock reads
    0; the tests pass every evaluation's time."""
    return HealthEngine(clock=lambda: 0.0, bus=bus if bus is not None else EventBus())


class _Dial:
    """A settable scalar to point rules at."""

    def __init__(self, value=0.0):
        self.value = value

    def read(self):
        return self.value


class TestHealthRuleValidation:
    def test_rejects_unknown_kind_op_and_missing_value(self):
        with pytest.raises(ValueError):
            HealthRule("r", kind="mystery", value=lambda: 0.0)
        with pytest.raises(ValueError):
            HealthRule("r", op="~", value=lambda: 0.0)
        with pytest.raises(ValueError):
            HealthRule("r")  # threshold rule with no value source

    def test_drift_rules_need_no_value(self):
        rule = HealthRule("r", kind="drift")
        assert rule.value is None

    def test_duplicate_rule_name_rejected(self):
        engine = _health()
        engine.add_rule(HealthRule("r", value=lambda: 0.0))
        with pytest.raises(ValueError):
            engine.add_rule(HealthRule("r", value=lambda: 1.0))


class TestThresholdRules:
    def test_immediate_fire_and_resolve_publish_alert_edges(self):
        bus = EventBus()
        edges = []

        def alert(topic, payload):
            if topic.startswith("obs.alert."):
                edges.append((topic, payload))

        bus.add_tap(alert)
        dial = _Dial(0.0)
        engine = _health(bus)
        engine.add_rule(
            HealthRule("hot", value=dial.read, op=">", threshold=5.0)
        )
        assert engine.evaluate(0.0) == []
        assert engine.status() == "ok"

        dial.value = 9.0
        (transition,) = engine.evaluate(1.0)
        assert transition["transition"] == "fired"
        assert transition["value"] == 9.0 and transition["at"] == 1.0
        assert engine.status() == "degraded"
        (firing,) = engine.firing()
        assert firing["rule"] == "hot" and firing["fired_at"] == 1.0

        dial.value = 0.0
        (transition,) = engine.evaluate(2.0)
        assert transition["transition"] == "resolved"
        assert engine.status() == "ok" and engine.firing() == []

        assert [t for t, _ in edges] == [ALERT_FIRED, ALERT_RESOLVED]
        assert edges[0][1]["rule"] == "hot"
        assert [e["event"] for e in engine.alerts()["history"]] == [
            "fired",
            "resolved",
        ]

    def test_for_seconds_requires_a_sustained_breach(self):
        dial = _Dial(9.0)
        engine = _health()
        engine.add_rule(
            HealthRule(
                "hot", value=dial.read, op=">", threshold=5.0, for_seconds=10.0
            )
        )
        assert engine.evaluate(0.0) == []  # breach noticed: pending
        assert engine.snapshot()["rules"][0]["state"] == "pending"
        assert engine.evaluate(5.0) == []  # still pending
        (transition,) = engine.evaluate(10.0)
        assert transition["transition"] == "fired"

    def test_blip_shorter_than_for_seconds_never_fires(self):
        dial = _Dial(9.0)
        engine = _health()
        engine.add_rule(
            HealthRule(
                "hot", value=dial.read, op=">", threshold=5.0, for_seconds=10.0
            )
        )
        engine.evaluate(0.0)
        dial.value = 0.0
        assert engine.evaluate(5.0) == []  # cleared while pending: back to ok
        dial.value = 9.0
        engine.evaluate(6.0)  # pending restarts from scratch
        assert engine.evaluate(15.0) == []
        (transition,) = engine.evaluate(16.0)
        assert transition["transition"] == "fired"

    def test_resolve_after_suppresses_flapping(self):
        dial = _Dial(9.0)
        engine = _health()
        engine.add_rule(
            HealthRule(
                "hot",
                value=dial.read,
                op=">",
                threshold=5.0,
                resolve_after=10.0,
            )
        )
        engine.evaluate(0.0)
        dial.value = 0.0
        assert engine.evaluate(2.0) == []  # clear, but not for long enough
        dial.value = 9.0
        assert engine.evaluate(4.0) == []  # re-breach resets the clear clock
        dial.value = 0.0
        assert engine.evaluate(6.0) == []
        (transition,) = engine.evaluate(16.0)
        assert transition["transition"] == "resolved"

    def test_a_flapping_rule_cannot_grow_the_alert_history(self):
        dial = _Dial()
        engine = _health()
        engine.add_rule(HealthRule("hot", value=dial.read, op=">", threshold=5.0))
        flaps = health._HISTORY  # two edges each: twice what the ring holds
        for i in range(flaps):
            dial.value = 9.0
            engine.evaluate(2.0 * i)
            dial.value = 0.0
            engine.evaluate(2.0 * i + 1.0)
        dial.value = 9.0
        engine.evaluate(2.0 * flaps)
        history = engine.alerts()["history"]
        assert len(history) == health._HISTORY
        # The newest edges, in order; state and counts are not the ring's.
        assert [(e["event"], e["at"]) for e in history[-3:]] == [
            ("fired", 2.0 * flaps - 2.0),
            ("resolved", 2.0 * flaps - 1.0),
            ("fired", 2.0 * flaps),
        ]
        (firing,) = engine.firing()
        assert firing["rule"] == "hot" and firing["fired_at"] == 2.0 * flaps
        assert engine.snapshot()["rules"][0]["fired_count"] == flaps + 1

    def test_none_value_is_not_a_breach(self):
        engine = _health()
        engine.add_rule(HealthRule("r", value=lambda: None, op=">", threshold=0))
        assert engine.evaluate(0.0) == []
        assert engine.snapshot()["rules"][0]["state"] == "ok"

    def test_clock_supplies_the_default_evaluation_time(self):
        engine = HealthEngine(clock=lambda: 42.0, bus=EventBus())
        engine.add_rule(HealthRule("r", value=lambda: 1.0, op=">", threshold=0))
        (transition,) = engine.evaluate()
        assert transition["at"] == 42.0


class TestDriftRules:
    def test_a_drift_latches_for_the_life_of_the_plane(self):
        bus = EventBus()
        engine = _health(bus)
        engine.add_rule(HealthRule("catalog-drift", kind="drift"))
        assert engine.evaluate(0.0) == []
        # A drift on the bus is narration: the engine does not listen.
        bus.publish("obs.drift.mttf", {"host": "h0", "observed_mttf": 1.0})
        assert engine.evaluate(0.5) == []
        assert bus.stats()["topics"] == bus.stats()["taps"] == 0
        # The estimators latch it by call once a host fails ten times as
        # often as its catalog promises.
        suite = EstimatorSuite(bus, priors={"h1": (100.0, 0.0)})
        suite.health = engine
        at = 0.0
        while not suite.drift_events:
            at += 10.0
            suite.record_host_failure("h1", at)
        (fired,) = engine.alerts()["history"]
        assert fired["event"] == "fired"
        assert fired["drift"]["host"] == "h1"
        assert fired["drift"]["topic"] == "obs.drift.mttf"
        # Neither many evaluations nor the host keeping its promise again
        # clears it: the detector's latch is permanent, and so is the alert.
        for _ in range(200):
            at += 100.0
            suite.record_host_failure("h1", at)
            assert engine.evaluate(at) == []
        assert engine.status() == "degraded"
        assert [alert["rule"] for alert in engine.firing()] == ["catalog-drift"]
        assert len(engine.alerts()["history"]) == 1
        registry = MetricsRegistry()
        suite.export(registry)
        assert registry.value("obs_host_drift", host="h1") == 1.0


class TestDefaultRules:
    def test_installs_the_cli_rule_set(self):
        bus = EventBus()
        engine = _health(bus)
        store = TimeSeriesStore()
        default_rules(engine, store=store, estimators=EstimatorSuite(bus))
        names = [rule.name for rule in engine.rules]
        assert names == [
            "catalog-drift",
            "attempt-failure-probability",
            "heartbeat-loss",
            "event-flow-stalled",
        ]
        # All quiet on a fresh plane.
        assert engine.evaluate(0.0) == []
        assert engine.snapshot()["status"] == "ok"
        # A rule's read is a lookup: the ring appears when a tick samples
        # the family, not when somebody asks about it.
        assert store.names() == [] and store.snapshot() == {}

    def test_attempt_failure_rule_reads_the_estimators(self, monkeypatch):
        monkeypatch.setattr(health, "SUSTAIN", 0.0)
        bus = EventBus()
        engine = _health(bus)
        suite = EstimatorSuite(bus)
        default_rules(engine, store=TimeSeriesStore(), estimators=suite)
        activity = suite.activity("wf-1", "task")
        for _ in range(50):
            activity.record("failed")
        (transition,) = engine.evaluate(1.0)
        assert transition["rule"] == "attempt-failure-probability"
        assert transition["value"] > 0.5


class TestTheAlertMeansWhatItSays:
    """``attempt-failure-probability`` promises "some activity's attempt
    failure probability is reliably high".  With one estimator per
    workflow *instance* its largest sample was a handful of attempts and
    it fired whenever one unlucky instance went four-for-four (Wilson
    lower bound 0.51); pooled per (workflow specification, activity) it
    keys on a rate with a real *n*."""

    ATTEMPT_SECONDS = 12.0
    TICK = 5.0

    def run(self, rates, seed):
        """One instance of ``mosaic`` admitted per second, its ``solve``
        retried until it succeeds; instance *i* fails an attempt with
        probability ``rates(i)``.  The default rules are evaluated every
        five seconds.  Returns the alert history and the most consecutive
        failures any one instance opened with."""
        rng = random.Random(seed)
        schedule, worst_start = [], 0
        for i, rate in enumerate(rates):
            wfid, at = f"wf-{i}", float(i)
            launched = NodeLaunched("mosaic", wfid, "solve", at)
            schedule.append((at, "engine.node_launched", launched))
            failures = 0
            while rng.random() < rate:
                failures += 1
                at += self.ATTEMPT_SECONDS
                schedule.append((at, "task.failed", (wfid, f"j{i}.{failures}", "nonzero-exit(1)")))
            at += self.ATTEMPT_SECONDS
            schedule.append((at, "task.done", (wfid, f"j{i}.done", "done-with-taskend")))
            finished = WorkflowFinished("mosaic", wfid, "done", at)
            schedule.append((at, "engine.workflow_finished", finished))
            worst_start = max(worst_start, failures)
        schedule.sort(key=lambda event: event[0])

        bus = EventBus()
        suite = EstimatorSuite(bus)
        engine = _health(bus)
        default_rules(engine, store=TimeSeriesStore(), estimators=suite)
        tick = self.TICK
        for at, topic, payload in schedule:
            while tick <= at:
                engine.evaluate(tick)
                tick += self.TICK
            if topic.startswith("task."):
                wfid, job, reason = payload
                state = TaskState.DONE if topic == "task.done" else TaskState.FAILED
                payload = AttemptOutcome(
                    job, "solve", state, hostname="h1", reason=reason, at=at, workflow_id=wfid
                )
            bus.publish(topic, payload)
        for _ in range(4):  # long enough for a pending edge to land
            engine.evaluate(tick)
            tick += self.TICK
        return engine.alerts()["history"], worst_start, suite

    def test_a_third_of_attempts_failing_never_fires(self):
        history, worst_start, suite = self.run([0.3] * 100, seed=7)
        # Some instance did open four-for-four, and held it for two ticks —
        # what used to fire the alert …
        assert worst_start >= 4
        # … and is now 4 of ~140 attempts at an unremarkable rate.
        assert history == []
        (estimator,) = suite.activities.values()
        assert estimator.attempts > 120
        assert 0.2 < estimator.failure_probability() < 0.4
        assert suite.max_failure_probability() < 0.4

    def test_most_attempts_failing_fires_once_and_resolves_once(self):
        # A bad stretch (p = 0.7 for 100 instances), then the cause is
        # fixed and 300 instances run clean.
        history, _worst, suite = self.run([0.7] * 100 + [0.0] * 300, seed=7)
        assert [(e["event"], e["rule"]) for e in history] == [
            ("fired", "attempt-failure-probability"),
            ("resolved", "attempt-failure-probability"),
        ]
        fired, resolved = history
        assert 0.5 < fired["value"] < 0.7  # a lower bound on a rate near 0.7
        # It fired once the bound had held for ``sustain`` seconds, not at
        # the first unlucky streak, and resolved once the pooled rate had
        # come down for as long.
        assert fired["at"] >= 10.0
        assert resolved["at"] - fired["at"] > 100.0
        assert suite.max_failure_probability() < 0.5
