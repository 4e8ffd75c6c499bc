"""Declarative health rules over the statistical telemetry plane.

A :class:`HealthRule` names a scalar (a callable — typically a closure
over a :class:`~repro.obs.timeseries.Series` window query or an
:class:`~repro.obs.estimators.EstimatorSuite` read), a comparison, and
two sim-time hysteresis knobs:

* ``for_seconds`` — the breach must *sustain* that long before the rule
  fires (a single bad sample is pending, not firing);
* ``resolve_after`` — the breach must stay clear that long before a
  firing rule resolves (no flapping at the threshold).

The per-rule state machine is ``ok → pending → firing → ok``; edges into
and out of ``firing`` publish ``obs.alert.fired`` / ``obs.alert.resolved``
bus events (the same narrate-don't-poke convention the recovery layer
uses).  ``drift`` rules are edge- rather than level-triggered: the
estimator suite that finds a drift calls :meth:`HealthEngine.latch_drift`,
which latches the rule's breach until :meth:`HealthEngine.reset_drift`;
the ``obs.drift.*`` event it publishes beside the call is narration.

Evaluation runs on the collector cadence (and when a fold of the estimator
suite latches a drift detector), entirely on the reactor thread; the HTTP
server only reads the JSON-safe snapshots.  Nothing here subscribes to the
bus: the engine only publishes on it.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..events import EventBus
    from .estimators import EstimatorSuite
    from .timeseries import TimeSeriesStore

__all__ = [
    "HealthRule",
    "HealthEngine",
    "default_rules",
    "ALERT_FIRED",
    "ALERT_RESOLVED",
]

ALERT_FIRED = "obs.alert.fired"
ALERT_RESOLVED = "obs.alert.resolved"

#: Fired/resolved edges ``/alerts`` keeps; a rule that flaps for ever on a
#: long-lived host pushes the oldest out, like every other record here.
_HISTORY = 256

_OPS: dict[str, Callable[[float, float], bool]] = {
    ">": lambda v, t: v > t,
    ">=": lambda v, t: v >= t,
    "<": lambda v, t: v < t,
    "<=": lambda v, t: v <= t,
    "==": lambda v, t: v == t,
}


class HealthRule:
    """One declarative rule: value source, comparison, hysteresis."""

    __slots__ = (
        "name",
        "kind",
        "value",
        "op",
        "threshold",
        "for_seconds",
        "resolve_after",
        "severity",
        "description",
    )

    def __init__(
        self,
        name: str,
        *,
        kind: str = "threshold",
        value: Callable[[], float | None] | None = None,
        op: str = ">",
        threshold: float = 0.0,
        for_seconds: float = 0.0,
        resolve_after: float = 0.0,
        severity: str = "warning",
        description: str = "",
    ) -> None:
        if kind not in ("threshold", "rate_of_change", "drift"):
            raise ValueError(f"unknown rule kind {kind!r}")
        if op not in _OPS:
            raise ValueError(f"unknown comparison {op!r}")
        if kind != "drift" and value is None:
            raise ValueError(f"rule {name!r} needs a value source")
        self.name = name
        self.kind = kind
        self.value = value
        self.op = op
        self.threshold = threshold
        self.for_seconds = for_seconds
        self.resolve_after = resolve_after
        self.severity = severity
        self.description = description


class _RuleState:
    __slots__ = (
        "state",
        "pending_since",
        "fired_at",
        "clear_since",
        "last_value",
        "fired_count",
        "drift_latch",
        "drift_detail",
    )

    def __init__(self) -> None:
        self.state = "ok"
        self.pending_since: float | None = None
        self.fired_at: float | None = None
        self.clear_since: float | None = None
        self.last_value: float | None = None
        self.fired_count = 0
        self.drift_latch = False
        self.drift_detail: dict[str, Any] | None = None


class HealthEngine:
    """Evaluates the rule set against sim time; publishes alert edges."""

    def __init__(
        self,
        *,
        clock: Callable[[], float] | None = None,
        bus: "EventBus | None" = None,
    ) -> None:
        self._clock = clock
        #: Where alert edges are published.
        self._bus = bus
        self._rules: list[HealthRule] = []
        self._states: dict[str, _RuleState] = {}
        self._history: deque[dict[str, Any]] = deque(maxlen=_HISTORY)

    # -- rule registration ---------------------------------------------------

    def add_rule(self, rule: HealthRule) -> HealthRule:
        if any(r.name == rule.name for r in self._rules):
            raise ValueError(f"duplicate rule name {rule.name!r}")
        self._rules.append(rule)
        self._states[rule.name] = _RuleState()
        return rule

    @property
    def rules(self) -> list[HealthRule]:
        return list(self._rules)

    # -- drift latch ---------------------------------------------------------

    def latch_drift(self, topic: str, fields: dict[str, Any]) -> None:
        """Latch every drift rule's breach, with *fields* (what the drift
        event on *topic* carries) as its detail."""
        detail = {**fields, "topic": topic}
        for rule in self._rules:
            if rule.kind == "drift":
                state = self._states[rule.name]
                state.drift_latch = True
                state.drift_detail = detail

    def reset_drift(self, rule_name: str) -> None:
        state = self._states.get(rule_name)
        if state is not None:
            state.drift_latch = False
            state.drift_detail = None

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, now: float | None = None) -> list[dict[str, Any]]:
        """One evaluation pass; returns the state transitions it caused."""
        at = (
            now
            if now is not None
            else (self._clock() if self._clock is not None else 0.0)
        )
        transitions: list[dict[str, Any]] = []
        for rule in self._rules:
            state = self._states[rule.name]
            if rule.kind == "drift":
                breach = state.drift_latch
                if rule.value is not None:
                    state.last_value = rule.value()
            else:
                value = rule.value() if rule.value is not None else None
                state.last_value = value
                breach = value is not None and _OPS[rule.op](
                    value, rule.threshold
                )
            transition = self._step(rule, state, breach, at)
            if transition is not None:
                transitions.append(transition)
        return transitions

    def _step(
        self, rule: HealthRule, state: _RuleState, breach: bool, at: float
    ) -> dict[str, Any] | None:
        if state.state == "ok":
            if breach:
                state.pending_since = at
                if rule.for_seconds <= 0:
                    return self._fire(rule, state, at)
                state.state = "pending"
            return None
        if state.state == "pending":
            if not breach:
                state.state = "ok"
                state.pending_since = None
                return None
            assert state.pending_since is not None
            if at - state.pending_since >= rule.for_seconds:
                return self._fire(rule, state, at)
            return None
        # firing
        if breach:
            state.clear_since = None
            return None
        if state.clear_since is None:
            state.clear_since = at
        if rule.resolve_after <= 0 or at - state.clear_since >= rule.resolve_after:
            return self._resolve(rule, state, at)
        return None

    def _fire(
        self, rule: HealthRule, state: _RuleState, at: float
    ) -> dict[str, Any]:
        state.state = "firing"
        state.fired_at = at
        state.clear_since = None
        state.fired_count += 1
        detail = {
            "rule": rule.name,
            "severity": rule.severity,
            "kind": rule.kind,
            "value": state.last_value,
            "threshold": rule.threshold,
            "at": at,
        }
        if state.drift_detail is not None:
            detail["drift"] = dict(state.drift_detail)
        self._history.append({"event": "fired", **detail})
        if self._bus is not None:
            self._bus.publish(ALERT_FIRED, dict(detail))
        return {"transition": "fired", **detail}

    def _resolve(
        self, rule: HealthRule, state: _RuleState, at: float
    ) -> dict[str, Any]:
        state.state = "ok"
        state.pending_since = None
        state.clear_since = None
        detail = {
            "rule": rule.name,
            "severity": rule.severity,
            "at": at,
            "fired_at": state.fired_at,
        }
        state.fired_at = None
        self._history.append({"event": "resolved", **detail})
        if self._bus is not None:
            self._bus.publish(ALERT_RESOLVED, dict(detail))
        return {"transition": "resolved", **detail}

    # -- reads (any thread) --------------------------------------------------

    def status(self) -> str:
        if any(s.state == "firing" for s in self._states.values()):
            return "degraded"
        return "ok"

    def firing(self) -> list[dict[str, Any]]:
        out = []
        for rule in self._rules:
            state = self._states[rule.name]
            if state.state == "firing":
                record = {
                    "rule": rule.name,
                    "severity": rule.severity,
                    "kind": rule.kind,
                    "value": state.last_value,
                    "threshold": rule.threshold,
                    "fired_at": state.fired_at,
                    "description": rule.description,
                }
                if state.drift_detail is not None:
                    record["drift"] = dict(state.drift_detail)
                out.append(record)
        return out

    def alerts(self) -> dict[str, Any]:
        return {"firing": self.firing(), "history": list(self._history)}

    def snapshot(self) -> dict[str, Any]:
        return {
            "status": self.status(),
            "rules": [
                {
                    "name": rule.name,
                    "kind": rule.kind,
                    "severity": rule.severity,
                    "op": rule.op,
                    "threshold": rule.threshold,
                    "for_seconds": rule.for_seconds,
                    "resolve_after": rule.resolve_after,
                    "state": self._states[rule.name].state,
                    "value": self._states[rule.name].last_value,
                    "fired_count": self._states[rule.name].fired_count,
                    "description": rule.description,
                }
                for rule in self._rules
            ],
        }


def default_rules(
    engine: HealthEngine,
    *,
    store: "TimeSeriesStore | None" = None,
    estimators: "EstimatorSuite | None" = None,
    failure_probability_threshold: float = 0.5,
    heartbeat_loss_threshold: float = 0.2,
    sustain: float = 10.0,
) -> HealthEngine:
    """The standard rule set the CLI installs for ``--serve-telemetry``."""
    engine.add_rule(
        HealthRule(
            "catalog-drift",
            kind="drift",
            severity="critical",
            description="a host's observed failure rate drifted from its "
            "catalog prior (obs.drift.* latched)",
        )
    )
    if estimators is not None:
        engine.add_rule(
            HealthRule(
                "attempt-failure-probability",
                value=estimators.max_failure_probability,
                op=">",
                threshold=failure_probability_threshold,
                for_seconds=sustain,
                resolve_after=sustain,
                severity="warning",
                description="some activity's attempt failure probability "
                "is reliably high (Wilson lower bound over threshold)",
            )
        )
        engine.add_rule(
            HealthRule(
                "heartbeat-loss",
                value=lambda: max(
                    (
                        h.heartbeat_loss_rate()
                        for h in estimators.hosts.values()
                        if h.beats
                    ),
                    default=0.0,
                ),
                op=">",
                threshold=heartbeat_loss_threshold,
                for_seconds=sustain,
                resolve_after=sustain,
                severity="warning",
                description="a host keeps going dark (suspicions per "
                "heartbeat over threshold)",
            )
        )
    if store is not None:

        def publish_rate() -> float | None:
            # Looked up, never created: no ring yet is no value, no breach.
            ring = store.get("bus_publishes")
            return ring.rate() if ring is not None else None

        engine.add_rule(
            HealthRule(
                "event-flow-stalled",
                kind="rate_of_change",
                value=publish_rate,
                op="<=",
                threshold=0.0,
                for_seconds=3 * sustain,
                resolve_after=0.0,
                severity="warning",
                description="no bus events flowing across recent collector "
                "windows while workflows are still pending",
            )
        )
    return engine
