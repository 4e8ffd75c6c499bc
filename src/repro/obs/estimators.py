"""Online failure-statistics estimators and catalog-drift detection.

The resource catalog states *priors*: each host's declared MTTF and mean
downtime (:class:`~repro.catalogs.resource.ResourceSpec`).  This module
estimates the *posteriors* online from the bus event stream and raises
``obs.drift.*`` events when the two disagree — the signal ROADMAP item
5's adaptive strategy switches techniques on.

Per host (:class:`HostEstimator`):

* exponentially-weighted MTTF from inter-failure gaps (a failure is a
  ``task.failed`` outcome whose reason is a host crash/suspicion;
  replica co-crashes at the same instant dedupe to one failure);
* exponentially-weighted downtime from suspected→recovered spans of the
  heartbeat monitor;
* heartbeat-loss rate from the monitor's per-host beat/suspicion
  counters (fed on the collector cadence via :meth:`ingest_liveness`);
* a :class:`PageHinkley` change detector on inter-failure gaps
  *normalised by the catalog MTTF* — under the catalog the normalised
  gaps average 1.0, so the detector is scale-free across hosts.

Per (workflow, activity) (:class:`ActivityEstimator`): attempt counts
and the attempt failure probability with a Wilson score interval, so a
noisy 3-attempt estimate is visibly wide while a 300-attempt one is not.

:class:`EstimatorSuite` wires both to a bus, optionally records the raw
signals into a :class:`~repro.obs.timeseries.TimeSeriesStore`, and
exports current values as registry gauges for ``/metrics`` and the
``repro top`` estimator table.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, Mapping

from .metrics import MetricSpec
from .observer import ATTEMPT_OUTCOME

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..events import EventBus, Subscription
    from .metrics import MetricsRegistry
    from .timeseries import TimeSeriesStore

__all__ = [
    "Ewma",
    "wilson_interval",
    "PageHinkley",
    "HostEstimator",
    "ActivityEstimator",
    "EstimatorSuite",
    "priors_from_grid",
    "DRIFT_MTTF",
]

#: Bus topic for catalog-drift events (payloads are plain dicts).
DRIFT_MTTF = "obs.drift.mttf"

#: Failure-detector reasons that count as a *host* failure (as opposed to
#: a task's own nonzero exit, which says nothing about the host's MTTF).
_HOST_FAILURE_REASONS = ("host-crashed", "host-suspected")

# -- exported gauges (declared once; see EstimatorSuite.export) ---------------

_PER_HOST = ("host",)
_PER_ACTIVITY = ("workflow_id", "activity")

HOST_MTTF_OBSERVED = MetricSpec(
    "obs_host_mttf_observed",
    "gauge",
    "EWMA of observed inter-failure gaps",
    _PER_HOST,
)
HOST_MTTF_PRIOR = MetricSpec(
    "obs_host_mttf_prior", "gauge", "catalog-declared MTTF", _PER_HOST
)
HOST_DOWNTIME_OBSERVED = MetricSpec(
    "obs_host_downtime_observed",
    "gauge",
    "EWMA of suspected->recovered spans",
    _PER_HOST,
)
HOST_HEARTBEAT_LOSS_RATE = MetricSpec(
    "obs_host_heartbeat_loss_rate",
    "gauge",
    "suspicions per heartbeat observed",
    _PER_HOST,
)
HOST_DRIFT = MetricSpec(
    "obs_host_drift",
    "gauge",
    "1 when the catalog-drift detector has latched",
    _PER_HOST,
)
HOST_FAILURES_TOTAL = MetricSpec(
    "obs_host_failures_total",
    "gauge",
    "host failures attributed by the estimators",
    _PER_HOST,
)
ATTEMPT_FAILURE_PROBABILITY = MetricSpec(
    "obs_attempt_failure_probability",
    "gauge",
    "attempt failures / attempts",
    _PER_ACTIVITY,
)
ATTEMPT_FAILURE_WILSON_LOW = MetricSpec(
    "obs_attempt_failure_wilson_low",
    "gauge",
    "Wilson 95% lower bound on the failure probability",
    _PER_ACTIVITY,
)
ATTEMPT_FAILURE_WILSON_HIGH = MetricSpec(
    "obs_attempt_failure_wilson_high",
    "gauge",
    "Wilson 95% upper bound on the failure probability",
    _PER_ACTIVITY,
)
ATTEMPTS_TOTAL = MetricSpec(
    "obs_attempts_total",
    "gauge",
    "terminal attempt outcomes observed",
    _PER_ACTIVITY,
)


class Ewma:
    """Exponentially-weighted moving average; seeds on the first sample."""

    __slots__ = ("alpha", "value", "n")

    def __init__(self, alpha: float = 0.3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")
        self.alpha = alpha
        self.value: float | None = None
        self.n = 0

    def update(self, x: float) -> float:
        if self.value is None:
            self.value = float(x)
        else:
            self.value += self.alpha * (float(x) - self.value)
        self.n += 1
        return self.value


def wilson_interval(
    failures: int, n: int, z: float = 1.96
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Unlike the normal approximation it stays inside [0, 1] and is honest
    at small *n* — the regime early-run attempt estimates live in.
    Returns ``(0.0, 1.0)`` for ``n == 0`` (total ignorance).
    """
    if n <= 0:
        return (0.0, 1.0)
    p = failures / n
    z2 = z * z
    denom = 1.0 + z2 / n
    centre = (p + z2 / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n))
    return (max(0.0, centre - half), min(1.0, centre + half))


class PageHinkley:
    """Page–Hinkley change detector against a *known* mean of 1.0.

    Observations are expected to be pre-normalised by their catalog prior
    (gap / prior_mttf), so under the null they average 1.0 regardless of
    the host.  Two one-sided cumulative statistics run in parallel:

    * ``g_down`` grows when observations fall *below* ``1 - delta``
      (failures arriving faster than the catalog promises);
    * ``g_up`` grows when they exceed ``1 + delta`` (host healthier than
      catalogued — also drift, also worth re-planning on).

    Either statistic crossing ``threshold`` latches :attr:`drifted`.
    ``delta`` absorbs normal fluctuation (exponential gaps have standard
    deviation 1 after normalisation); ``threshold`` trades detection
    delay against false alarms — the defaults (0.25 / 40.0) were swept
    against the golden bounds both CI and the test suite pin: a 3× rate
    shift must fire within 200 events, and a 10k-event stationary trace
    must stay silent (0 false alarms across 200 seeds at these values,
    worst-case detection delay 123 events).
    """

    __slots__ = (
        "delta",
        "threshold",
        "min_observations",
        "n",
        "g_up",
        "g_down",
        "drifted",
        "drift_at",
        "direction",
    )

    def __init__(
        self,
        *,
        delta: float = 0.25,
        threshold: float = 40.0,
        min_observations: int = 5,
    ) -> None:
        self.delta = delta
        self.threshold = threshold
        self.min_observations = min_observations
        self.n = 0
        self.g_up = 0.0
        self.g_down = 0.0
        self.drifted = False
        self.drift_at: int | None = None
        self.direction: str | None = None

    def update(self, x: float) -> bool:
        """Feed one normalised observation; returns True on the update
        that first crosses the threshold (the latch edge)."""
        self.n += 1
        self.g_down = max(0.0, self.g_down + (1.0 - x - self.delta))
        self.g_up = max(0.0, self.g_up + (x - 1.0 - self.delta))
        if self.drifted or self.n < self.min_observations:
            return False
        if self.g_down > self.threshold:
            self.drifted, self.drift_at, self.direction = True, self.n, "down"
            return True
        if self.g_up > self.threshold:
            self.drifted, self.drift_at, self.direction = True, self.n, "up"
            return True
        return False

    def statistic(self) -> float:
        return max(self.g_up, self.g_down)

    def reset(self) -> None:
        self.n = 0
        self.g_up = self.g_down = 0.0
        self.drifted = False
        self.drift_at = None
        self.direction = None


class HostEstimator:
    """Online failure statistics for one host, against its catalog prior."""

    __slots__ = (
        "hostname",
        "prior_mttf",
        "prior_downtime",
        "mttf",
        "downtime",
        "detector",
        "failures",
        "last_failure_at",
        "suspected_at",
        "beats",
        "suspicions",
    )

    def __init__(
        self,
        hostname: str,
        *,
        prior_mttf: float = math.inf,
        prior_downtime: float = 0.0,
        alpha: float = 0.3,
        detector: PageHinkley | None = None,
    ) -> None:
        self.hostname = hostname
        self.prior_mttf = prior_mttf
        self.prior_downtime = prior_downtime
        self.mttf = Ewma(alpha)
        self.downtime = Ewma(alpha)
        self.detector = detector if detector is not None else PageHinkley()
        self.failures = 0
        self.last_failure_at: float | None = None
        self.suspected_at: float | None = None
        self.beats = 0
        self.suspicions = 0

    def record_failure(self, at: float) -> bool:
        """Feed one host failure at sim time *at*; returns True when this
        gap is the one that trips the drift detector."""
        fired = False
        if self.last_failure_at is not None and at > self.last_failure_at:
            gap = at - self.last_failure_at
            self.mttf.update(gap)
            if math.isfinite(self.prior_mttf) and self.prior_mttf > 0:
                fired = self.detector.update(gap / self.prior_mttf)
        self.last_failure_at = at
        self.failures += 1
        return fired

    def record_suspected(self, at: float) -> None:
        if self.suspected_at is None:
            self.suspected_at = at

    def record_recovered(self, at: float) -> None:
        if self.suspected_at is not None:
            self.downtime.update(max(0.0, at - self.suspected_at))
            self.suspected_at = None

    def heartbeat_loss_rate(self) -> float:
        """Suspicions per heartbeat observed — the fraction of liveness
        windows this host went dark in."""
        return self.suspicions / max(1, self.beats)

    def snapshot(self) -> dict[str, Any]:
        return {
            "host": self.hostname,
            "failures": self.failures,
            "mttf_observed": self.mttf.value,
            "mttf_prior": self.prior_mttf,
            "downtime_observed": self.downtime.value,
            "downtime_prior": self.prior_downtime,
            "beats": self.beats,
            "suspicions": self.suspicions,
            "heartbeat_loss_rate": self.heartbeat_loss_rate(),
            "drifted": self.detector.drifted,
            "drift_direction": self.detector.direction,
            "drift_statistic": self.detector.statistic(),
        }


class ActivityEstimator:
    """Attempt failure probability for one (workflow, activity) pair.

    Counts move through :meth:`record` only: it is what invalidates the
    cached Wilson bounds and tells the owning suite there is something
    new to export.
    """

    __slots__ = (
        "workflow_id",
        "activity",
        "attempts",
        "failures",
        "duration",
        "_wilson",
        "_dirty",
        "_gauges",
    )

    def __init__(
        self, workflow_id: str, activity: str, *, alpha: float = 0.3
    ) -> None:
        self.workflow_id = workflow_id
        self.activity = activity
        self.attempts = 0
        self.failures = 0
        self.duration = Ewma(alpha)
        self._wilson: tuple[float, float] | None = None
        #: The owning suite's set of estimators awaiting export, and the
        #: four gauges this one exports to (both set by the suite).
        self._dirty: set["ActivityEstimator"] | None = None
        self._gauges: tuple[Any, Any, Any, Any] | None = None

    def record(self, outcome: str) -> None:
        self.attempts += 1
        if outcome != "done":
            self.failures += 1
        self._wilson = None
        if self._dirty is not None:
            self._dirty.add(self)

    def failure_probability(self) -> float:
        return self.failures / max(1, self.attempts)

    def wilson(self) -> tuple[float, float]:
        """Wilson 95% bounds on the failure probability (computed once
        per :meth:`record`, however many readers ask)."""
        bounds = self._wilson
        if bounds is None:
            bounds = self._wilson = wilson_interval(self.failures, self.attempts)
        return bounds

    def snapshot(self) -> dict[str, Any]:
        low, high = self.wilson()
        return {
            "workflow_id": self.workflow_id,
            "activity": self.activity,
            "attempts": self.attempts,
            "failures": self.failures,
            "failure_probability": self.failure_probability(),
            "wilson_low": low,
            "wilson_high": high,
        }


def priors_from_grid(grid: Any) -> dict[str, tuple[float, float]]:
    """Catalog priors ``{hostname: (mttf, mean_downtime)}`` from a
    :class:`~repro.grid.simgrid.SimulatedGrid`'s host specs."""
    priors: dict[str, tuple[float, float]] = {}
    for hostname, host in getattr(grid, "hosts", {}).items():
        spec = getattr(host, "spec", None)
        if spec is not None:
            priors[hostname] = (
                float(getattr(spec, "mttf", math.inf)),
                float(getattr(spec, "mean_downtime", 0.0)),
            )
    return priors


class EstimatorSuite:
    """Bus subscriber maintaining every estimator and emitting drift.

    Subscribes to the terminal task outcomes and the heartbeat monitor's
    suspicion topics.  When a host's drift detector latches, publishes
    one :data:`DRIFT_MTTF` event with observed-vs-prior detail, and a
    *health* engine (optional) is re-evaluated on the spot so drift
    alerts don't wait for the next collector tick.

    The per-event path does integer/EWMA bookkeeping only; all store
    writes happen on the collector cadence, which calls :meth:`export`
    and samples the resulting gauges into the *store* (kept as an
    attribute so dashboards can reach the series).  Nothing is
    subscribed until :meth:`attach_bus` runs, so a run without
    estimators pays zero dispatch cost.
    """

    def __init__(
        self,
        bus: "EventBus | None" = None,
        *,
        clock: Callable[[], float] | None = None,
        priors: Mapping[str, tuple[float, float]] | None = None,
        alpha: float = 0.3,
        ph_delta: float = 0.25,
        ph_threshold: float = 40.0,
        store: "TimeSeriesStore | None" = None,
        health: Any = None,
    ) -> None:
        self.priors = dict(priors or {})
        self.alpha = alpha
        self.ph_delta = ph_delta
        self.ph_threshold = ph_threshold
        self.store = store
        self.health = health
        self.hosts: dict[str, HostEstimator] = {}
        self.activities: dict[tuple[str, str], ActivityEstimator] = {}
        self.drift_events = 0
        #: Activity estimators created or recorded since their last export,
        #: and the (registry, generation) their bound gauges belong to.
        self._dirty: set[ActivityEstimator] = set()
        self._exported_to: tuple[Any, int] | None = None
        self._clock = clock
        self._bus: "EventBus | None" = None
        self._subscriptions: list["Subscription"] = []
        if bus is not None:
            self.attach_bus(bus)

    # -- wiring --------------------------------------------------------------

    def attach_bus(self, bus: "EventBus") -> "EstimatorSuite":
        if self._bus is bus and self._subscriptions:
            return self
        self.detach()
        self._bus = bus
        # Terminal outcomes only — a "task.*" subscription would also pay
        # a handler call per task.active event, which the estimators
        # never use.
        self._subscriptions = [
            bus.subscribe("task.done", self._on_task_event),
            bus.subscribe("task.failed", self._on_task_event),
            bus.subscribe("task.exception", self._on_task_event),
            bus.subscribe("detector.host_suspected", self._on_suspected),
            bus.subscribe("detector.host_recovered", self._on_recovered),
        ]
        return self

    def detach(self) -> None:
        if self._bus is not None:
            for sub in self._subscriptions:
                self._bus.unsubscribe(sub)
        self._subscriptions.clear()

    def _now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    def host(self, hostname: str) -> HostEstimator:
        estimator = self.hosts.get(hostname)
        if estimator is None:
            prior_mttf, prior_downtime = self.priors.get(
                hostname, (math.inf, 0.0)
            )
            estimator = self.hosts[hostname] = HostEstimator(
                hostname,
                prior_mttf=prior_mttf,
                prior_downtime=prior_downtime,
                alpha=self.alpha,
                detector=PageHinkley(
                    delta=self.ph_delta, threshold=self.ph_threshold
                ),
            )
        return estimator

    def activity(self, workflow_id: str, activity: str) -> ActivityEstimator:
        key = (workflow_id, activity)
        estimator = self.activities.get(key)
        if estimator is None:
            estimator = self.activities[key] = ActivityEstimator(
                workflow_id, activity, alpha=self.alpha
            )
            estimator._dirty = self._dirty
            self._dirty.add(estimator)
        return estimator

    # -- event handlers ------------------------------------------------------

    def _on_task_event(self, topic: str, payload: Any) -> None:
        outcome = ATTEMPT_OUTCOME.get(getattr(payload, "state", None))
        if not outcome:  # unknown state, or still running
            return
        wfid = getattr(payload, "workflow_id", "") or ""
        name = getattr(payload, "activity", "") or ""
        self.activity(wfid, name).record(outcome)
        if outcome == "failed" and getattr(payload, "reason", "") in (
            _HOST_FAILURE_REASONS
        ):
            hostname = str(getattr(payload, "hostname", "") or "")
            if hostname:
                self.record_host_failure(hostname, self._at(payload))

    def _at(self, payload: Any) -> float:
        at = getattr(payload, "at", None)
        return float(at) if at is not None else self._now()

    def record_host_failure(self, hostname: str, at: float) -> None:
        """One host failure observation (deduplicating replica co-crashes:
        a second failure at the same instant is the same host event)."""
        estimator = self.host(hostname)
        if estimator.last_failure_at is not None and at <= estimator.last_failure_at:
            return
        fired = estimator.record_failure(at)
        if fired:
            self.drift_events += 1
            if self._bus is not None:
                self._bus.publish(
                    DRIFT_MTTF,
                    {
                        "host": hostname,
                        "at": at,
                        "observed_mttf": estimator.mttf.value,
                        "prior_mttf": estimator.prior_mttf,
                        "direction": estimator.detector.direction,
                        "statistic": estimator.detector.statistic(),
                        "after_events": estimator.detector.drift_at,
                    },
                )
            # Alert promptly on the latch; routine failures leave rule
            # evaluation to the collector cadence (it walks every rule's
            # value callable — too heavy for the per-failure path).
            if self.health is not None:
                self.health.evaluate(at)

    def _on_suspected(self, _topic: str, hostname: Any) -> None:
        self.host(str(hostname)).record_suspected(self._now())

    def _on_recovered(self, _topic: str, hostname: Any) -> None:
        self.host(str(hostname)).record_recovered(self._now())

    def ingest_liveness(self, liveness: list[dict[str, Any]]) -> None:
        """Fold the heartbeat monitor's per-host beat/suspicion counters
        (from :meth:`HeartbeatMonitor.snapshot`) into the estimators."""
        for record in liveness:
            estimator = self.host(str(record.get("host", "")))
            estimator.beats = int(record.get("beats", 0))
            estimator.suspicions = int(record.get("suspicions", 0))

    # -- reads ---------------------------------------------------------------

    def drifted_hosts(self) -> list[str]:
        return sorted(
            h.hostname for h in self.hosts.values() if h.detector.drifted
        )

    def max_failure_probability(self) -> float:
        """Largest Wilson lower bound across activity estimators — the
        conservative "something is reliably failing" scalar health rules
        key on."""
        return max(
            (estimator.wilson()[0] for estimator in self.activities.values()),
            default=0.0,
        )

    def snapshot(self) -> dict[str, Any]:
        return {
            "hosts": [
                self.hosts[h].snapshot() for h in sorted(self.hosts)
            ],
            "activities": [
                self.activities[k].snapshot()
                for k in sorted(self.activities)
            ],
            "drift_events": self.drift_events,
        }

    def export(self, registry: "MetricsRegistry") -> None:
        """Current estimator values as registry gauges (picked up by the
        collector into the store and served on ``/metrics``)."""
        family = registry.family
        mttf_observed = family(HOST_MTTF_OBSERVED)
        mttf_prior = family(HOST_MTTF_PRIOR)
        downtime_observed = family(HOST_DOWNTIME_OBSERVED)
        heartbeat_loss_rate = family(HOST_HEARTBEAT_LOSS_RATE)
        drift = family(HOST_DRIFT)
        failures_total = family(HOST_FAILURES_TOTAL)
        for hostname in sorted(self.hosts):
            estimator = self.hosts[hostname]
            if estimator.mttf.value is not None:
                mttf_observed.labels(hostname).set(estimator.mttf.value)
            if math.isfinite(estimator.prior_mttf):
                mttf_prior.labels(hostname).set(estimator.prior_mttf)
            if estimator.downtime.value is not None:
                downtime_observed.labels(hostname).set(estimator.downtime.value)
            heartbeat_loss_rate.labels(hostname).set(
                estimator.heartbeat_loss_rate()
            )
            drift.labels(hostname).set(1.0 if estimator.detector.drifted else 0.0)
            # Monotone total: the store's per-window slope of this gauge
            # is the host failure rate.
            failures_total.labels(hostname).set(estimator.failures)
        # Activity gauges change only through record(), so only the
        # estimators recorded since the last export are walked — in key
        # order, which registers families and series exactly as a walk
        # over all of them would.  A different registry, or one whose
        # instruments were replaced or overwritten (clear/merge), gets
        # everything again through fresh handles.
        source = (registry, registry.generation)
        if source != self._exported_to:
            self._exported_to = source
            for estimator in self.activities.values():
                estimator._gauges = None
            self._dirty.update(self.activities.values())
        if not self._dirty:
            return
        probability = family(ATTEMPT_FAILURE_PROBABILITY)
        wilson_low = family(ATTEMPT_FAILURE_WILSON_LOW)
        wilson_high = family(ATTEMPT_FAILURE_WILSON_HIGH)
        attempts_total = family(ATTEMPTS_TOTAL)
        for estimator in sorted(
            self._dirty, key=lambda e: (e.workflow_id, e.activity)
        ):
            gauges = estimator._gauges
            if gauges is None:
                labels = (estimator.workflow_id, estimator.activity)
                gauges = estimator._gauges = (
                    probability.labels(*labels),
                    wilson_low.labels(*labels),
                    wilson_high.labels(*labels),
                    attempts_total.labels(*labels),
                )
            low, high = estimator.wilson()
            gauges[0].set(estimator.failure_probability())
            gauges[1].set(low)
            gauges[2].set(high)
            gauges[3].set(estimator.attempts)
        self._dirty.clear()
