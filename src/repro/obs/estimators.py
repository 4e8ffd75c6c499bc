"""Online failure-statistics estimators and catalog-drift detection.

The resource catalog states *priors*: each host's declared MTTF and mean
downtime (:class:`~repro.catalogs.resource.ResourceSpec`).  This module
estimates the *posteriors* online from the bus's event log and raises
``obs.drift.*`` events when the two disagree — the signal an adaptive
strategy would switch techniques on.

Per host (:class:`HostEstimator`):

* exponentially-weighted MTTF from inter-failure gaps (a failure is a
  ``task.failed`` outcome whose reason is a host crash/suspicion;
  replica co-crashes at the same instant dedupe to one failure);
* exponentially-weighted downtime from the failure detector's
  suspected→recovered spans;
* heartbeat-loss rate from the detector's per-host beat/suspicion
  counters (fed on the collector cadence via :meth:`ingest_liveness`);
* a :class:`PageHinkley` change detector on inter-failure gaps
  *normalised by the catalog MTTF* — under the catalog the normalised
  gaps average 1.0, so the detector is scale-free across hosts.

Per (workflow, activity) (:class:`ActivityEstimator`) — the workflow
*specification*'s name, not an instance's id: the paper's failure model is
per task and per resource, and an estimate pooled over every instance of a
specification has a sample size worth an interval — attempt counts and the
attempt failure probability with a Wilson score interval, so a noisy
3-attempt estimate is visibly wide while a 300-attempt one is not.

:class:`EstimatorSuite` folds both from a bus's event log, and exports
current values as registry gauges for ``/metrics`` and the ``repro top``
estimator table.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, Mapping

from .log import LogConsumer
from .metrics import MetricSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..events import EventBus
    from .health import HealthEngine
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

#: The smoothing weight of a suite's per-host MTTF and downtime EWMAs.
ALPHA = 0.3
#: A suite's drift detectors' slack and alarm level (:class:`PageHinkley`).
PH_DELTA = 0.25
PH_THRESHOLD = 40.0

# -- exported gauges (declared once; see EstimatorSuite.export) ---------------

_PER_HOST = ("host",)
_PER_ACTIVITY = ("workflow", "activity")

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

    def __init__(self, alpha: float = ALPHA) -> None:
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
        delta: float = PH_DELTA,
        threshold: float = PH_THRESHOLD,
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
        alpha: float = ALPHA,
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
    """Attempt failure probability for one (workflow, activity) pair,
    pooled over every instance of the workflow specification."""

    __slots__ = ("workflow", "activity", "attempts", "failures", "_wilson")

    def __init__(self, workflow: str, activity: str) -> None:
        self.workflow = workflow
        self.activity = activity
        self.attempts = 0
        self.failures = 0
        self._wilson: tuple[float, float] | None = None

    def record(self, outcome: str) -> None:
        self.attempts += 1
        if outcome != "done":
            self.failures += 1
        self._wilson = None

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
            "workflow": self.workflow,
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


class EstimatorSuite(LogConsumer):
    """Every estimator of one bus, folded from its event log.

    The fold (:class:`~repro.obs.log.Fold`) feeds it the terminal task
    outcomes, under the name of the specification their instance runs, and
    the failure detector's host suspicion topics.  When a host's drift detector
    latches it publishes one
    :data:`DRIFT_MTTF` event with observed-vs-prior detail, and latches and
    re-evaluates its :attr:`health` engine by call, at the failure's own
    time.  All of it
    happens when the log is folded — at the collector's tick or before a
    read — so a drift is published, and its alert fired, no later than one
    collector interval after the failure that tripped it.  The collector
    then calls :meth:`export` and samples the gauges into the store.
    """

    _slot = "estimators"

    def __init__(
        self,
        bus: "EventBus",
        *,
        clock: Callable[[], float] | None = None,
        priors: Mapping[str, tuple[float, float]] | None = None,
        store: "TimeSeriesStore | None" = None,
    ) -> None:
        self.priors = dict(priors or {})
        self.store = store
        #: The :class:`~repro.obs.health.HealthEngine` a drift latches,
        #: assigned once both are built.
        self.health: "HealthEngine | None" = None
        self._hosts: dict[str, HostEstimator] = {}
        self._activities: dict[tuple[str, str], ActivityEstimator] = {}
        self.drift_events = 0
        self._clock = clock
        self.attach_bus(bus)

    # -- state (reading it folds first) --------------------------------------

    @property
    def hosts(self) -> dict[str, HostEstimator]:
        self.sync()
        return self._hosts

    @property
    def activities(self) -> dict[tuple[str, str], ActivityEstimator]:
        """Activity estimators by ``(workflow, activity)``."""
        self.sync()
        return self._activities

    def host(self, hostname: str) -> HostEstimator:
        estimator = self._hosts.get(hostname)
        if estimator is None:
            prior_mttf, prior_downtime = self.priors.get(hostname, (math.inf, 0.0))
            estimator = self._hosts[hostname] = HostEstimator(
                hostname,
                prior_mttf=prior_mttf,
                prior_downtime=prior_downtime,
                alpha=ALPHA,
                detector=PageHinkley(delta=PH_DELTA, threshold=PH_THRESHOLD),
            )
        return estimator

    def activity(self, workflow: str, activity: str) -> ActivityEstimator:
        key = (workflow, activity)
        estimator = self._activities.get(key)
        if estimator is None:
            estimator = self._activities[key] = ActivityEstimator(workflow, activity)
        return estimator

    # -- what the fold feeds ---------------------------------------------------

    def record_host_failure(self, hostname: str, at: float) -> None:
        """One host failure observation (deduplicating replica co-crashes:
        a second failure at the same instant is the same host event)."""
        estimator = self.host(hostname)
        if estimator.last_failure_at is not None and at <= estimator.last_failure_at:
            return
        fired = estimator.record_failure(at)
        if fired:
            self.drift_events += 1
            drift = {
                "host": hostname,
                "at": at,
                "observed_mttf": estimator.mttf.value,
                "prior_mttf": estimator.prior_mttf,
                "direction": estimator.detector.direction,
                "statistic": estimator.detector.statistic(),
                "after_events": estimator.detector.drift_at,
            }
            self._bus.publish(DRIFT_MTTF, drift)
            # Latch and alert by call; routine failures leave rule
            # evaluation to the collector cadence.
            if self.health is not None:
                self.health.latch_drift(DRIFT_MTTF, drift)
                self.health.evaluate(at)

    def ingest_liveness(self, liveness: list[dict[str, Any]]) -> None:
        """Fold the failure detector's per-host beat/suspicion counters
        (from :meth:`FailureDetector.liveness_snapshot`) into the
        estimators."""
        for record in liveness:
            estimator = self.host(str(record.get("host", "")))
            estimator.beats = int(record.get("beats", 0))
            estimator.suspicions = int(record.get("suspicions", 0))

    # -- reads ---------------------------------------------------------------

    def max_failure_probability(self) -> float:
        """Largest Wilson lower bound across activity estimators — the
        conservative "something is reliably failing" scalar health rules
        key on."""
        return max(
            (estimator.wilson()[0] for estimator in self.activities.values()),
            default=0.0,
        )

    def snapshot(self) -> dict[str, Any]:
        with self._synced():
            return {
                "hosts": [self._hosts[h].snapshot() for h in sorted(self._hosts)],
                "activities": [
                    self._activities[k].snapshot() for k in sorted(self._activities)
                ],
                "drift_events": self.drift_events,
            }

    def export(self, registry: "MetricsRegistry") -> None:
        """Current estimator values as registry gauges (picked up by the
        collector into the store and served on ``/metrics``).  A full walk
        in key order: a few dozen estimators, whatever the load."""
        family = registry.family
        mttf_observed = family(HOST_MTTF_OBSERVED)
        mttf_prior = family(HOST_MTTF_PRIOR)
        downtime_observed = family(HOST_DOWNTIME_OBSERVED)
        heartbeat_loss_rate = family(HOST_HEARTBEAT_LOSS_RATE)
        drift = family(HOST_DRIFT)
        failures_total = family(HOST_FAILURES_TOTAL)
        hosts = self.hosts
        for hostname in sorted(hosts):
            estimator = hosts[hostname]
            if estimator.mttf.value is not None:
                mttf_observed.labels(hostname).set(estimator.mttf.value)
            if math.isfinite(estimator.prior_mttf):
                mttf_prior.labels(hostname).set(estimator.prior_mttf)
            if estimator.downtime.value is not None:
                downtime_observed.labels(hostname).set(estimator.downtime.value)
            heartbeat_loss_rate.labels(hostname).set(estimator.heartbeat_loss_rate())
            drift.labels(hostname).set(1.0 if estimator.detector.drifted else 0.0)
            # Monotone total: the store's per-window slope of this gauge
            # is the host failure rate.
            failures_total.labels(hostname).set(estimator.failures)
        activities = self._activities
        if not activities:
            return
        probability = family(ATTEMPT_FAILURE_PROBABILITY)
        wilson_low = family(ATTEMPT_FAILURE_WILSON_LOW)
        wilson_high = family(ATTEMPT_FAILURE_WILSON_HIGH)
        attempts_total = family(ATTEMPTS_TOTAL)
        for key in sorted(activities):
            estimator = activities[key]
            low, high = estimator.wilson()
            probability.labels(*key).set(estimator.failure_probability())
            wilson_low.labels(*key).set(low)
            wilson_high.labels(*key).set(high)
            attempts_total.labels(*key).set(estimator.attempts)
