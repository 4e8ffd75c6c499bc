"""The telemetry plane of one runtime, wired once.

``repro run/serve-batch --metrics/--trace/--flight-record/
--serve-telemetry`` and the plane tests (``tests/obs_plane.py``) attach
the same consumers to a runtime's bus in the same order; this module is
that wiring, so there is one place that knows it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .estimators import EstimatorSuite, priors_from_grid
from .health import HealthEngine, default_rules
from .log import EventLog
from .observer import RunObserver, scrape_bus, scrape_detector, scrape_grid
from .recorder import FlightRecorder
from .server import WorkflowStatusTracker
from .timeseries import PeriodicCollector, TimeSeriesStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..detection import FailureDetector
    from ..events import EventBus

__all__ = ["TelemetryPlane"]


class TelemetryPlane:
    """Every :mod:`repro.obs` consumer of one runtime.

    Every consumer that reads *bus* reads it through its one
    :class:`~repro.obs.log.EventLog` — one append per publish — and those
    that are sampled (observer, status tracker, estimators) are brought up
    to date by the log's one fold, at each collector tick and before any
    read.  All of them attach here, before the first publish, for the
    bus's life.  The health engine reads nothing from the bus: the
    estimators latch its drift rules by call.  What the two publish from
    inside a fold (``obs.drift.mttf``, ``obs.alert.*``) is appended to the
    same log.

    Each part is optional and ``None`` when off:

    * *observe* — the :class:`RunObserver` (metrics registry, spans,
      event ring) behind ``--metrics``/``--trace`` and ``/metrics``;
    * *flight_record* — the :class:`FlightRecorder` journaling every bus
      event: ``True`` keeps the ring only, a path also spills to it;
    * *interval* — the statistical layer on a simulated-seconds cadence:
      status tracker, time-series store, estimator suite (priors from
      *grid*'s catalogue), health rules, and the
      :class:`PeriodicCollector` that scrapes *grid*, *bus* and
      *detector* into the observer's registry each tick.

    :meth:`start` and :meth:`stop` bracket the stretches in which the
    simulation is driven; a long-lived host calls them once per batch.
    """

    def __init__(
        self,
        bus: "EventBus",
        reactor,
        grid,
        detector: "FailureDetector",
        *,
        observe: bool = True,
        flight_record: bool | str = False,
        interval: float | None = None,
    ) -> None:
        self._sources = (grid, bus, detector)
        clock = reactor.now
        self._log = EventLog.on(bus, clock=clock)
        self.observer = RunObserver(bus, clock=clock) if observe else None
        self.recorder = None
        if flight_record:
            spill = None if flight_record is True else flight_record
            self.recorder = FlightRecorder(bus, spill_path=spill)
        self.tracker = self.store = self.estimators = None
        self.health = self.collector = None
        if interval is None:
            return
        self.tracker = WorkflowStatusTracker(bus)
        self.store = store = TimeSeriesStore(step=interval)
        self.estimators = estimators = EstimatorSuite(
            bus, clock=clock, priors=priors_from_grid(grid), store=store
        )
        self.health = health = HealthEngine(clock=clock, bus=bus)
        default_rules(health, store=store, estimators=estimators)
        # The fold that finds a drift latches it and re-evaluates the rules.
        estimators.health = health
        self.collector = PeriodicCollector(
            store=store,
            registry=self.observer.metrics if observe else None,
            reactor=reactor,
            interval=interval,
            scrapers=(
                self.scrape,
                lambda reg: estimators.ingest_liveness(
                    detector.liveness_snapshot()
                ),
            ),
            estimators=estimators,
            health=health,
        )

    def scrape(self, registry) -> None:
        """Pull the plain-int levels the runtime keeps for itself into
        *registry*: the grid's (hosts, and the kernel block — events
        processed, timer-heap compactions), the bus's (publications,
        subscribed topics) and the detector's.  The collector does this every tick;
        an exporter does it once at the end of a run."""
        grid, bus, detector = self._sources
        scrape_grid(registry, grid)
        scrape_bus(registry, bus)
        scrape_detector(registry, detector)

    def window(self) -> tuple[int, int]:
        """``(held, published)``: the records the bus's log holds once
        folded — what events, spans and the journal are rendered from — of
        those appended so far."""
        log = self._log
        return min(log.seq, log.capacity), log.seq

    def start(self) -> None:
        """Start the collector's ticks (no-op without the statistical
        layer)."""
        if self.collector is not None:
            self.collector.start()

    def stop(self) -> None:
        """Stop the collector's ticks and fold the run's tail (another
        thread's reads then see it whole); every consumer stays attached
        and readable, and :meth:`start` resumes."""
        if self.collector is not None:
            self.collector.stop()
        self._log.fold()
