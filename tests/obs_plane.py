"""A faulty multiplexed batch with the whole ``repro.obs`` plane attached.

Shared by the plane golden (``test_obs_plane_golden``) and the
bookkeeping-leak test (``test_obs_plane_leaks``): four mosaic variants
(task-level replication, a retried volunteer branch racing a reliable one
into an OR join, a checkpointing solver) on eight crashing volunteer
hosts with heartbeats, one ``EngineHost``, and every consumer the CLI's
``--serve-telemetry --flight-record`` wires
(:class:`repro.obs.TelemetryPlane`) — observer, flight recorder, status
tracker, estimators, health rules and a periodic collector.
"""

from __future__ import annotations

import hashlib
import json

from repro.core import FailurePolicy
from repro.detection import FailureDetector
from repro.engine import EngineHost
from repro.events import EventBus
from repro.gridspec import build_grid
from repro.obs import TelemetryPlane, Tracer, prometheus_text
from repro.wpdl import JoinMode, WorkflowBuilder

VOLUNTEERS = 8
VARIANTS = 4
COLLECT_INTERVAL = 5.0
ADMIT_INTERVAL = 0.5


def mosaic_variant(v: int):
    """Variant *v* of the mosaic pipeline; variants differ in which
    volunteer hosts each stage may use."""

    def vol(i: int) -> str:
        return f"vol{i % VOLUNTEERS}"

    return (
        WorkflowBuilder(f"mosaic-{v}")
        .program("fetch", hosts=[vol(2 * v), vol(2 * v + 1), vol(2 * v + 2)])
        .program("project_fast", hosts=[vol(v + 3)])
        .program("project_safe", hosts=["archive"])
        .program("solve", hosts=[vol(v + 5)])
        .program("publish", hosts=["archive"])
        .activity(
            "fetch",
            implement="fetch",
            outputs=["tiles"],
            policy=FailurePolicy.replica(max_tries=None),
        )
        .activity(
            "project_fast",
            implement="project_fast",
            policy=FailurePolicy.retrying(3, interval=2.0),
        )
        .activity("project_safe", implement="project_safe")
        .activity("combine", join=JoinMode.OR)
        .activity("solve", implement="solve", policy=FailurePolicy.retrying(None))
        .activity("publish", implement="publish")
        .fan_out("fetch", "project_fast", "project_safe")
        .fan_in("combine", "project_fast", "project_safe")
        .sequence("combine", "solve", "publish")
        .build()
    )


def _software(hostname: str, executable: str, **behavior) -> dict:
    return {"hostname": hostname, "executable": executable, "behavior": behavior}


def faulty_gridspec(seed: int) -> dict:
    hosts = [
        {
            "hostname": f"vol{i}",
            "mttf": 40.0,
            "mean_downtime": 5.0,
            "tags": ["volunteer"],
        }
        for i in range(VOLUNTEERS)
    ]
    hosts.append({"hostname": "archive", "reliable": True})
    return {
        "seed": seed,
        "config": {"crash_detection": "prompt", "heartbeats": True},
        "hosts": hosts,
        "software": [
            _software("*", "fetch", type="fixed", duration=6.0, result="tiles"),
            _software("*", "project_fast", type="fixed", duration=8.0),
            _software("archive", "project_safe", type="fixed", duration=14.0),
            _software(
                "*",
                "solve",
                type="checkpointing",
                duration=12.0,
                checkpoints=6,
                overhead=0.25,
                recovery_time=0.25,
            ),
            _software(
                "archive", "publish", type="fixed", duration=1.0, result="published"
            ),
        ],
    }


class ObservedHost:
    """One ``EngineHost`` on a crashing grid, every obs consumer attached
    (none with ``observed=False``: the same batch, bare)."""

    def __init__(
        self, seed: int, *, bus: EventBus | None = None, observed: bool = True
    ) -> None:
        self.grid = grid = build_grid(faulty_gridspec(seed))
        self.bus = bus = bus if bus is not None else EventBus()
        self.reactor = reactor = grid.reactor
        self.detector = detector = FailureDetector(
            reactor, bus, heartbeat_timeout=3.0, batch_heartbeats=True
        )
        self.tracer = Tracer()
        self.plane = plane = TelemetryPlane(
            bus,
            reactor,
            grid,
            detector,
            observe=observed,
            flight_record=observed,
            interval=COLLECT_INTERVAL if observed else None,
        )
        self.observer = plane.observer
        self.recorder = plane.recorder
        self.tracker = plane.tracker
        self.store = plane.store
        self.host = EngineHost(
            grid, reactor=reactor, bus=bus, detector=detector, tracer=self.tracer
        )
        self.specs = [mosaic_variant(v) for v in range(VARIANTS)]
        self._finished = 0
        bus.subscribe("engine.workflow_finished", self._on_finished)

    def _on_finished(self, _topic: str, _payload) -> None:
        self._finished += 1

    def run_batch(self, instances: int) -> dict:
        """Admit *instances* workflows half a simulated second apart, run
        them all to completion with the collector ticking, return results."""
        target = self._finished + instances
        specs = self.specs
        submit = self.host.submit
        for i in range(instances):
            self.reactor.call_later(
                ADMIT_INTERVAL * i,
                lambda i=i: submit(specs[i % len(specs)], validate_spec=False),
            )
        self.plane.start()
        self.reactor.run_until_complete(lambda: self._finished == target, timeout=1e9)
        self.plane.stop()
        return self.host.results()

    # -- readable outputs ----------------------------------------------------

    def outputs(self) -> dict[str, object]:
        """Every readable output of the plane, as JSON-able data."""
        registry = self.observer.metrics
        return {
            "registry": registry.snapshot(),
            "prometheus": prometheus_text(registry),
            "store": self.store.snapshot(),
            "events": [[e.at, e.topic, e.detail] for e in self.observer.events],
            "spans": [
                [s.id, s.name, s.sim_start, s.sim_end, s.parent, s.labels]
                for s in self.observer.spans
            ],
            "recorder": self.recorder.entries,
            "tracker": self.tracker.snapshot(),
        }


def digest(value: object) -> str:
    """SHA-256 of *value*'s JSON text (key order kept: it is an output)."""
    text = value if isinstance(value, str) else json.dumps(value, default=str)
    return hashlib.sha256(text.encode()).hexdigest()
