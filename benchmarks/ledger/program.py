"""Runnable programs built from generated inputs.

``build(inputs, tracer)`` picks a program by the *shape* of the inputs
(``inputs["kind"]``), never by a workload name.  A program exposes

* ``rep(variant)`` — one closed-loop repetition at full size → :class:`Rep`.
  Where the amount of work depends on the random draw (which hosts crash
  when, how many attempts a Monte-Carlo run needs), repetition *k* of a
  run uses draw *k* of a pool derived from the seed: the run's median then
  sits at the pool's median whatever the seed, instead of moving by
  several percent from seed to seed.  Variant 0 is the one whose results
  and counts are checked and reported;
* ``small_rep()``  — the same code at about a tenth of the size (warm-up,
  and the scaling sub-row the README explains);
* ``verify(reps)`` — outputs checked against references that do not depend
  on the repetitions themselves.

Every layer is driven through its public entry points.  The harness
builds the ``EventBus`` and ``FailureDetector`` itself and hands them to
the engine through its public ``bus=``/``detector=`` parameters, which is
what lets a traced run (``tracer`` given) wrap them on the instances
before the first event fires; an untraced run executes the identical
steps with nothing wrapped.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import repro.engine.engine as engine_module
import repro.sim.adaptive as adaptive_module
import repro.sim.runner as runner_module
import repro.sim.samplers as samplers_module
from repro.detection import FailureDetector
from repro.engine import EngineHost, WorkflowEngine
from repro.engine.engine import ENGINE_WORKFLOW_FINISHED
from repro.events import EventBus
from repro.gridspec import build_grid
from repro.obs import (
    EstimatorSuite,
    FlightRecorder,
    HealthEngine,
    PeriodicCollector,
    RunObserver,
    TimeSeriesStore,
    Tracer,
    WorkflowStatusTracker,
    default_rules,
    priors_from_grid,
    scrape_bus,
    scrape_detector,
    scrape_grid,
)
from repro.sim import (
    CITarget,
    EngineSampler,
    SampleCache,
    SimulationParams,
    expected_time,
    relative_error,
    sample_technique,
    seed_for,
    sweep_mttf,
)
from repro.wpdl import parse_wpdl, validate

from tracing import (
    SpanTracer,
    instrument_bus,
    instrument_kernel,
    patched,
    wrap_methods,
)

__all__ = ["Rep", "build"]

#: Where the sample-cache pass of a traced ``mc_sweep`` run writes.
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Simulated seconds between telemetry collector ticks.
COLLECT_INTERVAL = 5.0

#: Draws per seed's pool (see ``rep(variant)``); seeds own disjoint pools.
VARIANT_POOL = 1000

#: The draw every small repetition uses, whatever the seed: a set-up's
#: warm-up must cost the same for every seed, and twenty instances or four
#: runs of one draw do not.
SMALL_DRAW = 20030623

#: Engine-vs-sampler agreement: the engine mean over n runs must lie within
#: this many standard errors of the 100k-sample reference mean, widened by
#: a band for the modelling nuance ``repro.sim.engine_mc`` documents (host
#: failures also strike during checkpoint writes; ≈1.7% at MTTF 10 — the
#: repo's own cross-validation tests allow 5%).
ENGINE_Z_LIMIT = 6.0
ENGINE_MODEL_BAND = 0.03
#: Fixed-budget sampler means vs the analytical forms (retrying, Duda
#: checkpointing).  At 40 000 runs the worst cell (MTTF 10, retrying) has a
#: 99% CI half-width near 1.5%; 6% leaves four of those before failing.
MODEL_REL_ERR_LIMIT = 0.06


@dataclass
class Rep:
    """What one repetition produced."""

    #: Result units delivered (instances, tasks, engine runs, grid cells).
    work: int
    #: Units that did not succeed (or runs that raised).
    failed: int
    #: sha256 over every result's fingerprint, in submission order.
    checksum: str
    #: Exact counts read from the layers' public counters.
    counts: dict[str, float] = field(default_factory=dict)
    #: Seconds inside the timed region.
    wall: float = 0.0
    #: Program-specific payload :meth:`verify` needs.
    detail: Any = None
    #: Which draw of the seed's pool this repetition used.
    variant: int = 0


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\n")
    return h.hexdigest()


def result_fingerprint(result) -> tuple:
    """The comparable identity of one ``WorkflowResult``."""
    return (
        result.workflow,
        result.status.value,
        tuple(sorted((k, repr(v)) for k, v in result.variables.items())),
        result.completion_time,
        tuple(sorted((n, s.value) for n, s in result.node_statuses.items())),
        tuple(result.failed_tasks),
        tuple(sorted(result.tries.items())),
    )


# -- engine-side seams ---------------------------------------------------------

_NAVIGATOR_FUNCTIONS = (
    "assert_no_deadlock",
    "cancel_node",
    "evaluate_outcome",
    "fire_outgoing_edges",
    "irrelevant_running_nodes",
    "propagate_skips",
    "ready_nodes",
)


#: engine.engine binds these names at import; patching them there is the
#: only outside-in way to see navigator, instance-tree and validation time.
_ENGINE_SEAMS = (
    *((engine_module, name, "engine.navigator") for name in _NAVIGATOR_FUNCTIONS),
    (engine_module, "WorkflowInstance", "engine.instance"),
    (engine_module, "validate", "wpdl"),
)


class _Program:
    """Shared plumbing: optional tracer, traced calls, seam bookkeeping."""

    #: Which :mod:`yardstick` this program's repetitions are compared to.
    yardstick = "python"

    def __init__(self, inputs: dict, tracer: SpanTracer | None) -> None:
        self.inputs = inputs
        self.tracer = tracer
        #: Counts taken at wrapped boundaries during a traced repetition.
        self.trace_counts: dict[str, float] = {}
        #: Seams a traced run wanted to wrap but the code no longer has.
        self.missing_seams: list[str] = []
        #: Seconds spent per set-up step (reported as wpdl.* metrics).
        self.setup_times: dict[str, float] = {}

    def _call(self, name: str, fn: Callable[..., Any], *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.wrap(name, fn)(*args, **kwargs)

    def _timed_setup(self, key: str, fn: Callable[..., Any], *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.setup_times[key] = (
            self.setup_times.get(key, 0.0) + time.perf_counter() - start
        )
        return out

    def _wrap(self, obj: Any, layer: str, names=None) -> None:
        if self.tracer is not None:
            self.missing_seams += wrap_methods(self.tracer, obj, layer, names)

    def _wrap_grid(self, grid, bus) -> None:
        """Bus, kernel and the grid's client-facing services (a no-op
        without a tracer).  Call before anything subscribes or schedules."""
        if self.tracer is None:
            return
        instrument_bus(self.tracer, bus, self.trace_counts)
        instrument_kernel(self.tracer, grid.kernel, grid.reactor)
        self._wrap(grid, "grid.gram", ("submit", "cancel"))
        self._wrap(grid.network, "grid.network", ("send", "send_system"))
        self._wrap(grid.store, "ckpt", ("save", "load"))

    def _wrap_detector(self, detector) -> None:
        """Before an engine connects the grid to ``detector.deliver``."""
        self._wrap(
            detector, "detection", ("deliver", "track", "forget", "submission_rejected")
        )

    def _wrap_runtime(self, runtime) -> None:
        """The services every engine of a runtime shares (wrap once)."""
        self._wrap(runtime.checkpoints, "ckpt")
        self._wrap(runtime.broker, "engine.broker")

    def _wrap_engine(self, engine) -> None:
        """One engine's seams: the coordinator's public methods, and the
        callback through which it hands resolutions back to the engine
        (otherwise navigation would be billed to recovery)."""
        if self.tracer is None:
            return
        coordinator = engine.coordinator
        self._wrap(
            coordinator,
            "engine.recovery",
            ("start_activity", "handle_outcome", "cancel_activity", "snapshot_activity"),
        )
        callback = getattr(coordinator, "_on_resolution", None)
        if callback is None:
            self.missing_seams.append("RecoveryCoordinator._on_resolution")
        else:
            coordinator._on_resolution = self.tracer.wrap(
                "engine.engine|on_resolution", callback
            )

    def verify(self, reps: list[Rep]) -> list[str]:
        """Problems found in the outputs of *reps* (empty when correct)."""
        return []

    def patches(self):
        """Module-level seams of a traced repetition (context manager)."""
        return patched(self.tracer, _ENGINE_SEAMS)

    def throughputs(self, reps: list[Rep], wall: float) -> dict[str, float]:
        """The throughputs ISSUE 12 names for this kind of program.  *wall*
        is the seconds one repetition takes; counts are variant 0's, which
        repeat exactly."""
        raise NotImplementedError

    def setup_metrics(self, input_s: float) -> dict[str, float]:
        """Per-layer metrics measured outside repetitions; *input_s* is
        what generating the inputs took."""
        return {}


class _GridProgram(_Program):
    """A program that runs workflow engines on a simulated grid."""

    def _runtime(self, heartbeat_timeout: float | None, variant: int | None = 0):
        """Grid, bus and detector for one repetition, instrumented when
        tracing.  ``grid.reset()`` replays construction (documented
        bit-identical) so that host lifecycle timers are scheduled through
        the wrapped kernel; untraced runs do the same for parity.  *variant*
        picks the draw (``None``: the small repetitions' fixed one)."""
        gridspec = self.inputs["grid"]
        if variant is None:
            gridspec = {**gridspec, "seed": SMALL_DRAW}
        elif variant % VARIANT_POOL:
            gridspec = {
                **gridspec,
                "seed": gridspec["seed"] * VARIANT_POOL + variant % VARIANT_POOL,
            }
        grid = self._call("grid.gram|build_grid", build_grid, gridspec)
        bus = EventBus()
        self._wrap_grid(grid, bus)
        grid.reset()
        detector = FailureDetector(
            grid.reactor,
            bus,
            heartbeat_timeout=heartbeat_timeout,
            batch_heartbeats=True,
        )
        self._wrap_detector(detector)
        return grid, bus, detector

    def setup_metrics(self, input_s: float) -> dict[str, float]:
        # Generating these inputs is building the specs and serialising them.
        return {"wpdl.serialize_s": input_s}

    @staticmethod
    def _grid_counts(grid, bus, detector) -> dict[str, float]:
        kernel = grid.kernel.stats()
        bus_stats = bus.stats()
        hosts = grid.hosts.values()
        return {
            "events.publishes": bus_stats["publishes"],
            "events.route_builds": bus_stats["route_builds"],
            "events.cached_routes": bus_stats["cached_routes"],
            "grid.simkernel.events": kernel["events_processed"],
            "timerheap.scheduled": kernel["timers_scheduled"],
            "timerheap.cancelled": kernel["timers_cancelled"],
            "timerheap.compactions": kernel["compactions"],
            "grid.gram.submits": grid.gram.submitted_count,
            "grid.host.crashes": sum(h.crash_count for h in hosts),
            "grid.host.jobs_killed": sum(h.jobs_killed for h in hosts),
            "grid.network.messages": grid.network.stats.sent,
            "detection.messages": grid.network.stats.delivered,
            "detection.heartbeats": detector.heartbeats_observed,
        }

    @staticmethod
    def _result_counts(results) -> dict[str, float]:
        tries = sum(sum(r.tries.values()) for r in results)
        activities = sum(len(r.tries) for r in results)
        return {
            "engine.instance.nodes": sum(len(r.node_statuses) for r in results),
            "engine.recovery.tries": tries,
            # Every activity that ran needed one successful attempt at most;
            # the rest of its tries were recovery effort.
            "engine.recovery.useful_attempt_ratio": (
                activities / tries if tries else 0.0
            ),
        }


class MuxProgram(_GridProgram):
    """N workflow instances multiplexed on one ``EngineHost``."""

    def __init__(self, inputs: dict, tracer: SpanTracer | None) -> None:
        super().__init__(inputs, tracer)
        texts = inputs["specs"]
        self.xml_bytes = sum(len(text.encode()) for text in texts)
        self.specs = [
            self._timed_setup("wpdl.parse_s", parse_wpdl, text, validate_graph=False)
            for text in texts
        ]
        for spec in self.specs:
            self._timed_setup("wpdl.validate_s", validate, spec)

    def rep(self, variant: int = 0) -> Rep:
        return self._run(self.inputs["instances"], self.inputs["observe"], variant)

    def small_rep(self) -> Rep:
        return self._run(
            max(1, self.inputs["instances"] // 10), self.inputs["observe"], None
        )

    def bare_rep(self, variant: int = 0) -> Rep:
        """The same inputs with no observer attached."""
        return self._run(self.inputs["instances"], False, variant)

    def _run(self, instances: int, observe: bool, variant: int | None = 0) -> Rep:
        inputs = self.inputs
        specs = self.specs
        interval = inputs["admit_interval"]
        start = time.perf_counter()
        grid, bus, detector = self._runtime(inputs["heartbeat_timeout"], variant)
        reactor = grid.reactor
        plane = _Plane(self, bus, reactor, grid, detector) if observe else None
        host = EngineHost(
            grid,
            reactor=reactor,
            bus=bus,
            detector=detector,
            tracer=plane.tracer if plane else None,
        )
        self._wrap_runtime(host.runtime)
        submit = host.submit
        if self.tracer is not None:
            submit = self.tracer.wrap("engine.host|submit", submit)

        def admit(index: int) -> None:
            # Specs were validated during set-up.
            wfid = submit(specs[index % len(specs)], validate_spec=False)
            self._wrap_engine(host.engine(wfid))

        # The reactor's predicate runs after every event, so it has to be
        # O(1): count terminations off the bus instead of asking the host.
        done = [0]

        def on_finished(_topic: str, _payload: Any) -> None:
            done[0] += 1

        bus.subscribe(ENGINE_WORKFLOW_FINISHED, on_finished)
        if interval > 0:
            for i in range(instances):
                reactor.call_later(interval * i, lambda i=i: admit(i))
        else:
            for i in range(instances):
                admit(i)
        reactor.run_until_complete(lambda: done[0] == instances, timeout=1e9)
        if plane is not None:
            plane.stop()
        wall = time.perf_counter() - start
        results = list(host.results().values())
        # Instances the reactor went idle on have no result at all.
        failed = instances - sum(1 for r in results if r.succeeded)
        counts = self._grid_counts(grid, bus, detector)
        counts.update(self._result_counts(results))
        if plane is not None:
            counts.update(plane.counts())
        return Rep(
            work=instances,
            failed=failed,
            checksum=_digest(result_fingerprint(r) for r in results),
            counts=counts,
            wall=wall,
            variant=variant or 0,
        )

    def throughputs(self, reps: list[Rep], wall: float) -> dict[str, float]:
        return {
            "events_per_s": reps[0].counts["events.publishes"] / wall,
            "workflows_per_s": reps[0].work / wall,
        }

    def setup_metrics(self, input_s: float) -> dict[str, float]:
        # Parsed and validated once, at construction.
        return {
            **super().setup_metrics(input_s),
            **self.setup_times,
            "wpdl.xml_bytes": self.xml_bytes,
        }

    def verify(self, reps: list[Rep]) -> list[str]:
        if not self.inputs["observe"]:
            return []
        rep = reps[0]
        if self.bare_rep(rep.variant).checksum != rep.checksum:
            return ["observed results differ from the unobserved run"]
        return []


class _Plane:
    """The whole ``repro.obs`` plane on one bus, wired through public names
    the way ``--serve-telemetry --flight-record`` wires it (no HTTP)."""

    def __init__(self, program: _GridProgram, bus, reactor, grid, detector) -> None:
        clock = reactor.now
        self.tracer = Tracer()
        self.observer = RunObserver(bus, clock=clock)
        self.recorder = FlightRecorder(bus)
        self.tracker = WorkflowStatusTracker(bus)
        store = TimeSeriesStore(step=COLLECT_INTERVAL)
        estimators = EstimatorSuite(
            bus, clock=clock, priors=priors_from_grid(grid), store=store
        )
        health = HealthEngine(clock=clock, bus=bus)
        default_rules(health, store=store, estimators=estimators)
        estimators.health = health
        program._wrap(store, "obs.timeseries", ("collect", "observe"))
        program._wrap(
            estimators,
            "obs.estimators",
            ("export", "ingest_liveness", "record_host_failure"),
        )
        program._wrap(health, "obs.health", ("evaluate",))
        self.collector = PeriodicCollector(
            store=store,
            registry=self.observer.metrics,
            reactor=reactor,
            interval=COLLECT_INTERVAL,
            scrapers=(
                lambda reg: scrape_grid(reg, grid),
                lambda reg: scrape_bus(reg, bus),
                lambda reg: scrape_detector(reg, detector),
                lambda reg: estimators.ingest_liveness(
                    detector.liveness_snapshot()
                ),
            ),
            estimators=estimators,
            health=health,
        )
        self.collector.start()

    def stop(self) -> None:
        self.collector.stop()

    def counts(self) -> dict[str, float]:
        return {
            "obs.timeseries.ticks": self.collector.ticks,
            "obs.recorder.calls": self.recorder.stats()["recorded"],
            "obs.tracectx.contexts": self.tracer.spans_allocated,
        }


class DagProgram(_GridProgram):
    """One wide workflow from WPDL XML text to ``WorkflowResult``."""

    def rep(self, variant: int = 0) -> Rep:
        # The DAG's shape is the seed's; nothing in a repetition is random.
        return self._run(self.inputs["spec"], self.inputs["nodes"])

    def small_rep(self) -> Rep:
        return self._run(self.inputs["small_spec"], self.inputs["small_nodes"])

    def throughputs(self, reps: list[Rep], wall: float) -> dict[str, float]:
        return {
            "events_per_s": reps[0].counts["events.publishes"] / wall,
            "tasks_per_s": reps[0].work / wall,
        }

    def _run(self, text: str, nodes: int) -> Rep:
        start = time.perf_counter()
        spec = self._call("wpdl|parse", parse_wpdl, text, validate_graph=False)
        self._call("wpdl|validate", validate, spec)
        grid, bus, detector = self._runtime(None)
        engine = self._call(
            "engine.engine|init",
            WorkflowEngine,
            spec,
            grid,
            reactor=grid.reactor,
            bus=bus,
            detector=detector,
            validate_spec=False,
        )
        self._wrap_runtime(engine.runtime)
        self._wrap_engine(engine)
        result = engine.run(timeout=1e9)
        wall = time.perf_counter() - start
        counts = self._grid_counts(grid, bus, detector)
        counts.update(self._result_counts([result]))
        counts["wpdl.xml_bytes"] = len(text.encode())
        done = sum(1 for s in result.node_statuses.values() if s.value == "done")
        return Rep(
            work=nodes,
            failed=nodes - done,
            checksum=_digest([result_fingerprint(result)]),
            counts=counts,
            wall=wall,
        )


def _params(data: dict, **overrides) -> SimulationParams:
    return SimulationParams(**{**data, **overrides})


class McEngineProgram(_Program):
    """Sequential engine-level Monte-Carlo on the reset/reuse path."""

    def __init__(self, inputs: dict, tracer: SpanTracer | None) -> None:
        super().__init__(inputs, tracer)
        self.cells = [
            (technique, _params(inputs["params"], mttf=mttf))
            for technique, mttf in inputs["cells"]
        ]
        self.samplers = [EngineSampler(t, p) for t, p in self.cells]
        self._instrumented = False

    def _instrument(self) -> None:
        """Wrap each sampler's reused runtime.  Needs the engine to exist,
        hence one run first; later runs re-subscribe through the wrapped
        bus on ``engine.reset()``."""
        tracer = self.tracer
        for sampler in self.samplers:
            sampler.run(self._seeds(0)[0])
            engine = sampler.engine
            grid = engine.runtime.service
            self._wrap_grid(grid, engine.runtime.bus)
            self._wrap_detector(engine.runtime.detector)
            self._wrap_runtime(engine.runtime)
            self._wrap_engine(engine)
            self._wrap(grid, "sim.engine_mc", ("reset",))
            self._wrap(engine, "sim.engine_mc", ("reset",))
            sampler.run = tracer.wrap("sim.engine_mc|run", sampler.run)
        self._instrumented = True

    def _seeds(self, variant: int) -> list[int]:
        """Run seeds of repetition *variant*: the next slice of the seed's
        pool of run indices (``seed_for`` keeps runs independent)."""
        runs = self.inputs["runs"]
        first = (variant * runs) % (VARIANT_POOL * runs)
        return [seed_for(self.inputs["base_seed"], first + i) for i in range(runs)]

    def rep(self, variant: int = 0) -> Rep:
        return self._run(self._seeds(variant), variant)

    def small_rep(self) -> Rep:
        runs = max(1, self.inputs["runs"] // 10)
        return self._run([seed_for(SMALL_DRAW, i) for i in range(runs)])

    def _run(self, seeds: list[int], variant: int = 0) -> Rep:
        if self.tracer is not None and not self._instrumented:
            self._instrument()
        events_before = sum(s.events_processed for s in self.samplers)
        failed = 0
        times: list[list[float]] = []
        start = time.perf_counter()
        for sampler in self.samplers:
            run = sampler.run
            cell_times = []
            for seed in seeds:
                try:
                    cell_times.append(run(seed))
                except Exception:  # a run that raises is a failed operation
                    failed += 1
            times.append(cell_times)
        wall = time.perf_counter() - start
        events = sum(s.events_processed for s in self.samplers) - events_before
        runs = len(seeds) * len(self.samplers)
        publishes = sum(
            s.engine.runtime.bus.stats()["publishes"] for s in self.samplers
        )
        return Rep(
            work=runs,
            failed=failed,
            checksum=_digest(times),
            counts={
                "grid.simkernel.events": events,
                "sim.engine_mc.events_per_run": events / runs,
                # Buses live as long as their sampler: a lifetime total.
                "events.publishes_lifetime": publishes,
            },
            wall=wall,
            detail=times,
            variant=variant,
        )

    def throughputs(self, reps: list[Rep], wall: float) -> dict[str, float]:
        return {"mc_runs_per_s": reps[0].work / wall}

    def verify(self, reps: list[Rep]) -> list[str]:
        """Engine means against the vectorised samplers (100k draws): every
        distinct run of the repetitions pooled for the test, variant 0
        alone for the reported error (it repeats exactly per seed)."""
        problems = []
        distinct = {rep.variant: rep for rep in reps}
        worst = 0.0
        for index, (technique, params) in enumerate(self.cells):
            reference = sample_technique(technique, params, runs=100_000)
            expected = float(reference.mean())
            times = [t for rep in distinct.values() for t in rep.detail[index]]
            # The reference's spread, not the engine sample's: forty runs of
            # a reliable cell can all read F exactly.
            stderr = float(reference.std(ddof=1)) / math.sqrt(len(times))
            mean = float(np.mean(times))
            if abs(mean - expected) > ENGINE_Z_LIMIT * stderr + ENGINE_MODEL_BAND * expected:
                problems.append(
                    f"{technique} @ MTTF {params.mttf:g}: engine mean {mean:.3f} "
                    f"over {len(times)} runs vs sampler {expected:.3f} "
                    f"(stderr {stderr:.3f})"
                )
            first = float(np.mean(distinct[min(distinct)].detail[index]))
            worst = max(worst, relative_error(first, expected))
        for rep in reps:
            rep.counts["sim.model_rel_err_max"] = worst
        return problems


class McSweepProgram(_Program):
    """Vectorised sampler sweeps: fixed budget, then CI-targeted."""

    yardstick = "numpy"

    def __init__(self, inputs: dict, tracer: SpanTracer | None) -> None:
        super().__init__(inputs, tracer)
        self.panels = [
            _params(inputs["params"], downtime=d) for d in inputs["downtimes"]
        ]
        self.target = CITarget(rel=inputs["target_rel"])
        self._evaluations: list = []

    def patches(self):
        counts = self.trace_counts

        def count_samples(samples) -> None:
            counts["sim.samplers.samples"] = (
                counts.get("sim.samplers.samples", 0) + samples.size
            )

        # Each caller binds its own name for these; patch every binding.
        hooks = {
            (samplers_module, "sample_technique"): count_samples,
            (adaptive_module, "sample_technique"): count_samples,
            (adaptive_module, "evaluate_grid"): self._evaluations.append,
        }
        return patched(
            self.tracer,
            [
                (samplers_module, "sample_technique", "sim.samplers"),
                (adaptive_module, "sample_technique", "sim.samplers"),
                (runner_module, "summarize", "sim.stats"),
                (adaptive_module, "summarize", "sim.stats"),
                (adaptive_module, "evaluate_grid", "sim.adaptive"),
            ],
            hooks,
        )

    def rep(self, variant: int = 0) -> Rep:
        # Draw counts move by under 1% with the seed: no pool needed.
        return self._run(self.inputs["runs"], self.inputs["mttfs"])

    def small_rep(self) -> Rep:
        # A tenth of the fixed budget on the three cheapest MTTF points.
        return self._run(max(100, self.inputs["runs"] // 10), self.inputs["mttfs"][-3:])

    def _run(self, runs: int, mttfs: list[float]) -> Rep:
        inputs = self.inputs
        panels, techniques = self.panels, inputs["techniques"]
        self._evaluations.clear()
        start = time.perf_counter()
        fixed = [
            self._call(
                "sim.runner|sweep_mttf", sweep_mttf, panel, mttfs, techniques,
                runs=runs, jobs=1,
            )
            for panel in panels
        ]
        middle = time.perf_counter()
        adaptive = [
            self._call(
                "sim.runner|sweep_mttf", sweep_mttf, panel, mttfs, techniques,
                target_ci=self.target, variance_reduction="antithetic",
            )
            for panel in panels
        ]
        end = time.perf_counter()
        cells = len(panels) * len(mttfs) * len(techniques)
        counts = {
            "sim.fixed_s": middle - start,
            "sim.fixed_samples": cells * runs,
            "sim.adaptive.grid_s": end - middle,
        }
        if self._evaluations:  # traced: the evaluator's own accounting
            grids = self._evaluations
            counts["sim.adaptive.rounds"] = max(
                len(cell.boundaries) for g in grids for cell in g.cells.values()
            )
            counts["sim.adaptive.samples_drawn"] = sum(g.samples_drawn for g in grids)
            counts["sim.adaptive.samples_used"] = sum(g.samples_used for g in grids)
        summaries = [
            (label, s.n, s.mean, s.std, s.ci_halfwidth)
            for sweep in fixed + adaptive
            for label, series in sweep.items()
            for s in series.summaries
        ]
        unconverged = sum(
            1
            for sweep in adaptive
            for series in sweep.values()
            for s in series.summaries
            if s.rel_halfwidth > inputs["target_rel"] and s.n < self.target.max_runs
        )
        return Rep(
            work=2 * cells,
            failed=unconverged,
            checksum=_digest(summaries),
            counts=counts,
            wall=end - start,
            detail=(panels, fixed),
        )

    def throughputs(self, reps: list[Rep], wall: float) -> dict[str, float]:
        fixed_s = statistics.median(r.counts["sim.fixed_s"] for r in reps)
        return {
            "samples_per_s": reps[0].counts["sim.fixed_samples"] / fixed_s,
            "adaptive_grid_s": statistics.median(
                r.counts["sim.adaptive.grid_s"] for r in reps
            ),
        }

    def setup_metrics(self, input_s: float) -> dict[str, float]:
        return self._cache_pass()

    def verify(self, reps: list[Rep]) -> list[str]:
        """Fixed-budget means against the analytical forms."""
        panels, fixed = reps[0].detail
        worst = 0.0
        for panel, sweep in zip(panels, fixed):
            for technique in ("retrying", "checkpointing"):
                series = sweep.get(technique)
                if series is None:
                    continue
                for mttf, mean in zip(series.x, series.y):
                    model = expected_time(panel.with_mttf(mttf), technique)
                    worst = max(worst, relative_error(mean, model))
        for rep in reps:
            rep.counts["sim.model_rel_err_max"] = worst
        if worst > MODEL_REL_ERR_LIMIT:
            return [f"sampler means off the analytical model by {worst:.3%}"]
        return []

    def _cache_pass(self) -> dict[str, float]:
        """Cold then warm ``SampleCache`` pass over one panel (reported
        only; the cache directory lives under ``out/`` and is removed)."""
        inputs = self.inputs
        directory = OUT_DIR / f"cache-{inputs['params']['seed']}"
        shutil.rmtree(directory, ignore_errors=True)
        cache = SampleCache(directory)
        try:
            timings = []
            for _ in range(2):
                start = time.perf_counter()
                sweep_mttf(
                    self.panels[0], inputs["mttfs"], inputs["techniques"],
                    runs=inputs["runs"], jobs=1, cache=cache,
                )
                timings.append(time.perf_counter() - start)
            stats = cache.stats()
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        lookups = stats.get("hits", 0) + stats.get("misses", 0)
        return {
            "sim.cache.store_s": timings[0],
            "sim.cache.load_s": timings[1],
            "sim.cache.hit_ratio": stats.get("hits", 0) / lookups if lookups else 0.0,
        }


_PROGRAMS = {
    "mux": MuxProgram,
    "dag": DagProgram,
    "mc_engine": McEngineProgram,
    "mc_sweep": McSweepProgram,
}


def build(inputs: dict, tracer: SpanTracer | None = None) -> _Program:
    return _PROGRAMS[inputs["kind"]](inputs, tracer)
