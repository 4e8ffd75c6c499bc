"""Per-layer metrics of a traced run, by the names in ``BENCHMARK.json``.

Inputs are what the traced run collected: exclusive seconds per span name
for every traced repetition, span counts and boundary counts of the last
one, and the public counters each repetition read off the layers.  Every
name of ``BENCHMARK.json``'s ``per_layer`` list comes out, 0 where a layer
did no work; a name this module sets that the list lacks is an error, so
code and schema cannot drift apart silently.
"""

from __future__ import annotations

import statistics

from tracing import ROOT

__all__ = ["PerLayer"]

#: Traced layer → the metric holding its exclusive seconds.
SELF_TIME_METRICS = {
    "events": "events.self_s",
    "grid.simkernel": "grid.simkernel.self_s",
    "grid.gram": "grid.gram.self_s",
    "grid.host": "grid.host.self_s",
    "grid.network": "grid.network.self_s",
    "detection": "detection.self_s",
    "engine.host": "engine.host.submit_self_s",
    "engine.engine": "engine.engine.self_s",
    "engine.navigator": "engine.navigator.self_s",
    "engine.instance": "engine.instance.self_s",
    "engine.recovery": "engine.recovery.self_s",
    "engine.broker": "engine.broker.self_s",
    "ckpt": "ckpt.self_s",
    "sim.runner": "sim.runner.self_s",
    "sim.samplers": "sim.samplers.self_s",
    "sim.stats": "sim.stats.self_s",
    "sim.adaptive": "sim.adaptive.self_s",
    "obs.observer": "obs.observer.self_s",
    "obs.recorder": "obs.recorder.self_s",
    "obs.estimators": "obs.estimators.self_s",
    "obs.timeseries": "obs.timeseries.self_s",
    "obs.health": "obs.health.self_s",
    "obs.server": "obs.server.tracker_self_s",
}

#: Single operations reported on their own.
OPERATION_METRICS = {
    "sim.engine_mc|reset": "sim.engine_mc.reset_s",
    "sim.engine_mc|run": "sim.engine_mc.self_s",
    "wpdl|parse": "wpdl.parse_s",
    "wpdl|validate": "wpdl.validate_s",
}

#: Counts taken as span counts where a layer keeps no public counter that
#: survives the repetition (the engine-MC path resets its grid per run).
SPAN_COUNT_FALLBACKS = {
    "grid.gram.submits": ("grid.gram|submit",),
    "grid.network.messages": ("grid.network|send", "grid.network|send_system"),
    "detection.messages": ("detection|deliver",),
}


def _layer(name: str) -> str:
    return name.split("|", 1)[0]


class PerLayer:
    """Accumulates the per-layer metrics of one traced run."""

    def __init__(self, spec: dict) -> None:
        self.units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.values = dict.fromkeys(self.units, 0.0)

    def put(self, name: str, value: float) -> None:
        if name not in self.values:
            raise KeyError(f"{name} is not a per_layer metric of BENCHMARK.json")
        self.values[name] = float(value)

    def put_known(self, counts: dict[str, float]) -> None:
        """Every entry of *counts* that is a metric name."""
        for name, value in counts.items():
            if name in self.values:
                self.put(name, value)

    def metrics(self) -> dict[str, tuple[float, str]]:
        return {name: (value, self.units[name]) for name, value in self.values.items()}

    # -- time ---------------------------------------------------------------

    def self_times(self, rounds: list[dict[str, float]], walls: list[float]) -> None:
        """*rounds*: exclusive seconds per span name, one dict per traced
        repetition; *walls*: those repetitions' traced wall seconds.  Each
        metric is the median over repetitions."""

        def median_of(select) -> float:
            return statistics.median(
                sum(v for k, v in per_name.items() if select(k)) for per_name in rounds
            )

        for layer, metric in SELF_TIME_METRICS.items():
            self.put(metric, median_of(lambda k, layer=layer: _layer(k) == layer))
        for operation, metric in OPERATION_METRICS.items():
            self.put(metric, median_of(lambda k, operation=operation: k == operation))
        accounted = set(SELF_TIME_METRICS) | {_layer(k) for k in OPERATION_METRICS}
        self.put(
            "trace.other_self_s",
            median_of(lambda k: _layer(k) not in accounted and _layer(k) != "harness"),
        )
        self.put(
            "trace.unattributed_share",
            statistics.median(
                per_name.get(ROOT, 0.0) / wall for per_name, wall in zip(rounds, walls)
            ),
        )

    # -- counts -------------------------------------------------------------

    def counts(self, spans: dict[str, int], boundary: dict[str, float]) -> None:
        """*spans*: span count per name; *boundary*: what the bus wrapper
        counted (``topic:<family.name>``, ``handlers``) and the samplers'
        result hook."""

        def spans_of(layer: str) -> int:
            return sum(v for k, v in spans.items() if _layer(k) == layer)

        def topic(name: str) -> float:
            return boundary.get("topic:" + name, 0)

        for metric, names in SPAN_COUNT_FALLBACKS.items():
            if not self.values[metric]:
                self.put(metric, sum(spans.get(name, 0) for name in names))
        publishes = sum(v for k, v in boundary.items() if k.startswith("topic:"))
        if publishes:
            self.put("events.publishes", publishes)
            self.put(
                "events.handlers_per_publish", boundary.get("handlers", 0) / publishes
            )
            obs_spans = sum(v for k, v in spans.items() if k.startswith("obs."))
            self.put("obs.calls_per_publish", obs_spans / publishes)
        verdicts = topic("task.done") + topic("task.failed") + topic("task.exception")
        if verdicts:
            self.put("detection.failed_verdict_share", topic("task.failed") / verdicts)
        self.put(
            "engine.recovery.decisions",
            sum(v for k, v in boundary.items() if k.startswith("topic:recovery.")),
        )
        self.put("engine.recovery.retries", topic("recovery.retry"))
        self.put("engine.recovery.replicas", topic("recovery.replication_win"))
        self.put("engine.recovery.restarts", topic("recovery.checkpoint_restart"))
        self.put("engine.engine.handler_calls", spans_of("engine.engine"))
        self.put("engine.broker.selects", spans_of("engine.broker"))
        self.put("ckpt.saves", spans.get("ckpt|save", 0))
        self.put("ckpt.restores", spans.get("ckpt|load", 0))
        self.put("sim.samplers.calls", spans_of("sim.samplers"))
        self.put("sim.samplers.samples", boundary.get("sim.samplers.samples", 0))
        self.put("obs.observer.calls", spans_of("obs.observer"))
        self.put("obs.estimators.calls", spans_of("obs.estimators"))
        self.put("obs.health.evaluations", spans.get("obs.health|evaluate", 0))
        self.put("trace.spans", sum(spans.values()))
