"""Ablation — heartbeat timeout of the failure detection service.

The paper's analytical models assume failures are observed instantly; the
real detection service (its companion report [18]) pays a latency: a crash
is noticed only after heartbeats have been silent for the timeout.  The
latency matters exactly when recovery *leaves* the failed host — here a
rotate-on-retry policy moves the task to a backup host, so

    E[T] ~ crash time + detection latency(timeout) + F.

The trade-off's other side is accuracy: with jittery message delivery, a
timeout close to the worst-case inter-arrival gap (period + jitter) falsely
suspects live hosts, killing healthy attempts and bouncing work to the dead
primary's queue.  The resulting completion-time curve is U-shaped in the
timeout: too aggressive pays false positives, too generous pays detection
latency.
"""

from __future__ import annotations

import numpy as np

from _common import emit, once

from repro.core import FailurePolicy, ResourceSelection
from repro.engine import WorkflowEngine
from repro.grid import (
    RELIABLE,
    FixedDurationTask,
    GridConfig,
    SimulatedGrid,
    inject_crash,
)
from repro.sim import Series, ascii_chart, format_table
from repro.wpdl import WorkflowBuilder

TIMEOUTS = (2.0, 3.0, 4.0, 8.0, 16.0, 32.0)
HEARTBEAT_PERIOD = 1.0
CRASH_AT = 10.0
RUNS = 80


def run_once(timeout: float, seed: int, jitter: float) -> tuple[float, int]:
    grid = SimulatedGrid(
        seed=seed,
        config=GridConfig(
            crash_detection="heartbeat",
            heartbeats=True,
            network_jitter=jitter,
        ),
    )
    # Primary dies at t=10 and stays down long enough (300s) that every
    # normal run finishes on the backup first.  The outage is finite so a
    # rare false suspicion of the backup (which rotates the retry back to
    # the queued primary) cannot stall the simulation indefinitely.
    grid.add_host(RELIABLE("primary", heartbeat_period=HEARTBEAT_PERIOD))
    grid.add_host(RELIABLE("backup", heartbeat_period=HEARTBEAT_PERIOD))
    grid.install_everywhere("task", FixedDurationTask(30.0))
    inject_crash(grid.kernel, grid.host("primary"), at=CRASH_AT, duration=300.0)
    wf = (
        WorkflowBuilder("hb")
        .program("task", hosts=["primary", "backup"])
        .activity(
            "task",
            implement="task",
            policy=FailurePolicy.retrying(
                None, resource_selection=ResourceSelection.ROTATE
            ),
        )
        .build()
    )
    engine = WorkflowEngine(
        wf, grid, reactor=grid.reactor, heartbeat_timeout=timeout
    )
    result = engine.run(timeout=1e7)
    assert result.succeeded
    # Only suspicions of the backup are *false* (it never crashes); the
    # monitor's own counter also counts the primary's real-crash suspicion
    # revoked at recovery.
    backup = engine.runtime.detector.liveness("backup")
    false_suspicions = backup.suspicions if backup else 0
    return result.completion_time, false_suspicions


def generate():
    means = []
    false_rates = []
    for timeout in TIMEOUTS:
        times = np.empty(RUNS)
        false_count = 0
        for i in range(RUNS):
            t, fs = run_once(timeout, seed=5000 + 31 * i, jitter=2.5)
            times[i] = t
            false_count += fs
        means.append(float(times.mean()))
        false_rates.append(false_count / RUNS)
    return (
        Series(label="E[T] (engine)", x=TIMEOUTS, y=tuple(means)),
        Series(label="false suspicions/run", x=TIMEOUTS, y=tuple(false_rates)),
    )


def test_ablation_heartbeat_timeout(benchmark):
    latency, false_rate = once(benchmark, generate)
    ideal = CRASH_AT + 30.0  # zero-latency detection
    report = (
        format_table("timeout", [latency, false_rate], precision=3)
        + "\n\n"
        + ascii_chart(
            [latency],
            title=f"Ablation: heartbeat timeout (period={HEARTBEAT_PERIOD}, "
            f"jitter=2.5, crash at t={CRASH_AT:g}, F=30)",
        )
        + f"\n\nideal (zero detection latency): E[T] = {ideal:.1f}"
    )
    emit("ablation_heartbeat_timeout", report)

    # -- claims --------------------------------------------------------------
    # (1) the accuracy side: a timeout below period+jitter falsely suspects
    # live hosts constantly; anything past the worst-case gap never does.
    assert false_rate.value_at(2.0) > 1.0
    assert false_rate.value_at(8.0) == 0.0
    assert false_rate.value_at(32.0) == 0.0
    # (2) false positives are expensive: the aggressive timeout is worse
    # than the sweet spot by a large factor.
    assert latency.value_at(2.0) > 3.0 * latency.value_at(3.0)
    # (3) the latency side: past the false-positive cliff, completion time
    # grows monotonically with the timeout...
    safe = [latency.value_at(t) for t in (3.0, 4.0, 8.0, 16.0, 32.0)]
    assert safe == sorted(safe)
    assert latency.value_at(32.0) - latency.value_at(3.0) > 15.0
    # (4) ...and every point pays at least the zero-latency ideal.
    assert min(latency.y) >= ideal
