"""Figure 9 — simulation vs analytical model for the checkpointing strategy.

Paper setup: F = 30, C = R = 0.5, K = 20 checkpoints, D = 0, MTTF swept
(we use [2, 100] to cover the figure's near-zero-MTTF start), 100 000 runs
per point; expected completion time must match
F/a · (C + (C + R + 1/λ)(e^{λa} − 1)) with a = F/K.
"""

from __future__ import annotations

from _common import PAPER_RUNS, emit, emit_csv, once

from repro.sim import (
    Series,
    SimulationParams,
    ascii_chart,
    checkpoint_expected_time,
    format_table,
    sample_technique,
    summarize,
)

MTTF_SWEEP = (2.0, 5.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0)


def generate(runs: int = PAPER_RUNS):
    analytical = []
    simulated = []
    summaries = []
    for mttf in MTTF_SWEEP:
        params = SimulationParams(mttf=mttf, runs=runs)
        summary = summarize(sample_technique("checkpointing", params))
        summaries.append(summary)
        simulated.append(summary.mean)
        analytical.append(
            checkpoint_expected_time(
                30.0,
                1.0 / mttf,
                checkpoint_overhead=0.5,
                recovery_time=0.5,
                checkpoints=20,
            )
        )
    return (
        Series(label="Analytical F/a(C+(C+R+1/l)(e^{la}-1))", x=MTTF_SWEEP,
               y=tuple(analytical)),
        Series(label="Simulation", x=MTTF_SWEEP, y=tuple(simulated),
               summaries=tuple(summaries)),
    )


def test_fig09_checkpoint_validation(benchmark):
    ana, sim = once(benchmark, generate)
    rel_errors = [abs(s - a) / a for s, a in zip(sim.y, ana.y)]
    report = (
        format_table("MTTF", [ana, sim])
        + "\n\n"
        + ascii_chart(
            [ana, sim],
            title="Figure 9: expected completion time, checkpointing "
            "(F=30, C=R=0.5, K=20)",
        )
        + f"\n\nmax relative error vs analytical model: {max(rel_errors):.4%}"
        + f"\nruns per point: {PAPER_RUNS}"
    )
    emit("fig09_checkpoint_validation", report)
    emit_csv("fig09_checkpoint_validation", "mttf", [ana, sim])

    for summary, reference in zip(sim.summaries, ana.y):
        assert summary.contains(reference, slack=1.5)
    assert max(rel_errors) < 0.02
    # Figure-9 shape: the curve decays towards the failure-free floor
    # F + K·C = 40 as MTTF grows.
    assert sim.y[-1] < 41.5
    assert sim.y[0] > sim.y[-1]
