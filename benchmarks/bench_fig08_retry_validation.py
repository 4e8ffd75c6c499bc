"""Figure 8 — simulation vs analytical model for the retrying strategy.

Paper setup: F = 30, λ = 1/MTTF, MTTF swept over [10, 100], D = 0, 100 000
simulation runs per point; the simulated expected completion time must lie
on the analytical curve (e^{λF} − 1)/λ.
"""

from __future__ import annotations

from _common import PAPER_RUNS, emit_results, once

from repro.sim import (
    PAPER_MTTF_SWEEP,
    Series,
    SimulationParams,
    ascii_chart,
    format_table,
    retry_expected_time,
    sample_technique,
    summarize,
)


def generate(runs: int = PAPER_RUNS):
    analytical = []
    simulated = []
    summaries = []
    for mttf in PAPER_MTTF_SWEEP:
        params = SimulationParams(mttf=float(mttf), runs=runs)
        summary = summarize(sample_technique("retrying", params))
        summaries.append(summary)
        simulated.append(summary.mean)
        analytical.append(retry_expected_time(30.0, 1.0 / mttf))
    xs = tuple(float(m) for m in PAPER_MTTF_SWEEP)
    return (
        Series(label="Analytical (e^{lF}-1)/l", x=xs, y=tuple(analytical)),
        Series(
            label="Simulation",
            x=xs,
            y=tuple(simulated),
            summaries=tuple(summaries),
        ),
    )


def test_fig08_retry_validation(benchmark):
    ana, sim = once(benchmark, generate)
    table = format_table("MTTF", [ana, sim])
    chart = ascii_chart(
        [ana, sim],
        title="Figure 8: expected completion time, retrying (F=30)",
    )
    rel_errors = [
        abs(s - a) / a for s, a in zip(sim.y, ana.y)
    ]
    report = (
        table
        + "\n\n"
        + chart
        + f"\n\nmax relative error vs analytical model: {max(rel_errors):.4%}"
        + f"\nruns per point: {PAPER_RUNS}"
    )
    emit_results(
        "fig08_retry_validation", report, x_label="mttf", series=[ana, sim]
    )

    # The paper's claim: "the expected completion time from simulation
    # results is the same as the analytical expected completion time".
    for summary, reference in zip(sim.summaries, ana.y):
        assert summary.contains(reference, slack=1.5), (
            summary,
            reference,
        )
    assert max(rel_errors) < 0.02
