"""Ablation — checkpoint interval (the paper fixes K = 20; should it?).

DESIGN.md flags the paper's K = 20 as a design choice worth ablating.  This
benchmark sweeps K for several MTTFs, validates the Monte-Carlo optimum
against the analytical optimum, and shows the classic bathtub: too few
checkpoints lose work per failure, too many drown in overhead.
"""

from __future__ import annotations

from _common import emit, once

from repro.sim import (
    Series,
    SimulationParams,
    ascii_chart,
    checkpoint_expected_time,
    format_table,
    optimal_checkpoint_count,
    sample_technique,
)

K_SWEEP = (1, 2, 4, 8, 12, 16, 20, 30, 45, 60, 90, 120)
MTTFS = (5.0, 15.0, 50.0)
RUNS = 50_000


def generate():
    series = []
    optima = {}
    for mttf in MTTFS:
        means = []
        for k in K_SWEEP:
            params = SimulationParams(mttf=mttf, checkpoints=k, runs=RUNS)
            means.append(float(sample_technique("checkpointing", params).mean()))
        series.append(
            Series(
                label=f"MTTF={mttf:g}",
                x=tuple(float(k) for k in K_SWEEP),
                y=tuple(means),
            )
        )
        optima[mttf] = optimal_checkpoint_count(SimulationParams(mttf=mttf))
    return series, optima


def test_ablation_checkpoint_interval(benchmark):
    series, optima = once(benchmark, generate)
    lines = [
        f"analytical optimal K: "
        + ", ".join(f"MTTF={m:g} -> K*={k}" for m, k in optima.items())
    ]
    report = (
        format_table("K", series)
        + "\n\n"
        + ascii_chart(series, title="Ablation: E[T] vs checkpoint count K (F=30, C=R=0.5)")
        + "\n\n"
        + "\n".join(lines)
    )
    emit("ablation_checkpoint_interval", report)

    # -- claims --------------------------------------------------------------
    # (1) flakier environments want more checkpoints.
    assert optima[5.0] > optima[15.0] >= optima[50.0]
    # (2) the simulated optimum agrees with the analytical optimum to
    # within the flatness of the bathtub: the sampled mean at K* is within
    # 2% of the best sampled mean.
    for s, mttf in zip(series, MTTFS):
        best_sampled = min(s.y)
        k_star = optima[mttf]
        ana_at_kstar = checkpoint_expected_time(
            30.0, 1.0 / mttf, checkpoint_overhead=0.5, recovery_time=0.5,
            checkpoints=k_star,
        )
        assert ana_at_kstar <= best_sampled * 1.02
    # (3) the bathtub shape holds for the flaky host: the extremes of the
    # sweep are worse than the middle.
    flaky = series[0]
    assert min(flaky.y) < flaky.y[0]
    assert min(flaky.y) < flaky.y[-1]
    # (4) the paper's K=20 is near-optimal for its headline MTTF range:
    # within 10% of the best K for MTTF=15.
    mid = series[1]
    at20 = mid.value_at(20.0)
    assert at20 < 1.10 * min(mid.y)
