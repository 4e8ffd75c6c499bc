"""Figure 13 — the value of user-defined exception handling.

Paper setup (Section 8.2): the Figure-6 DAG with FU = 30 (five disk_full
checks, one every 6 time units, each failing with probability p), SR = 150,
DJ = 0.  Three strategies compared as p sweeps 0..1:

* masking by retrying — diverges as p → 1 (never finishes at p = 1);
* masking by checkpointing — also diverges, more slowly;
* exception handling with an alternative task — bounded (156 at p = 1).

All three are techniques of the one sampling pipeline: the closed forms
come from ``expected_time``, the Monte-Carlo curves from ``sweep`` and the
overlay of *real engine* runs (the Figure-6 DAG, or FU alone under a
retry-on-exception policy) from one ``estimate_cells(engine=True)`` call.
"""

from __future__ import annotations

import math

import numpy as np

from _common import PAPER_RUNS, emit, emit_csv, once, overlay_jobs

from repro.sim import (
    CITarget,
    Series,
    SimulationParams,
    ascii_chart,
    estimate_cells,
    expected_time,
    format_table,
    sweep,
)

P_SWEEP = tuple(round(p, 2) for p in np.arange(0.0, 1.01, 0.1))
ENGINE_PS = (0.3, 0.7, 1.0)
#: The overlay stops a cell once its 99% CI half-width is within 5% of its
#: mean (the agreement band below is 8%), and spends at most 1 200 runs.
ENGINE_TARGET = CITarget(rel=0.05, min_runs=200, max_runs=1200)

#: Figure 13's strategies and their legend labels.
STRATEGIES = {
    "exception_retrying": "retrying",
    "exception_checkpointing": "checkpointing",
    "alternative_task": "alternative",
}


def figure13(p: float, runs: int = PAPER_RUNS) -> SimulationParams:
    """Section 8.2's cell at exception probability *p*: FU = 30 with five
    checks, SR = 150 (the default), checkpoints that cost nothing."""
    return SimulationParams(
        checkpoints=5,
        checkpoint_overhead=0.0,
        recovery_time=0.0,
        exception_probability=p,
        runs=runs,
    )


def generate(runs: int = PAPER_RUNS):
    """Closed forms plus Monte-Carlo means over the p sweep."""
    curves = {}
    for technique, label in STRATEGIES.items():
        curves[f"{label} (analytical)"] = Series(
            label=f"{label} (analytical)",
            x=P_SWEEP,
            y=tuple(expected_time(figure13(p), technique) for p in P_SWEEP),
        )
    for technique, label in STRATEGIES.items():
        # A masking cell at p = 1 never completes: the pipeline refuses it.
        xs = P_SWEEP if technique == "alternative_task" else P_SWEEP[:-1]
        mc = sweep(
            xs,
            technique=technique,
            params_of=lambda p: figure13(p, runs),
            label=f"{label} (MC)",
        )
        tail = (math.inf,) * (len(P_SWEEP) - len(xs))
        curves[mc.label] = Series(label=mc.label, x=P_SWEEP, y=mc.y + tail)
    return curves


def engine_overlay():
    """The closed form of every ``(p, technique)`` point, and the engine's
    estimate of each point it finishes in reasonable time: masking points
    whose closed form is infinite or above 5 000 are left out."""
    expected = {
        (p, technique): expected_time(figure13(p), technique)
        for p in ENGINE_PS
        for technique in STRATEGIES
    }
    keys = [key for key, value in expected.items() if value <= 5000]
    estimates = estimate_cells(
        [(technique, figure13(p)) for p, technique in keys],
        target=ENGINE_TARGET,
        engine=True,
        jobs=overlay_jobs(),
    )
    return expected, dict(zip(keys, estimates))


def test_fig13_exception_handling(benchmark):
    curves = once(benchmark, generate)
    analytical = [curves[f"{label} (analytical)"] for label in STRATEGIES.values()]

    expected, overlay = engine_overlay()
    engine_rows = [
        "engine-level runs, Figure-6 DAG or FU alone "
        "(runs, mean ± 99% CI half-width, closed form in parentheses):"
    ]
    for p in ENGINE_PS:
        cells = []
        for technique, label in STRATEGIES.items():
            model = expected[(p, technique)]
            cell = overlay.get((p, technique))
            if cell is not None:
                s = cell.summary
                cells.append(
                    f"{label}[{s.n}]={s.mean:.1f}±{s.ci_halfwidth:.1f} "
                    f"(~{model:.1f})"
                )
            elif math.isinf(model):
                cells.append(f"{label}=never")
            else:
                cells.append(f"{label}=skipped(E~{model:.0f})")
        engine_rows.append(f"  p={p}: " + "  ".join(cells))

    report = (
        format_table("p", analytical)
        + "\n\n"
        + ascii_chart(
            analytical,
            y_cap=500.0,
            title="Figure 13: expected completion vs exception probability "
            "(y capped at 500, as in the paper)",
        )
        + "\n\n"
        + "\n".join(engine_rows)
    )
    emit("fig13_exception_handling", report)
    emit_csv("fig13_exception_handling", "p", list(curves.values()))

    # -- shape claims ------------------------------------------------------
    alt = curves["alternative (analytical)"]
    rt = curves["retrying (analytical)"]
    ck = curves["checkpointing (analytical)"]
    # (1) p=1: masking never finishes; the handler completes in 156.
    assert math.isinf(rt.value_at(1.0)) and math.isinf(ck.value_at(1.0))
    assert alt.value_at(1.0) == 156.0
    # (2) the handler curve is bounded everywhere; masking blows past the
    # paper's 500-unit axis by p=0.8.
    assert max(alt.y) < 160.0
    assert rt.value_at(0.8) > 500.0
    # (3) MC agrees with the closed forms wherever finite.
    for label in STRATEGIES.values():
        ana = curves[f"{label} (analytical)"]
        mc = curves[f"{label} (MC)"]
        for a, m in zip(ana.y, mc.y):
            if math.isfinite(a):
                assert abs(m - a) / max(a, 1.0) < 0.03
    # (4) the real engine matches the model at every checked point.
    assert len(overlay) == 7
    for (p, technique), cell in overlay.items():
        model = expected[(p, technique)]
        assert abs(cell.summary.mean - model) / model < 0.08, (p, technique)
