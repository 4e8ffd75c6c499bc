"""Combined failure-handling techniques — policy combinations end to end.

Not a paper figure: a systems benchmark for techniques combined by policy
attribute (``repro.engine.strategies`` reads the decisions off the
policy).  Two combinations run through both evaluation paths:

* ``replication_checkpointing`` — replicas that each retry from the last
  announced checkpoint (``FailurePolicy.replica(max_tries=None)``);
* ``backoff_retry`` — retrying with exponentially growing resubmission
  delays (``FailurePolicy.backoff_retrying``; the task never checkpoints,
  so the flag hand-back has nothing to hand back).

For each MTTF point the vectorised sampler produces E[T] with the paper's
sample count, and an engine-level overlay (the full Grid-WFS stack per
sample, fanned out via :mod:`repro.sim.parallel`) must agree — the same
acceptance bar the cross-validation tests apply.  Throughput of both paths
is recorded so regressions in the strategy dispatch show up in review
diffs.  Results land in ``results/BENCH_combined_techniques.json``.

``REPRO_BENCH_MC_RUNS`` scales the engine-overlay sample count down for CI
smoke runs; the sampler always uses the full paper count (it is cheap).
"""

from __future__ import annotations

import os
import time

from _common import (
    ENGINE_OVERLAY_RUNS,
    PAPER_RUNS,
    emit,
    emit_csv,
    emit_json,
    once,
    overlay_jobs,
)

from repro.sim import (
    PAPER_BASELINE,
    PAPER_MTTF_SWEEP,
    estimate_cells,
    format_table,
    sweep_mttf,
)

COMBINED = ("replication_checkpointing", "backoff_retry")
#: Engine-vs-sampler tolerance per technique: the replicated composition
#: is tight; backoff-retry inherits plain retrying's heavy tail (matches
#: the cross-validation tests).
AGREEMENT_TOL = {"replication_checkpointing": 0.06, "backoff_retry": 0.25}
ENGINE_OVERLAY_MTTFS = (10.0, 30.0, 100.0)
OVERLAY_RUNS = int(os.environ.get("REPRO_BENCH_MC_RUNS", str(ENGINE_OVERLAY_RUNS)))


def generate():
    """Sampler sweep (timed) plus engine overlay (timed)."""
    start = time.perf_counter()
    series = sweep_mttf(PAPER_BASELINE, PAPER_MTTF_SWEEP, COMBINED, runs=PAPER_RUNS)
    sampler_s = time.perf_counter() - start
    sampler_samples = PAPER_RUNS * len(COMBINED) * len(PAPER_MTTF_SWEEP)

    jobs = overlay_jobs()
    keys = [(m, t) for m in ENGINE_OVERLAY_MTTFS for t in COMBINED]
    start = time.perf_counter()
    estimates = estimate_cells(
        [(t, PAPER_BASELINE.with_mttf(m)) for m, t in keys],
        runs=OVERLAY_RUNS,
        engine=True,
        jobs=jobs,
    )
    engine_s = time.perf_counter() - start
    means = {key: e.summary.mean for key, e in zip(keys, estimates)}
    overlay = [
        {"mttf": m, **{t: means[(m, t)] for t in COMBINED}}
        for m in ENGINE_OVERLAY_MTTFS
    ]
    engine_samples_total = OVERLAY_RUNS * len(keys)

    return {
        "series": series,
        "overlay": overlay,
        "jobs": jobs,
        "sampler_runs_per_sec": sampler_samples / sampler_s,
        "engine_runs_per_sec": engine_samples_total / engine_s,
    }


def test_combined_techniques(benchmark):
    data = once(benchmark, generate)
    series, overlay = data["series"], data["overlay"]
    ordered = [series[t] for t in COMBINED]

    lines = [
        format_table("MTTF", ordered),
        "",
        f"engine-level overlay ({OVERLAY_RUNS} runs/point, "
        f"jobs={data['jobs']}):",
    ]
    for row in overlay:
        cells = "  ".join(f"{t}={row[t]:.1f}" for t in COMBINED)
        lines.append(f"  MTTF={row['mttf']:g}: {cells}")
    lines += [
        "",
        f"sampler throughput: {data['sampler_runs_per_sec']:,.0f} runs/s",
        f"engine  throughput: {data['engine_runs_per_sec']:,.0f} runs/s",
    ]
    emit("combined_techniques", "\n".join(lines))
    emit_csv("combined_techniques", "mttf", ordered)

    payload = {
        "techniques": list(COMBINED),
        "mttf_points": [float(m) for m in PAPER_MTTF_SWEEP],
        "sampler_runs_per_point": PAPER_RUNS,
        "expected_time": {
            t: {
                "mean": list(series[t].y),
                "ci_halfwidth": [s.ci_halfwidth for s in series[t].summaries],
            }
            for t in COMBINED
        },
        "engine_overlay": overlay,
        "engine_overlay_runs": OVERLAY_RUNS,
        "jobs": data["jobs"],
        "cpu_count": os.cpu_count(),
        "sampler_runs_per_sec": data["sampler_runs_per_sec"],
        "engine_runs_per_sec": data["engine_runs_per_sec"],
        "agreement": [
            {
                "mttf": row["mttf"],
                "technique": t,
                "engine": row[t],
                "sampler": series[t].value_at(row["mttf"]),
                "rel_error": abs(row[t] - series[t].value_at(row["mttf"]))
                / series[t].value_at(row["mttf"]),
            }
            for row in overlay
            for t in COMBINED
        ],
    }
    emit_json("BENCH_combined_techniques", payload)

    # -- shape claims ------------------------------------------------------
    # (1) backoff delays are pure idle time on this workload (D=0,
    # memoryless failures), so E[T] decreases monotonically with MTTF for
    # both compositions.
    for t in COMBINED:
        ys = series[t].y
        assert all(a > b for a, b in zip(ys, ys[1:])), (t, ys)
    # (2) at high failure rates the checkpointed replicas dominate the
    # restart-from-scratch backoff composition by a wide margin.
    assert series["replication_checkpointing"].value_at(10.0) < 0.5 * series[
        "backoff_retry"
    ].value_at(10.0)
    # (3) the engine executes the same compositions the sampler models.
    for entry in payload["agreement"]:
        assert entry["rel_error"] < AGREEMENT_TOL[entry["technique"]], entry
