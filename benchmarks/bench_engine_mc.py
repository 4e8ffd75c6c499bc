"""Engine-level Monte-Carlo throughput — naive vs amortized vs cached.

Not a paper figure: a systems benchmark tracking the perf trajectory of
the engine-level sampling path (:mod:`repro.sim.parallel`,
:mod:`repro.sim.pool`, :mod:`repro.sim.cache`).  Five configurations run
the same 300-sample point (checkpointing, MTTF = 20):

* ``naive``         — ``run_engine_once`` in a loop (the pre-optimisation
  path: full grid + workflow + engine construction per sample);
* ``sequential``    — ``engine_samples(..., jobs=1)`` (one
  ``EngineSampler`` reused across runs via in-place grid + engine reset);
* ``parallel cold`` — first ``engine_samples(..., jobs=4)`` after a pool
  shutdown: pays worker spin-up and per-worker sampler construction;
* ``parallel warm`` — the same call again: the persistent pool and the
  per-worker sampler caches are hot, so this is the amortized steady
  state every sweep point after the first enjoys;
* ``cache cold/warm`` — ``engine_samples(..., cache=...)`` against an
  empty then a populated content-addressed cache: warm regeneration
  loads the vector from disk without a single engine run.

All paths must produce bit-identical sample vectors — that is asserted,
not assumed.  Results land in ``results/BENCH_engine_mc.json`` together
with raw sim-kernel event-throughput figures so regressions in any layer
show up in review diffs.

Wall-clock speedup of the parallel path is hardware-dependent (it cannot
beat sequential on a single-core host), so the JSON records ``cpu_count``
and the parallel speedup assertion (the CI perf-smoke gate: warm jobs=4
must clear 1.5x sequential) only engages when the cores exist.  The
cache speedup assertion is unconditional — a disk read beats re-running
hundreds of engine simulations on any hardware.
``REPRO_BENCH_MC_RUNS`` scales the sample count down for CI smoke runs.
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

from _common import emit_results, once

from repro.grid import SimKernel
from repro.sim import (
    PAPER_BASELINE,
    EngineSampler,
    SampleCache,
    engine_samples,
    shutdown_pool,
)
from repro.sim.engine_mc import run_engine_once

TECHNIQUE = "checkpointing"
MTTF = 20.0
RUNS = int(os.environ.get("REPRO_BENCH_MC_RUNS", "300"))
JOBS = 4
KERNEL_EVENTS = 200_000

#: CI perf-smoke gate: warm pooled jobs=4 must clear this multiple of the
#: sequential path (when the cores exist) or the job fails.
PARALLEL_SPEEDUP_FLOOR = 1.5

#: Warm-cache regeneration must beat cold by at least this factor.
CACHE_SPEEDUP_FLOOR = 10.0

#: Interleaved timing repeats for the overhead comparison; min-of-reps
#: discards scheduler noise.
OVERHEAD_REPEATS = 5


def _time_naive(params, runs: int) -> tuple[np.ndarray, float]:
    base_seed = params.seed
    start = time.perf_counter()
    times = np.fromiter(
        (
            run_engine_once(TECHNIQUE, params, seed=base_seed + 7919 * i)
            for i in range(runs)
        ),
        dtype=np.float64,
        count=runs,
    )
    return times, time.perf_counter() - start


def _time_engine_samples(
    params, runs: int, jobs: int, cache=None
) -> tuple[np.ndarray, float]:
    start = time.perf_counter()
    times = engine_samples(TECHNIQUE, params, runs=runs, jobs=jobs, cache=cache)
    return times, time.perf_counter() - start


def _time_sampler_pass(sampler, params, runs: int) -> float:
    start = time.perf_counter()
    for i in range(runs):
        sampler.run(params.seed + 7919 * i)
    return time.perf_counter() - start


def _metrics_overhead(params, runs: int) -> dict:
    """Sequential sampler throughput without and with a metrics registry
    (off means absent: ``metrics=None``).  The passes are interleaved and
    the minimum per mode is kept, so slow drift on a shared box cannot
    masquerade as overhead."""
    from repro.obs import MetricsRegistry

    samplers = {
        "plain": EngineSampler(TECHNIQUE, params),
        "enabled": EngineSampler(TECHNIQUE, params),
    }
    samplers["enabled"].metrics = MetricsRegistry()
    best = {mode: float("inf") for mode in samplers}
    for _ in range(OVERHEAD_REPEATS):
        for mode, sampler in samplers.items():
            best[mode] = min(
                best[mode], _time_sampler_pass(sampler, params, runs)
            )
    return {
        "metrics_enabled_overhead": best["enabled"] / best["plain"] - 1.0,
    }


def _kernel_events_per_sec(n_events: int) -> float:
    """Raw kernel throughput: schedule-then-drain *n_events* timers."""
    kernel = SimKernel()
    counter = [0]

    def tick() -> None:
        counter[0] += 1

    for i in range(n_events):
        kernel.schedule(float(i % 97), tick)
    start = time.perf_counter()
    kernel.run()
    elapsed = time.perf_counter() - start
    assert counter[0] == n_events
    return n_events / elapsed


def generate():
    params = PAPER_BASELINE.with_mttf(MTTF)

    # Warmup: one engine run per path so import/bytecode costs are paid
    # before any timer starts (see bench_engine_scalability.warmup).
    run_engine_once(TECHNIQUE, params, seed=params.seed)
    sampler = EngineSampler(TECHNIQUE, params)
    sampler.run(params.seed)
    _kernel_events_per_sec(10_000)

    naive_times, naive_s = _time_naive(params, RUNS)
    seq_times, seq_s = _time_engine_samples(params, RUNS, jobs=1)

    # Cold parallel: force a fresh pool so the row includes worker spin-up
    # and per-worker sampler construction; warm parallel reuses both.
    shutdown_pool()
    par_cold_times, par_cold_s = _time_engine_samples(params, RUNS, jobs=JOBS)
    par_warm_times, par_warm_s = _time_engine_samples(params, RUNS, jobs=JOBS)

    with tempfile.TemporaryDirectory(prefix="repro-mc-cache-") as tmp:
        cache = SampleCache(tmp)
        cache_cold_times, cache_cold_s = _time_engine_samples(
            params, RUNS, jobs=1, cache=cache
        )
        cache_warm_times, cache_warm_s = _time_engine_samples(
            params, RUNS, jobs=1, cache=cache
        )

    bit_identical = bool(
        np.array_equal(naive_times, seq_times)
        and np.array_equal(seq_times, par_cold_times)
        and np.array_equal(seq_times, par_warm_times)
        and np.array_equal(seq_times, cache_cold_times)
        and np.array_equal(seq_times, cache_warm_times)
    )

    # Engine-layer event throughput: events processed by the kernel during
    # a timed sequential sampling pass (reset-reused grid + engine).
    timed_sampler = EngineSampler(TECHNIQUE, params)
    start = time.perf_counter()
    for i in range(RUNS):
        timed_sampler.run(params.seed + 7919 * i)
    engine_elapsed = time.perf_counter() - start
    engine_events_per_sec = timed_sampler.events_processed / engine_elapsed

    overhead = _metrics_overhead(params, RUNS)

    return {
        **overhead,
        "technique": TECHNIQUE,
        "mttf": MTTF,
        "runs": RUNS,
        "jobs": JOBS,
        "cpu_count": os.cpu_count(),
        "bit_identical": bit_identical,
        "sequential_naive_runs_per_sec": RUNS / naive_s,
        "sequential_runs_per_sec": RUNS / seq_s,
        "parallel_cold_runs_per_sec": RUNS / par_cold_s,
        "parallel_runs_per_sec": RUNS / par_warm_s,
        "cache_cold_runs_per_sec": RUNS / cache_cold_s,
        "cache_warm_runs_per_sec": RUNS / cache_warm_s,
        "speedup_sequential_vs_naive": naive_s / seq_s,
        "speedup_parallel_vs_naive": naive_s / par_warm_s,
        "speedup_parallel_vs_sequential": seq_s / par_warm_s,
        "speedup_parallel_warm_vs_cold": par_cold_s / par_warm_s,
        "speedup_cache_warm_vs_cold": cache_cold_s / cache_warm_s,
        "kernel_events_per_sec": _kernel_events_per_sec(KERNEL_EVENTS),
        "engine_events_per_sec": engine_events_per_sec,
        "engine_events_per_run": timed_sampler.events_processed / RUNS,
    }


def test_engine_mc_throughput(benchmark):
    payload = once(benchmark, generate)
    lines = [
        f"engine-level Monte-Carlo, {TECHNIQUE} @ MTTF={MTTF:g}, "
        f"{payload['runs']} runs, {payload['cpu_count']} cores:",
        f"  naive (rebuild per run)   {payload['sequential_naive_runs_per_sec']:8.0f} runs/s",
        f"  sequential (reset reuse)  {payload['sequential_runs_per_sec']:8.0f} runs/s"
        f"  ({payload['speedup_sequential_vs_naive']:.2f}x vs naive)",
        f"  parallel cold (jobs={payload['jobs']})    "
        f"{payload['parallel_cold_runs_per_sec']:8.0f} runs/s  (pool spin-up)",
        f"  parallel warm (jobs={payload['jobs']})    "
        f"{payload['parallel_runs_per_sec']:8.0f} runs/s"
        f"  ({payload['speedup_parallel_vs_sequential']:.2f}x vs sequential)",
        f"  cache cold (compute+store) {payload['cache_cold_runs_per_sec']:7.0f} runs/s",
        f"  cache warm (load)         {payload['cache_warm_runs_per_sec']:8.0f} runs/s"
        f"  ({payload['speedup_cache_warm_vs_cold']:.0f}x vs cold)",
        f"  bit-identical outputs: {payload['bit_identical']}",
        f"  metrics overhead (seq)    "
        f"enabled {payload['metrics_enabled_overhead']:+.2%}",
        f"  kernel event throughput   {payload['kernel_events_per_sec']:8.0f} events/s",
        f"  engine event throughput   {payload['engine_events_per_sec']:8.0f} events/s"
        f"  ({payload['engine_events_per_run']:.0f} events/run)",
    ]
    emit_results(
        "engine_mc", "\n".join(lines), json_payload=payload, json_name="BENCH_engine_mc"
    )

    # Correctness is unconditional: every execution mode must agree bit
    # for bit, or the amortized layer is broken.
    assert payload["bit_identical"]
    # The reset-reused sampler must not be slower than rebuilding the grid
    # every run (generous margin for shared-box timer noise).
    assert payload["speedup_sequential_vs_naive"] > 0.8, payload
    # Warm-cache regeneration is a disk read; it must trounce recomputation
    # on any hardware.
    assert payload["speedup_cache_warm_vs_cold"] >= CACHE_SPEEDUP_FLOOR, payload
    # Parallel wall-clock gains need the cores to exist; with them, four
    # pooled workers on an embarrassingly parallel loop must clear the
    # perf-smoke floor.
    if (payload["cpu_count"] or 1) >= JOBS:
        assert (
            payload["speedup_parallel_vs_sequential"] > PARALLEL_SPEEDUP_FLOOR
        ), payload
