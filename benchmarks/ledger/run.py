#!/usr/bin/env python3
"""The repository's benchmark: a layered performance ledger.

One workload, the way the benchmark driver calls it::

    python3 benchmarks/ledger/run.py --workload mux_chain --seed 7 \\
        --seconds 14 --trace 0

prints every metric by name with its unit and ends with one JSON line
(``correct``/``attempted``/``failed``/``metrics``).  ``--trace 0`` reports
the end-to-end metrics from untraced repetitions; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics.

All six workloads, each in a fresh subprocess, into one ledger file::

    python3 benchmarks/ledger/run.py [--seed S] [--runs K] [--traced] \\
        [--out A.json]

and the two-sets-agree check::

    python3 benchmarks/ledger/run.py --compare A.json B.json [--force]

See README.md next to this file for what each name means.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

#: ``setup_s`` is the median of a run's set-ups: at least MIN_SETUPS, and
#: as many more (up to MAX_SETUPS) as fit in SETUP_SECONDS — a 30 ms set-up
#: needs more samples than a 300 ms one to read as steadily.
MIN_SETUPS = 5
MAX_SETUPS = 25
SETUP_SECONDS = 1.5
#: Fewest measured repetitions, whatever ``--seconds`` says.
MIN_REPS = 3
#: Fewest untraced/traced pairs in a traced run.
MIN_TRACED_ROUNDS = 2
DETAIL_PREFIX = "ledger-detail: "


def _bootstrap() -> None:
    """Import the program from *this* checkout's source tree, or refuse."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no program to measure: {SRC / 'repro'} is missing")
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if not str(Path(repro.__file__).resolve()).startswith(str(SRC)):
        sys.exit(f"run.py: imported repro from {repro.__file__}, not {SRC}")


# -- one workload -------------------------------------------------------------


def _check_outputs(program, reps, workload: str, seed: int, update_golden: bool):
    """Problems with the run's outputs, and the run's checksum (variant 0's:
    the one golden files hold)."""
    import ledger

    problems = []
    by_variant: dict[int, set[str]] = {}
    for rep in reps:
        by_variant.setdefault(rep.variant, set()).add(rep.checksum)
    if any(len(checksums) > 1 for checksums in by_variant.values()):
        problems.append("repetitions of the same inputs gave different results")
    checksum = reps[0].checksum
    problems += program.verify(reps)
    if update_golden:
        ledger.write_golden(workload, seed, checksum)
    golden = ledger.golden_checksum(workload, seed)
    if golden is not None and golden != checksum:
        problems.append(f"golden checksum mismatch for seed {seed}")
    return problems, checksum


def run_untraced(workload: str, seed: int, seconds: float, update_golden: bool):
    """End-to-end metrics.  Every timed interval sits between two yardstick
    passes and is reported in reference seconds (see yardstick.py)."""
    from inputs import make_inputs
    from program import build
    from yardstick import YARDSTICKS

    import_s = time.perf_counter() - _PROCESS_START
    yardstick = None
    setups, raw_setups = [], []
    setup_deadline = time.perf_counter() + SETUP_SECONDS
    while len(setups) < MIN_SETUPS or (
        len(setups) < MAX_SETUPS and time.perf_counter() < setup_deadline
    ):
        start = time.perf_counter()
        inputs = make_inputs(workload, seed)
        program = build(inputs)
        program.small_rep()
        wall = time.perf_counter() - start
        if yardstick is None:  # the first set-up only warms caches
            yardstick = YARDSTICKS[program.yardstick]
            yardstick.time()
            before = yardstick.time()
            continue
        gc.collect()
        after = yardstick.time()
        setups.append(yardstick.reference_seconds(wall, before, after))
        raw_setups.append(wall)
        before = after

    reps, walls = [], []
    deadline = time.perf_counter() + seconds
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        rep = program.rep(len(reps))
        gc.collect()
        after = yardstick.time()
        reps.append(rep)
        walls.append(yardstick.reference_seconds(rep.wall, before, after))
        before = after
    raw_wall = statistics.median(r.wall for r in reps)
    # Variant 0 once more, untimed: the same inputs must give the same results.
    reps.append(program.rep(0))
    problems, checksum = _check_outputs(program, reps, workload, seed, update_golden)

    wall = statistics.median(walls)
    metrics = {
        "work_per_s": (reps[0].work / wall, "1/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
        "setup_s": (statistics.median(setups), "s"),
    }
    extra = program.throughputs(reps, raw_wall)
    extra["raw_work_per_s"] = reps[0].work / raw_wall
    extra["raw_rep_ms"] = raw_wall * 1e3
    extra["raw_setup_s"] = statistics.median(raw_setups)
    extra["machine_slowdown"] = raw_wall / wall  # > 1: slower than the reference
    extra["import_s"] = import_s
    if "sim.model_rel_err_max" in reps[0].counts:
        extra["model_rel_err_max"] = reps[0].counts["sim.model_rel_err_max"]
    attempted = sum(r.work for r in reps) + 1
    failed = sum(r.failed for r in reps) + len(problems)
    extra["failed_share"] = failed / attempted
    return {
        "reps": len(walls),
        "metrics": metrics,
        "extra": extra,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "checksum": checksum,
        "counts": reps[0].counts,
    }


def run_traced(workload: str, seed: int, seconds: float, update_golden: bool):
    """Per-layer metrics: raw seconds of this run, exact counts."""
    import ledger
    import tracing
    from inputs import make_inputs
    from layers import PerLayer
    from program import OUT_DIR, build

    import_s = time.perf_counter() - _PROCESS_START
    start = time.perf_counter()
    inputs = make_inputs(workload, seed)
    input_s = time.perf_counter() - start
    plain = build(inputs)
    small = plain.small_rep()
    tracer = tracing.SpanTracer()
    inner, outer = tracer.calibrate()
    traced = build(inputs, tracer)
    with traced.patches():
        traced.small_rep()  # warm the wrapped paths; instruments reused engines

    observed = inputs.get("observe", False)
    plain_reps, bare_reps, traced_reps, self_times, traced_walls = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced_reps) < MIN_TRACED_ROUNDS or time.perf_counter() < deadline:
        if observed:
            gc.collect()
            bare_reps.append(plain.bare_rep())
        gc.collect()
        plain_reps.append(plain.rep())
        gc.collect()
        tracer.clear()
        traced.trace_counts.clear()
        with traced.patches() as missing:
            traced_reps.append(tracer.wrap(tracing.ROOT, traced.rep)())
        rows = tracer.rows()
        self_times.append(tracing.self_times(rows, inner, outer))
        traced_walls.append(tracer.duration(0))
    missing = sorted(set(missing + traced.missing_seams))
    boundary = dict(traced.trace_counts)

    problems, checksum = _check_outputs(plain, plain_reps, workload, seed, update_golden)
    if {r.checksum for r in traced_reps} != {checksum}:
        problems.append("traced results differ from the untraced run")

    wall = statistics.median(r.wall for r in plain_reps)
    counts = {**plain_reps[-1].counts, **traced_reps[-1].counts}
    layers = PerLayer(ledger.load_spec())
    layers.put_known(counts)
    layers.self_times(self_times, traced_walls)
    layers.counts(tracing.span_counts(rows), boundary)
    layers.put_known(plain.throughputs(plain_reps, wall))
    layers.put_known(plain.setup_metrics(input_s))
    layers.put("events.per_s", layers.values["events.publishes"] / wall)
    layers.put(
        "grid.simkernel.events_per_s", counts.get("grid.simkernel.events", 0) / wall
    )
    if observed:
        bare = statistics.median(r.wall for r in bare_reps)
        layers.put("obs.overhead_ratio", wall / bare)
        layers.put("obs.rep_drift_ratio", plain_reps[-1].wall / plain_reps[0].wall)
    layers.put("trace.overhead_ratio", statistics.median(traced_walls) / wall)
    layers.put("trace.missing_seams", len(missing))
    layers.put("model_rel_err_max", counts.get("sim.model_rel_err_max", 0.0))
    layers.put("scale.small_work_per_s", small.work / small.wall)
    layers.put("setup.import_s", import_s)
    attempted = sum(r.work for r in plain_reps + traced_reps) + 1
    failed = sum(r.failed for r in plain_reps + traced_reps) + len(problems)
    layers.put("failed_share", failed / attempted)

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"trace_{workload}.json").write_text(
        json.dumps(
            {
                "workload": workload,
                "seed": seed,
                "span_fields": ["name", "start", "end", "parent"],
                "spans": rows,
                "counts": {**counts, **boundary},
                "missing_seams": missing,
            }
        )
    )
    return {
        "reps": len(traced_reps),
        "metrics": layers.metrics(),
        "extra": {},
        "attempted": attempted,
        "failed": failed,
        "problems": problems + [f"seam gone: {name}" for name in missing],
        "checksum": checksum,
        "counts": {**counts, **boundary},
    }


def run_one(args) -> int:
    import ledger
    from inputs import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; one of {list(WORKLOADS)}")
    fingerprint = ledger.machine_fingerprint()
    runner = run_traced if args.trace else run_untraced
    out = runner(args.workload, args.seed, args.seconds, args.update_golden)

    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"{out['reps']} repetitions (medians over repetitions)"
    )
    for name, (value, unit) in out["metrics"].items():
        print(f"  {name:<34} {value:>16.6g} {unit}")
    for name, value in out["extra"].items():
        print(f"  {name:<34} {value:>16.6g}  (see README)")
    for problem in out["problems"]:
        print(f"  PROBLEM: {problem}")
    detail = {
        key: out[key] for key in ("reps", "checksum", "counts", "extra", "problems")
    }
    detail.update(
        workload=args.workload, seed=args.seed, trace=args.trace, fingerprint=fingerprint
    )
    print(DETAIL_PREFIX + json.dumps(detail))
    correct = not out["problems"] and out["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in out["metrics"].items()
                },
            }
        )
    )
    return 0 if correct else 1


# -- all workloads, one fresh process each ------------------------------------


def _child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith(DETAIL_PREFIX):
        sys.stderr.write(done.stdout + done.stderr)
        sys.exit(f"run.py: {workload} exited with {done.returncode} and no result")
    return {**json.loads(lines[-2][len(DETAIL_PREFIX):]), **json.loads(lines[-1])}


def run_ledger(args) -> int:
    import ledger
    from inputs import WORKLOADS

    spec = ledger.load_spec()
    seconds = args.seconds or spec["run_seconds"]
    book = {
        "schema": 1,
        "claim": None,
        "fingerprint": ledger.machine_fingerprint(),
        "run_seconds": seconds,
        "workloads": {},
    }
    wrong = 0
    for workload in WORKLOADS:
        runs = [_child(workload, args.seed + i, seconds, 0) for i in range(args.runs)]
        entry = book["workloads"][workload] = {"runs": runs}
        if args.traced:
            entry["traced"] = _child(workload, args.seed, seconds, 1)
        wrong += sum(not run["correct"] for run in runs + [entry.get("traced", runs[0])])
        print(f"{workload}:")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, q2, q3 = ledger.quartiles(values)
            print(
                f"  {metric['name']:<34} {q2:>14.6g} {metric['unit']:<5} "
                f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"
            )
        for name, value in runs[-1]["extra"].items():
            print(f"  {name:<34} {value:>14.6g}")
        for name, metric in entry.get("traced", {}).get("metrics", {}).items():
            if metric["value"]:
                print(f"    {name:<32} {metric['value']:>14.6g} {metric['unit']}")
    out = Path(args.out) if args.out else HERE / "out" / "ledger.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(book, indent=1) + "\n")
    print(f"ledger written to {out}; claim: null")
    return 1 if wrong else 0


def run_compare(args) -> int:
    import ledger

    a, b = (json.loads(Path(p).read_text()) for p in args.compare)
    differing = ledger.comparable(a["fingerprint"], b["fingerprint"])
    if differing and not args.force:
        sys.exit(
            f"run.py: ledgers come from different machines ({', '.join(differing)} "
            "differ); timings are not comparable (--force to compare anyway)"
        )
    rows, clean = ledger.compare(a, b, ledger.load_spec())
    print("\n".join(rows))
    mismatched = ledger.exact_mismatches(a, b)
    for workload in mismatched:
        print(f"{workload}: checksums differ between the ledgers at the same seed")
    return 0 if clean and not mismatched else 1


def main(argv=None) -> int:
    import ledger
    from inputs import DEFAULT_SEED

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload in-process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="ledger mode: add one traced run per workload")
    parser.add_argument("--runs", type=int, default=1,
                        help="ledger mode: untraced runs per workload (seed, seed+1, …)")
    parser.add_argument("--out", help="ledger mode: output file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--force", action="store_true",
                        help="compare ledgers from different machines")
    parser.add_argument("--update-golden", action="store_true",
                        help="record this run's checksum as golden for its seed")
    args = parser.parse_args(argv)
    if args.compare:
        return run_compare(args)
    if args.workload:
        args.seconds = args.seconds or float(ledger.load_spec()["run_seconds"])
        return run_one(args)
    return run_ledger(args)


if __name__ == "__main__":
    _bootstrap()
    sys.exit(main())
