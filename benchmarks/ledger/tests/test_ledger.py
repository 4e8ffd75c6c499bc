"""Self-tests of the ledger harness (not of the program it measures)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ledger
import tracing
from inputs import WORKLOADS, make_inputs
from program import build

LEDGER = Path(__file__).resolve().parents[1]
ROOT = LEDGER.parents[1]
RUN = [sys.executable, str(LEDGER / "run.py")]


class FakeClock:
    """Each read returns the next scripted instant."""

    def __init__(self, instants):
        self._instants = iter(instants)

    def __call__(self) -> float:
        return next(self._instants)


# -- span arithmetic ----------------------------------------------------------


def test_self_time_is_duration_minus_direct_children():
    #   root   0 ────────────────────────── 10
    #     a      1 ─────────── 6
    #       b      2 ── 4
    #     a          7 ── 9
    rows = [
        ["root|r", 0.0, 10.0, -1],
        ["x|a", 1.0, 6.0, 0],
        ["y|b", 2.0, 4.0, 1],
        ["x|a", 7.0, 9.0, 0],
    ]
    times = tracing.self_times(rows)
    assert times == {"root|r": 3.0, "x|a": 5.0, "y|b": 2.0}
    # Exclusive times partition the root's duration exactly.
    assert sum(times.values()) == 10.0
    assert tracing.span_counts(rows) == {"root|r": 1, "x|a": 2, "y|b": 1}


def test_self_time_gives_back_the_tracers_own_cost():
    rows = [["root|r", 0.0, 10.0, -1], ["x|a", 1.0, 6.0, 0], ["x|a", 7.0, 9.0, 0]]
    times = tracing.self_times(rows, inner=0.5, outer=0.25)
    assert times["x|a"] == 7.0 - 2 * 0.5
    assert times["root|r"] == 3.0 - 2 * 0.25 - 0.5


def test_tracer_records_nesting_and_parents():
    tracer = tracing.SpanTracer(clock=FakeClock([0, 1, 2, 3, 4, 5]))
    inner = tracer.wrap("b|inner", lambda: "result")
    outer = tracer.wrap("a|outer", lambda: inner())
    assert tracer.wrap(tracing.ROOT, outer)() == "result"
    assert tracer.rows() == [
        [tracing.ROOT, 0, 5, -1],
        ["a|outer", 1, 4, 0],
        ["b|inner", 2, 3, 1],
    ]
    assert tracer.current == -1


def test_span_closes_when_the_wrapped_call_raises():
    tracer = tracing.SpanTracer(clock=FakeClock([0, 1]))

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("a|boom", boom)()
    assert tracer.rows() == [["a|boom", 0, 1, -1]]
    assert tracer.current == -1


def test_layers_come_from_the_defining_module():
    from repro.detection import FailureDetector
    from repro.engine.strategies import resolve_strategy
    from repro.grid.host import Host

    assert tracing.layer_of(FailureDetector.deliver) == "detection"
    assert tracing.layer_of(Host.crash) == "grid.host"
    assert tracing.layer_of(resolve_strategy) == "engine.recovery"
    assert tracing.layer_of(lambda: None) == "harness"


def test_missing_seams_are_reported_not_raised():
    class Thing:
        def kept(self):
            return 1

    thing = Thing()
    tracer = tracing.SpanTracer()
    assert tracing.wrap_methods(tracer, thing, "x", ("kept", "renamed")) == [
        "Thing.renamed"
    ]
    assert thing.kept() == 1 and len(tracer) == 1


# -- the wrappers must not change what the program computes --------------------


@pytest.mark.parametrize("workload", ["mux_faulty", "mux_faulty_observed", "mc_engine"])
def test_traced_results_are_bit_identical(workload):
    inputs = make_inputs(workload, 11)
    plain = build(inputs).small_rep()
    tracer = tracing.SpanTracer()
    traced_program = build(inputs, tracer)
    with traced_program.patches() as missing:
        traced = traced_program.small_rep()
    assert traced.checksum == plain.checksum
    assert traced.failed == plain.failed == 0
    assert len(tracer) > 0
    assert missing == [] and traced_program.missing_seams == []


def test_observers_do_not_perturb_the_simulation():
    bare = build(make_inputs("mux_faulty", 5)).small_rep()
    observed = build(make_inputs("mux_faulty_observed", 5)).small_rep()
    assert bare.checksum == observed.checksum
    assert "obs.recorder.calls" in observed.counts
    assert not any(name.startswith("obs.") for name in bare.counts)


def test_repetition_variants_draw_from_the_seeds_pool():
    program = build(make_inputs("mux_faulty", 5))
    first, again, other = program.rep(0), program.rep(0), program.rep(1)
    assert first.checksum == again.checksum != other.checksum
    assert (first.variant, other.variant) == (0, 1)
    sampler = build(make_inputs("mc_engine", 5))
    assert not set(sampler._seeds(0)) & set(sampler._seeds(1))
    assert sampler._seeds(0) == build(make_inputs("mc_engine", 5))._seeds(0)


def test_inputs_depend_on_the_seed_only():
    for workload in WORKLOADS:
        assert make_inputs(workload, 3) == make_inputs(workload, 3)
    assert make_inputs("mux_faulty", 3) != make_inputs("mux_faulty", 4)
    a, b = make_inputs("mux_faulty", 3), make_inputs("mux_faulty_observed", 3)
    assert {k: v for k, v in a.items() if k != "observe"} == {
        k: v for k, v in b.items() if k != "observe"
    }


# -- the command and BENCHMARK.json agree ---------------------------------------


def test_catalogue_matches_benchmark_json():
    spec = ledger.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]]
        assert len(entry["why"]) <= 200
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}
    assert spec["paths"] == ["benchmarks/ledger"]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_metric_of_benchmark_json(trace, section):
    done = subprocess.run(
        RUN + ["--workload", "mux_chain", "--seed", "3", "--seconds", "0.1",
               "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in ledger.load_spec()[section]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    printed = {line.split()[0] for line in lines[1:-2] if line.startswith("  ")}
    assert set(expected) <= printed
    if trace:
        obs_counts = [
            n for n, m in result["metrics"].items()
            if n.startswith("obs.") and m["value"] != 0
        ]
        assert obs_counts == []
        assert result["metrics"]["trace.unattributed_share"]["value"] <= 0.10


def test_command_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        LEDGER, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "mux_chain",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# -- comparing two ledgers ------------------------------------------------------


def _book(values, nproc=2):
    spec = ledger.load_spec()

    def runs():
        return [
            {
                "seed": seed, "checksum": "c",
                "metrics": {m["name"]: {"value": v} for m in spec["end_to_end"]},
            }
            for seed, v in enumerate(values)
        ]

    return {
        "fingerprint": {"nproc": nproc},
        "workloads": {w["name"]: {"runs": runs()} for w in spec["workloads"]},
    }


def _verdicts(a, b, metric):
    rows, clean = ledger.compare(a, b, ledger.load_spec())
    return [row.split("  ")[-1].split(" ")[0] for row in rows if f" {metric} " in row], clean


def test_compare_says_ok_regressed_and_unresolved():
    steady = [100.0, 100.5, 101.0, 99.5, 100.2]
    same, clean = _verdicts(_book(steady), _book(steady), "work_per_s")
    assert set(same) == {"ok"} and clean

    slower = [v * 0.7 for v in steady]  # work_per_s: higher is better
    regressed, clean = _verdicts(_book(steady), _book(slower), "work_per_s")
    assert set(regressed) == {"regressed"} and not clean
    faster, _ = _verdicts(_book(slower), _book(steady), "work_per_s")
    assert set(faster) == {"ok"}

    noisy = [100.0, 130.0, 80.0, 120.0, 95.0]
    unresolved, clean = _verdicts(_book(steady), _book(noisy), "work_per_s")
    assert set(unresolved) == {"unresolved"} and not clean


def test_ledgers_from_different_machines_are_not_comparable():
    assert ledger.comparable({"nproc": 2}, {"nproc": 2}) == []
    assert ledger.comparable({"nproc": 2}, {"nproc": 8}) == ["nproc"]


def test_exact_mismatch_is_found_at_equal_seeds():
    a, b = _book([1.0, 2.0]), _book([1.0, 2.0])
    assert ledger.exact_mismatches(a, b) == []
    b["workloads"]["mc_sweep"]["runs"][0]["checksum"] = "different"
    assert ledger.exact_mismatches(a, b) == ["mc_sweep"]
