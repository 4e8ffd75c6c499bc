"""Exact costs per unit of work, one row per ledger workload shape.

Wall clock on a shared box swings by more than most changes move it;
call counts, summary counts and allocation peaks repeat to the unit.  Each
row drives a ledger workload's shape at a reduced size, built from the
library alone (the ledger under ``benchmarks/`` is not imported), and
gates every figure by equality or by a declared ceiling of the recorded
figure + 5%.  A change that lowers a figure lowers its pin in the same
diff; one that raises it says why.

Rows so far: ``mc_sweep``, ``mc_engine``'s seed sequences,
``dag_layered``'s parse of its WPDL text, and the writing of that text and
of an engine checkpoint.
"""

from __future__ import annotations

import cProfile
import dataclasses
import gc
import hashlib
import pstats
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import repro.engine.checkpoint as checkpoint
import repro.sim.adaptive as adaptive
from repro.engine import EngineCheckpointer, WorkflowEngine
from repro.grid import RELIABLE, FixedDurationTask, GridConfig, SimulatedGrid
from repro.grid.random import RandomStreams
from repro.sim import (
    CITarget,
    EngineSampler,
    estimate_cells,
    sample_technique,
    sweep_mttf,
)
from repro.core.policy import FailurePolicy
from repro.sim.params import PAPER_BASELINE, PAPER_DOWNTIMES, PAPER_MTTF_SWEEP
from repro.sim.samplers import _EXCEPTION_TECHNIQUES, EXTENDED_TECHNIQUES
from repro.workloads import layered_dag
from repro.wpdl import WorkflowBuilder, parse_wpdl, serialize_wpdl

# -- mc_sweep: a fixed-budget sweep, then CI-targeted antithetic batches ------

#: The ledger's panel (D = F, every other MTTF point, its seed) with a
#: tenth of its fixed budget and a looser, lower-capped CI target.
MC_PANEL = dataclasses.replace(
    PAPER_BASELINE, downtime=PAPER_DOWNTIMES[1], seed=20030623
)
MC_MTTFS = tuple(float(m) for m in PAPER_MTTF_SWEEP[::2])
MC_RUNS = 4000
MC_TARGET = CITarget(rel=0.02, min_runs=500, max_runs=32000)
MC_CELLS = [(t, MC_PANEL.with_mttf(m)) for t in EXTENDED_TECHNIQUES for m in MC_MTTFS]

#: Batches drawn by the CI-targeted cells, summed over cells: the number
#: of stopping-rule evaluations.
MC_ROUNDS = 116

#: Python calls per ``_mc_sweep()`` by ``repro`` module (cProfile, CPython
#: 3.11; 3.12 inlines comprehensions and counts fewer), each gated at the
#: figure + 5%.  Recorded before the stopping rule read only the CI:
#: adaptive 36 524, stats 398.  Recorded before a stopping cell's summary
#: reused the stopping rule's interval: adaptive 36 680, stats 291.
#: Samplers was 5 741 before the K-wide kernels drew in row blocks: each
#: block is one resumption of ``_row_blocks``, which cProfile counts as a
#: call.
MC_CALLS = {
    "repro.core.policy": 5064,
    "repro.sim.adaptive": 36514,
    "repro.sim.cache": 2,
    "repro.sim.parallel": 163,
    "repro.sim.params": 241,
    "repro.sim.runner": 108,
    "repro.sim.samplers": 5971,
    "repro.sim.stats": 266,
}

#: tracemalloc peak bytes per run of one ``sample_technique`` call
#: (MTTF 10, D = F, ``PEAK_RUNS`` runs; Figure 13's kernels at
#: ``FIGURE13``).  Recorded before each draw was written once: retrying
#: 47.85, replication 143.55, checkpointing 305.53.  Recorded before the
#: K-wide kernels drew in row blocks: checkpointing 168.09,
#: replication_checkpointing 504.09, exception_retrying 187.41,
#: exception_checkpointing 320.10, alternative_task 180.06.
PEAK_RUNS = 20_000
PEAK_BYTES_PER_RUN = {
    "retrying": 39.85,
    "replication": 119.54,
    "checkpointing": 56.83,
    "replication_checkpointing": 156.78,
    "exception_retrying": 32.83,
    "exception_checkpointing": 27.81,
    "alternative_task": 18.74,
}
#: The kernels that draw K values per run.
K_WIDE = (
    "checkpointing",
    "replication_checkpointing",
    "exception_retrying",
    "exception_checkpointing",
    "alternative_task",
)
FIGURE13 = dataclasses.replace(
    PAPER_BASELINE, exception_probability=0.05, seed=20030623
)


def _mc_sweep() -> None:
    sweep_mttf(MC_PANEL, MC_MTTFS, EXTENDED_TECHNIQUES, runs=MC_RUNS, jobs=1)
    sweep_mttf(
        MC_PANEL,
        MC_MTTFS,
        EXTENDED_TECHNIQUES,
        target_ci=MC_TARGET,
        variance_reduction="antithetic",
        jobs=1,
    )


def _calls_by_module(fn, stats: dict | None = None) -> dict[str, int]:
    """Calls into each ``repro`` module while *fn* runs; *stats*, if given,
    receives cProfile's whole table (builtins and the standard library)."""
    profile = cProfile.Profile()
    profile.runcall(fn)
    table = pstats.Stats(profile).stats
    if stats is not None:
        stats.update(table)
    calls: Counter[str] = Counter()
    for (filename, _, _), (_, ncalls, *_) in table.items():
        _, sep, tail = filename.rpartition("/repro/")
        if sep:
            calls["repro." + tail.removesuffix(".py").replace("/", ".")] += ncalls
    return dict(calls)


class TestMcSweep:
    def test_summarize_once_per_cell(self, monkeypatch):
        """The stopping rule reads the mean and CI only: a full summary
        (percentiles, ESS) is built once, for the cell that stops — not
        once per round as before (``MC_ROUNDS`` of them)."""
        calls = []
        summarize = adaptive.summarize

        def counting(*args, **kwargs):
            calls.append(1)
            return summarize(*args, **kwargs)

        monkeypatch.setattr(adaptive, "summarize", counting)
        estimates = estimate_cells(
            MC_CELLS, target=MC_TARGET, variance_reduction="antithetic", jobs=1
        )
        assert sum(len(e.boundaries) for e in estimates) == MC_ROUNDS
        assert len(calls) == len(MC_CELLS)

    def test_python_calls_by_module(self):
        _mc_sweep()  # anything done once per process is done
        calls = _calls_by_module(_mc_sweep)
        assert set(calls) == set(MC_CALLS)
        for module, count in calls.items():
            assert count <= MC_CALLS[module] * 1.05, module

    @pytest.mark.parametrize("technique", sorted(PEAK_BYTES_PER_RUN))
    def test_peak_bytes_per_run(self, technique):
        ceiling = PEAK_BYTES_PER_RUN[technique] * 1.05
        assert _peak_bytes_per_run(technique) <= ceiling

    @pytest.mark.parametrize("technique", K_WIDE)
    def test_peak_does_not_grow_with_k(self, technique):
        """A kernel holds O(runs) values plus what it draws, never a
        (runs, K) matrix: doubling K does not raise its peak."""
        k20 = _peak_bytes_per_run(technique, checkpoints=20)
        k40 = _peak_bytes_per_run(technique, checkpoints=40)
        assert k40 <= k20 * 1.05


def _peak_bytes_per_run(technique: str, **changes) -> float:
    if technique in _EXCEPTION_TECHNIQUES:
        params = FIGURE13
    else:
        params = MC_PANEL.with_mttf(10.0)
    params = dataclasses.replace(params.with_runs(PEAK_RUNS), **changes)
    sample_technique(technique, params)
    tracemalloc.start()
    try:
        held, _ = tracemalloc.get_traced_memory()
        sample_technique(technique, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - held) / PEAK_RUNS


# -- mc_engine: sequential EngineSampler runs ----------------------------------


class TestMcEngine:
    @pytest.mark.parametrize("technique", EXTENDED_TECHNIQUES)
    @pytest.mark.parametrize("mttf", [10.0, 100.0])
    def test_one_seed_sequence_per_stream_opened(self, technique, mttf, monkeypatch):
        """A run builds a ``SeedSequence`` for each stream it opens and
        none besides: a reseed builds none.  The run's reseed empties the
        factory, so every name it asks for opens one stream."""
        sampler = EngineSampler(technique, MC_PANEL.with_mttf(mttf))
        sampler.run(1)
        built, opened = [], set()
        seed_sequence, get = np.random.SeedSequence, RandomStreams.get

        def counting(*args, **kwargs):
            built.append(1)
            return seed_sequence(*args, **kwargs)

        def opening(streams, name):
            opened.add(name)
            return get(streams, name)

        monkeypatch.setattr(np.random, "SeedSequence", counting)
        monkeypatch.setattr(RandomStreams, "get", opening)
        sampler.run(2)
        assert opened
        assert len(built) == len(opened)


# -- dag_layered: the 60x60 DAG's WPDL text, parsed ---------------------------

#: Python calls per ``parse_wpdl(text, validate_graph=False)`` of the
#: ledger's 60x60 DAG (seed 20030623) by ``repro`` module (cProfile, CPython
#: 3.11), each gated at the figure + 5%.  Recorded before the parser and
#: the lint were one grammar walk: parser 55 363, schema 2.  The walk's
#: start and end handlers (one call each per element) moved to the schema,
#: where the grammar is; the reader's calls per element went from 3.7 to
#: 1.7, and the sum did not move.
DAG_PARSE_CALLS = {
    "repro.core.policy": 2,
    "repro.wpdl.model": 6,
    "repro.wpdl.parser": 25674,
    "repro.wpdl.schema": 29696,
}
#: The same sum before the walk: no more calls per parse, in whichever module.
DAG_PARSE_CALLS_BEFORE = 55373
#: Young collections per parse after ``gc.collect()``: 17 on CPython 3.11
#: (15 on 3.12), plus 5% rounded up.  The count sits at a collection's edge
#: (17 or 18 by what ran before, before the walk too).
DAG_PARSE_YOUNG_COLLECTIONS = 18


@pytest.fixture(scope="module")
def dag_text() -> str:
    spec, _ = layered_dag(
        60, 60, hosts=4, seed=20030623, policy=FailurePolicy.retrying(3)
    )
    return serialize_wpdl(spec)


class TestDagLayered:
    def test_python_calls_by_module(self, dag_text):
        parse_wpdl(dag_text, validate_graph=False)  # imports are done
        calls = _calls_by_module(lambda: parse_wpdl(dag_text, validate_graph=False))
        assert set(calls) == set(DAG_PARSE_CALLS)
        for module, count in calls.items():
            assert count <= DAG_PARSE_CALLS[module] * 1.05, module
        assert sum(calls.values()) <= DAG_PARSE_CALLS_BEFORE * 1.05

    def test_young_collections_per_parse(self, dag_text):
        gc.collect()
        before = gc.get_stats()[0]["collections"]
        parse_wpdl(dag_text, validate_graph=False)
        young = gc.get_stats()[0]["collections"] - before
        assert young <= DAG_PARSE_YOUNG_COLLECTIONS, young


# -- dag_layered's WPDL text, written; an engine checkpoint, written ----------

#: Python calls per ``serialize_wpdl`` of the ledger's 60x60 DAG (pretty, as
#: the ledger writes it) by ``repro`` module, and every call cProfile
#: counts, builtins and the standard library included, each gated at the
#: figure + 5% (CPython 3.11).  Recorded while the writer built an element
#: tree and wrote that: serializer 63 419, every call 394 897 (``saxutils``
#: 52 168 of them).
WPDL_WRITE_CALLS = {"repro.wpdl.serializer": 14427}
WPDL_WRITE_EVERY_CALL = 47297

#: Each checkpointed run: its saves, and SHA-256 over every file it wrote,
#: in save order, recorded while each save built the specification's
#: element tree and wrote the whole file with ``ET.tostring``.  ``dag10``
#: is the 10x10 DAG on reliable hosts; ``markup`` a two-task chain whose
#: name, variable, description, result and workflow id hold markup,
#: quotes and whitespace.
CHECKPOINT_FILES = {
    "dag10": (102, "bfe92340d93491ef449ca65383a7124a5b0851da3fe220332023349709161287"),
    "markup": (2, "1bcc90eaf5ecf60927b44d09c5909412b98a6b470e5e554dd41a41f318e32ae6"),
}


def _dag(size: int):
    return layered_dag(
        size, size, hosts=4, seed=20030623, policy=FailurePolicy.retrying(3)
    )


def _markup_chain():
    spec = (
        WorkflowBuilder('ck<&>"\n\t')
        .variable("note", '<a & "b">\t\r\n')
        .program("p", hosts=["h1"])
        .activity("a", implement="p", outputs=["x"], description='d <&> "q"')
        .activity("b", implement="p")
        .transition("a", "b")
        .build()
    )

    def setup(grid):
        grid.add_host(RELIABLE("h1"))
        grid.install("h1", "p", FixedDurationTask(5.0, result='r<&>"'))
        return grid

    return spec, setup


def _checkpointed(spec, setup, path, *, workflow_id="") -> tuple[int, str]:
    """Run *spec* with a checkpointer at *path*: its saves, and SHA-256 over
    every file it wrote."""
    ckpt = EngineCheckpointer(path)
    save, digest = ckpt.save, hashlib.sha256()

    def saving(*args, **kwargs):
        save(*args, **kwargs)
        digest.update(path.read_bytes())

    ckpt.save = saving
    config = GridConfig(crash_detection="prompt", heartbeats=True)
    grid = setup(SimulatedGrid(seed=1, config=config))
    engine = WorkflowEngine(
        spec, grid, reactor=grid.reactor, checkpointer=ckpt, workflow_id=workflow_id
    )
    assert engine.run(timeout=1e9).succeeded
    return ckpt.saves, digest.hexdigest()


class TestWpdlWrite:
    def test_python_calls_by_module(self):
        spec, _ = _dag(60)
        serialize_wpdl(spec)  # imports are done
        stats: dict = {}
        calls = _calls_by_module(lambda: serialize_wpdl(spec), stats)
        assert set(calls) == set(WPDL_WRITE_CALLS)
        for module, count in calls.items():
            assert count <= WPDL_WRITE_CALLS[module] * 1.05, module
        every = sum(ncalls for _, ncalls, *_ in stats.values())
        assert every <= WPDL_WRITE_EVERY_CALL * 1.05, every

    @pytest.mark.parametrize("size, saves", [(10, 102), (20, 402)])
    def test_the_spec_is_rendered_once(self, size, saves, tmp_path, monkeypatch):
        """Under the immutability contract a workflow renders the same text
        at every save, so a checkpointer renders it at the first (it was
        rendered at every save: 102 and 402 times)."""
        renders = []
        render = checkpoint.serialize_wpdl

        def counting(*args, **kwargs):
            renders.append(1)
            return render(*args, **kwargs)

        monkeypatch.setattr(checkpoint, "serialize_wpdl", counting)
        assert _checkpointed(*_dag(size), tmp_path / "e.ckpt")[0] == saves
        assert len(renders) == 1

    @pytest.mark.contract
    @pytest.mark.parametrize("name", sorted(CHECKPOINT_FILES))
    def test_every_checkpoint_file_as_the_tree_wrote_it(self, name, tmp_path):
        spec, setup = _dag(10) if name == "dag10" else _markup_chain()
        workflow_id = "" if name == "dag10" else 'id<&>"\n1'
        path = tmp_path / "e.ckpt"
        got = _checkpointed(spec, setup, path, workflow_id=workflow_id)
        assert got == CHECKPOINT_FILES[name]
