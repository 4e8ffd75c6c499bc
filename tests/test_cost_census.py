"""Exact costs per unit of work, one row per ledger workload shape.

Wall clock on a shared box swings by more than most changes move it;
call counts, summary counts and allocation peaks repeat to the unit.  Each
row drives a ledger workload's shape at a reduced size, built from the
library alone (the ledger under ``benchmarks/`` is not imported), and
gates every figure by equality or by a declared ceiling of the recorded
figure + 5%.  A change that lowers a figure lowers its pin in the same
diff; one that raises it says why.

Rows so far: what ``import repro`` loads, ``mc_sweep``, ``mc_engine``'s
seed sequences and its D = 0 draws, calls per task from WPDL text to result
and per attempt, ``mux_chain``'s, ``mux_faulty``'s and
``mux_faulty_observed``'s counts per workflow, ``dag_layered``'s parse of
its WPDL text, and the writing of that text and of an engine checkpoint.
"""

from __future__ import annotations

import cProfile
import dataclasses
import gc
import hashlib
import math
import pstats
import subprocess
import sys
import tracemalloc
from collections import Counter
from functools import partial

import numpy as np
import pytest

import repro.engine.checkpoint as checkpoint
import repro.sim.adaptive as adaptive
from repro.detection import FailureDetector
from repro.engine import EngineCheckpointer, EngineHost, WorkflowEngine
from repro.events import EventBus
from repro.grid import RELIABLE, FixedDurationTask, GridConfig, SimulatedGrid
from repro.grid.random import RandomStreams
from repro.gridspec import build_grid
from repro.sim import (
    CITarget,
    EngineSampler,
    estimate_cells,
    sample_technique,
    sweep_mttf,
)
from repro.core.policy import FailurePolicy
from repro.sim.params import (
    PAPER_BASELINE,
    PAPER_DOWNTIMES,
    PAPER_MTTF_SWEEP,
    SimulationParams,
)
from repro.sim.samplers import _EXCEPTION_TECHNIQUES, EXTENDED_TECHNIQUES
from repro.workloads import chain, fork_join, layered_dag
from repro.wpdl import WorkflowBuilder, parse_wpdl, serialize_wpdl
from tests.obs_plane import ObservedHost, faulty_gridspec, mosaic_variant

# -- every workload: what the package loads ----------------------------------

#: Standard-library machinery that only a served, fetched, fanned-out or
#: restored run uses: none of it is loaded by importing the package.  Each
#: was loaded before the code that uses it imported it where it runs
#: (``xml.sax.saxutils`` brought in ``urllib.request`` and with it
#: ``http.client``, ``ssl``, ``email`` and ``socket``).
NOT_AT_IMPORT = (
    "urllib.request",
    "http.client",
    "http.server",
    "ssl",
    "email",
    "socket",
    "socketserver",
    "multiprocessing",
    "concurrent.futures.process",
    "xml.sax",
    "xml.etree.ElementTree",
)


class TestImportSurface:
    def test_import_loads_no_network_pool_or_tree(self):
        """A fresh interpreter imports the package and its layers; nothing
        that serves, fetches, fans out or reads a checkpoint file loads."""
        script = (
            "import sys\n"
            "import repro, repro.obs, repro.sim, repro.engine, repro.cli\n"
            f"print(' '.join(m for m in {NOT_AT_IMPORT!r} if m in sys.modules))"
        )
        loaded = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
        assert loaded == []


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
#: The same at D = 0 (MTTF 10, ``PEAK_RUNS`` runs).  Recorded while
#: checkpointing drew every per-failure uniform before its first block
#: whether or not a downtime drew after them: checkpointing 56.81,
#: replication_checkpointing 156.77.
PEAK_BYTES_PER_RUN_D0 = {
    "retrying": 39.85,
    "checkpointing": 33.45,
    "replication": 119.55,
    "replication_checkpointing": 82.13,
    "backoff_retry": 39.87,
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

    @pytest.mark.parametrize("technique", sorted(PEAK_BYTES_PER_RUN_D0))
    def test_peak_bytes_per_run_without_downtime(self, technique):
        ceiling = PEAK_BYTES_PER_RUN_D0[technique] * 1.05
        assert _peak_bytes_per_run(technique, downtime=0.0) <= ceiling

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


#: Downtime models: none, fixed F, exponential F.
VECTOR_DOWNTIMES = {
    "0": (0.0, "exponential"),
    "F_fixed": (30.0, "fixed"),
    "F": (30.0, "exponential"),
}
#: Run counts: one run, a block less one, a block, a block and one, three
#: blocks and seven, many; and 50.
VECTOR_RUNS = (1, 50, 1023, 1024, 1025, 3079, 20000)
#: (technique, downtime, seed) → sha256 prefix over the ``VECTOR_RUNS``
#: vectors at MTTF 10, recorded while checkpointing drew every per-failure
#: uniform whole.  The kernel's clipped ``reduceat`` drops the last charge
#: of a run with two or more failures that only zero-failure runs follow:
#: checkpointing's vector ends so at 50 runs on seed 20 and at 3 079 on
#: seed 46, and at 1 025 runs on seed 50 the first block ends the failure
#: array, so the clipping is that block's.
_VECTOR_PIN_ROWS = """
retrying 0 20 6574090015484103
retrying 0 46 8451c2f2cc2ae94e
retrying 0 50 bd2281ced478aaca
retrying 0 19990803 06cab8d30797c849
retrying 0 20030623 8cd360ae9beecef7
retrying F_fixed 20 bb93868982d9245c
retrying F_fixed 46 ff5db21ec1618083
retrying F_fixed 50 b47061c3ca3dd9d4
retrying F_fixed 19990803 40f9166f2cc5efdc
retrying F_fixed 20030623 18d96b18952f41ad
retrying F 20 dd983947ca661a12
retrying F 46 c8cd9b7334347cc3
retrying F 50 479e4b224a033f1e
retrying F 19990803 b9841c3b35ea4c75
retrying F 20030623 cf39766370acd541
checkpointing 0 20 1cc532026c388c85
checkpointing 0 46 26675d70a9a6ec94
checkpointing 0 50 e88f8f9c6034de1e
checkpointing 0 19990803 c14f808ecf43f54e
checkpointing 0 20030623 7a831f58a79a9140
checkpointing F_fixed 20 19f407ba9f6a20a9
checkpointing F_fixed 46 6442bdff5ded2262
checkpointing F_fixed 50 de20ff778db22d45
checkpointing F_fixed 19990803 74ab64c4aed6ef20
checkpointing F_fixed 20030623 1ae2ec2f9d7a7e63
checkpointing F 20 b757299e04ef05a2
checkpointing F 46 149724f5da395c63
checkpointing F 50 b7b11f35ccccf79d
checkpointing F 19990803 faef6668b2afa6a9
checkpointing F 20030623 b3979307717cb2f0
replication 0 20 08f0409ac0071978
replication 0 46 d31c47beb9d034cc
replication 0 50 143b03df7f0d4bab
replication 0 19990803 edfd3b58942a3479
replication 0 20030623 0867a55600d3a7a8
replication F_fixed 20 28e2a155fc86799c
replication F_fixed 46 7708843fd7e08adb
replication F_fixed 50 77695f64db90858c
replication F_fixed 19990803 8e949d36aae78309
replication F_fixed 20030623 5777fa3f63aafd3d
replication F 20 f10edf388b9260a6
replication F 46 981669b1bf0b05e8
replication F 50 c971ace35a0f750c
replication F 19990803 1fdf0c606d7a3cf4
replication F 20030623 cb53578635c12767
replication_checkpointing 0 20 28d35f33266a92c0
replication_checkpointing 0 46 2b55cfb9ce62d5ef
replication_checkpointing 0 50 dbba1670ecb7113d
replication_checkpointing 0 19990803 56a8154b0ddab110
replication_checkpointing 0 20030623 5f904a5ba8758631
replication_checkpointing F_fixed 20 d8967c4098e13e27
replication_checkpointing F_fixed 46 a2d19c35ea6d56b5
replication_checkpointing F_fixed 50 dfb8a102fa8032ae
replication_checkpointing F_fixed 19990803 e26c741d9438af01
replication_checkpointing F_fixed 20030623 6a23553b578a6952
replication_checkpointing F 20 840ff09f1a48e15e
replication_checkpointing F 46 14b56fa5c22a6c4b
replication_checkpointing F 50 9565222f9fcf411d
replication_checkpointing F 19990803 50cc480c0ff3a796
replication_checkpointing F 20030623 b4bae010f364e551
backoff_retry 0 20 a13f4436610aedfc
backoff_retry 0 46 75dd62c495e69f55
backoff_retry 0 50 1d19c4234dad4574
backoff_retry 0 19990803 eeb5ec5b41a3c78e
backoff_retry 0 20030623 2a2cac9a41716533
backoff_retry F_fixed 20 6e7c7d04ed70481b
backoff_retry F_fixed 46 62018c30c5666f13
backoff_retry F_fixed 50 76524d65ce566355
backoff_retry F_fixed 19990803 b151482fdaf44e11
backoff_retry F_fixed 20030623 5570ee68cb14ffd7
backoff_retry F 20 192758d8f809fd41
backoff_retry F 46 aab355b49dd3aa52
backoff_retry F 50 f78a124c45f024fd
backoff_retry F 19990803 11a892ab4048ee96
backoff_retry F 20030623 88985c92251a0ae0
"""
VECTOR_PINS = {
    tuple(row.split()[:3]): row.split()[3]
    for row in _VECTOR_PIN_ROWS.split("\n")
    if row
}


@pytest.mark.contract
@pytest.mark.parametrize(
    "technique, downtime, seed",
    sorted(VECTOR_PINS),
    ids=["-".join(key) for key in sorted(VECTOR_PINS)],
)
def test_vectors_are_the_whole_draws(technique, downtime, seed):
    """Drawing checkpointing's uniforms a block at a time when no downtime
    draws after them takes the same numbers in the same order."""
    mean, distribution = VECTOR_DOWNTIMES[downtime]
    params = SimulationParams(
        mttf=10.0, downtime=mean, downtime_distribution=distribution, seed=int(seed)
    )
    digest = hashlib.sha256()
    for runs in VECTOR_RUNS:
        digest.update(sample_technique(technique, params, runs=runs).tobytes())
    assert digest.hexdigest()[:16] == VECTOR_PINS[(technique, downtime, seed)]


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


# -- every engine workload: calls per task, from XML text to result ---------
# (what was "the 80x80 cliff")


def _total_calls(profile: cProfile.Profile) -> int:
    """Every call *profile* saw, Python frames and C functions alike.  Not
    ``pstats.Stats.total_calls``: pstats keys a function by (file, line,
    name), so the ``__init__`` methods that ``dataclasses`` generates, all
    named ``("<string>", 2, "__init__")``, overwrite each other there and
    most of their calls go uncounted."""
    return sum(entry.callcount for entry in profile.getstats())


def _calls_per_task(spec, setup) -> float:
    """Calls (:func:`_total_calls`) per task of one fault-free run of
    *spec*, from XML text to result."""
    text = serialize_wpdl(spec)

    def run():
        parsed = parse_wpdl(text)
        grid = setup(
            SimulatedGrid(
                seed=1, config=GridConfig(crash_detection="prompt", heartbeats=True)
            )
        )
        engine = WorkflowEngine(parsed, grid, reactor=grid.reactor, validate_spec=False)
        return engine.run(timeout=1e9)

    run()  # condition programs, routes and imports are warm
    profile = cProfile.Profile()
    profile.enable()
    result = run()
    profile.disable()
    assert result.succeeded
    return _total_calls(profile) / len(spec.nodes)


class TestFlatPerTaskCost:
    #: Calls per task: set at 216.1 (10x10) plus 5%; CPython 3.11.7 reads
    #: 220.45 / 215.32 / 214.52 at 10x10 / 40x40 / 80x80 (222.39 / 217.32 /
    #: 216.52 before the coordinator resolved through one method and asked
    #: the bus itself), so 2.9% headroom, and a ceiling is not raised.
    #: Every call counts, generated
    #: ``__init__`` methods included (:func:`_total_calls`), so a record
    #: built by one again instead of minted shows here.  A per-node scan of
    #: the graph reintroduced anywhere between the XML and the result fails
    #: here instead of in a benchmark.
    CEILING = 226.9
    #: The same for a chain (pure sequential navigation) and a fork-join (one
    #: ready set 1 600 wide), set at 209.8 and 207.9 plus 5%; CPython 3.11.7
    #: reads 215.16 / 213.54 / 213.13 and 212.34 / 211.34 / 211.09 at 100 /
    #: 400 / 1 600 nodes (217.14 / 215.53 / 215.13 and 214.28 / 213.33 /
    #: 213.08 before), so 2.4% and 2.8% headroom.
    SHAPE_CEILINGS = {"chain": 220.3, "fork_join": 218.3}

    def test_calls_per_task_flat_from_10x10_to_80x80(self):
        policy = FailurePolicy.retrying(3)
        costs = {
            size: _calls_per_task(
                *layered_dag(size, size, hosts=4, seed=20030623, policy=policy)
            )
            for size in (10, 40, 80)
        }
        assert max(costs.values()) <= 1.03 * min(costs.values()), costs
        assert max(costs.values()) <= self.CEILING, costs

    @pytest.mark.parametrize("shape", sorted(SHAPE_CEILINGS))
    def test_calls_per_task_flat_to_1600_nodes(self, shape):
        build = {"chain": chain, "fork_join": fork_join}[shape]
        costs = {
            n: _calls_per_task(*build(n, policy=FailurePolicy.retrying(3)))
            for n in (100, 400, 1600)
        }
        assert max(costs.values()) <= 1.03 * min(costs.values()), costs
        assert max(costs.values()) <= self.SHAPE_CEILINGS[shape], costs


# -- mc_engine and mux_faulty_observed: what one task attempt calls ----------


def _calls_per_attempt(technique: str) -> float:
    """Calls (:func:`_total_calls`) per submitted attempt over 20
    ``EngineSampler.run`` calls at MTTF 10, after a warm-up run."""
    sampler = EngineSampler(technique, SimulationParams(mttf=10.0))
    sampler.run(1)
    gram = sampler.engine.runtime.service.gram
    calls = attempts = 0
    for seed in range(2, 22):
        profile = cProfile.Profile()
        profile.enable()
        sampler.run(seed)
        profile.disable()
        calls += _total_calls(profile)
        attempts += gram.submitted_count
    return calls / attempts


class TestFlatPerAttemptCost:
    #: Calls per attempt on CPython 3.11 (:func:`_total_calls`), plus 5%.
    #: ``pstats``' ``total_calls``, read here before, missed most generated
    #: ``__init__`` methods: 113.2 / 216.2 / 109.8 / 191.3 / 135.9 by that
    #: count before the attempt's records became tuples.  An object built,
    #: a clock read or a property called again per attempt anywhere
    #: between submission and verdict fails here.
    #: The comments read now, then before the coordinator resolved through
    #: one method and asked the bus itself.  The checkpointing rows read
    #: 224.5 and 198.3 before a workflow's release deleted every checkpoint
    #: its jobs stored (an append at the save, a delete at the release).
    CEILINGS = {
        "retrying": 123.9,  # 117.0; 118.0
        "checkpointing": 237.8,  # 235.1; 226.4
        "replication": 120.2,  # 113.4; 114.5
        "replication_checkpointing": 210.1,  # 208.4; 200.1
        "backoff_retry": 148.2,  # 141.8; 142.8, +3.8%: a ceiling is never raised
    }

    #: Calls of one observed 20-instance batch (:mod:`tests.obs_plane`),
    #: plus 5%.  While narration was published as dicts, stamped with trace
    #: ids, copied by the log and decoded by a ``startswith`` ladder, the
    #: batch made 69 352 and 74 416; before the detector folded beats into
    #: its own host table (one call a flush fewer), 65 398 and 70 058.
    OBSERVED_CEILINGS = {
        20030623: 68_204,  # 64 956
        19990803: 73_143,  # 69 660
    }

    def test_ceilings_cover_every_technique(self):
        assert set(self.CEILINGS) == set(EXTENDED_TECHNIQUES)

    @pytest.mark.parametrize("technique", EXTENDED_TECHNIQUES)
    def test_calls_per_attempt_under_the_ceiling(self, technique):
        cost = _calls_per_attempt(technique)
        assert cost <= self.CEILINGS[technique], cost

    @pytest.mark.contract
    @pytest.mark.parametrize("seed", sorted(OBSERVED_CEILINGS))
    def test_calls_per_observed_batch_under_the_ceiling(self, seed):
        """Every publish of the batch with the whole plane attached, and
        every fold of it, after a warm-up batch on another host."""
        ObservedHost(seed).run_batch(20)
        plane = ObservedHost(seed)
        profile = cProfile.Profile()
        profile.enable()
        plane.run_batch(20)
        profile.disable()
        calls = _total_calls(profile)
        assert calls <= self.OBSERVED_CEILINGS[seed], calls


# -- mux_chain, mux_faulty, mux_faulty_observed: per workflow ---------------

#: ``mux_chain``'s grid: one reliable host with unlimited slots, and a
#: ``crunch`` that crashes once at 1 s then succeeds, so each chain is one
#: crash and one retry.
CHAIN_GRID = {
    "seed": 20030623,
    "config": {"crash_detection": "prompt", "heartbeats": True},
    "hosts": [{"hostname": "u1", "reliable": True}],
    "software": [
        {
            "hostname": "u1",
            "executable": "prep",
            "behavior": {"type": "fixed", "duration": 2.0, "result": "prepped"},
        },
        {
            "hostname": "u1",
            "executable": "crunch",
            "behavior": {
                "type": "crashing",
                "duration": 4.0,
                "crash_at": 1.0,
                "crashes": 1,
                "result": "crunched",
            },
        },
        {
            "hostname": "u1",
            "executable": "publish",
            "behavior": {"type": "fixed", "duration": 1.0, "result": "published"},
        },
    ],
}

#: Per workflow of a batch a tenth of the ledger's (100 chains admitted at
#: once; 20 mosaic DAGs admitted half a second apart, bare and with the
#: whole ``repro.obs`` plane): heap pushes (``heapq.heappush`` calls), bus
#: publications offered, event-log appends and young collections after
#: ``gc.collect()``, recorded on CPython 3.11.7 at the commit before these
#: rows.  Each batch's count is gated at the figure + 5%, rounded up to a
#: whole count (6, 1 and 5 young collections a batch would be gated at 6.3,
#: 1.05 and 5.25 otherwise).
MUX_PER_WORKFLOW = {
    "mux_chain": {"pushes": 4.08, "publishes": 20.0, "appends": 0.0, "young": 0.06},
    "mux_faulty": {"pushes": 36.95, "publishes": 32.6, "appends": 0.0, "young": 0.05},
    "mux_faulty_observed": {
        "pushes": 37.45,
        "publishes": 32.6,
        "appends": 32.6,
        "young": 0.25,
    },
}


class _Batch:
    """One ``EngineHost`` batch of a mux workload, built and not yet run."""

    def __init__(self, workload: str) -> None:
        if workload == "mux_faulty_observed":
            observed = ObservedHost(20030623)
            self.bus, self.instances = observed.bus, 20
            self.run = lambda: observed.run_batch(self.instances)
            return
        bare_chain = workload == "mux_chain"
        grid = build_grid(CHAIN_GRID if bare_chain else faulty_gridspec(20030623))
        self.bus = bus = EventBus()
        reactor = grid.reactor
        timeout = None if bare_chain else 3.0
        detector = FailureDetector(
            reactor, bus, heartbeat_timeout=timeout, batch_heartbeats=True
        )
        host = EngineHost(grid, reactor=reactor, bus=bus, detector=detector)
        specs = [_chain_spec()] if bare_chain else [mosaic_variant(v) for v in range(4)]
        self.instances = instances = 100 if bare_chain else 20
        finished = []
        bus.subscribe("engine.workflow_finished", lambda *_: finished.append(1))

        def run() -> None:
            for i in range(instances):
                spec = specs[i % len(specs)]
                submit = partial(host.submit, spec, validate_spec=False)
                if bare_chain:  # every chain at once, as the ledger admits them
                    submit()
                else:
                    reactor.call_later(0.5 * i, submit)
            reactor.run_until_complete(lambda: len(finished) == instances, timeout=1e9)
            assert all(r.succeeded for r in host.results().values())

        self.run = run


def _chain_spec():
    return (
        WorkflowBuilder("chain3")
        .program("prep", hosts=["u1"])
        .program("crunch", hosts=["u1"])
        .program("publish", hosts=["u1"])
        .activity("prep", implement="prep")
        .activity("crunch", implement="crunch", policy=FailurePolicy.retrying(3))
        .activity("publish", implement="publish")
        .sequence("prep", "crunch", "publish")
        .build()
    )


def _per_batch(workload: str) -> tuple[Counter, int]:
    """:data:`MUX_PER_WORKFLOW`'s counts for one batch of *workload*, and its
    workflows: the counts from a profiled batch, the collections from one
    not profiled."""
    batch = _Batch(workload)
    offered = batch.bus.stats()["publishes"]
    profile = cProfile.Profile()
    profile.runcall(batch.run)
    counts: Counter = Counter()
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):
            counts["pushes"] += entry.callcount * ("_heapq.heappush" in code)
        elif code.co_name == "_append" and code.co_filename.endswith("obs/log.py"):
            counts["appends"] += entry.callcount
    counts["publishes"] = batch.bus.stats()["publishes"] - offered
    batch = _Batch(workload)
    gc.collect()
    before = gc.get_stats()[0]["collections"]
    batch.run()
    counts["young"] = gc.get_stats()[0]["collections"] - before
    return counts, batch.instances


class TestMux:
    @pytest.mark.parametrize("workload", sorted(MUX_PER_WORKFLOW))
    def test_counts_per_workflow(self, workload):
        counts, instances = _per_batch(workload)
        for name, figure in MUX_PER_WORKFLOW[workload].items():
            ceiling = math.ceil(round(figure * instances * 1.05, 6))
            assert counts[name] <= ceiling, (name, counts[name] / instances)


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
#: Young collections per parse of the 60x60 document (3 602 activities,
#: 7 638 transitions) after ``gc.collect()``: 18 on CPython 3.11 (15 on
#: 3.12), read alone and before the walk too; 17 after some tests, as the
#: count sits at a collection's edge.  No headroom: the gate is the reading.
#: 76 when an element tree was built first and walked.  The one gate on it.
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
