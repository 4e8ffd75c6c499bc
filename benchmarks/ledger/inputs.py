"""Workload catalogue and seeded input generation.

A workload is a name, a reason, and a function from a seed to *inputs*:
plain data (WPDL XML text, gridspec dicts, sampler parameters, sizes).
:mod:`program` turns inputs into a runnable program and never sees the
workload's name — two workloads that differ only in their inputs
(``mux_faulty`` / ``mux_faulty_observed``) run the same code.

The seed feeds input generation only: the simulated grid's RNG seed, the
random DAG's shape, ``SimulationParams.seed`` and the engine-run seed base.
Sizes are fixed per workload (see README.md for how they were chosen).
"""

from __future__ import annotations

from dataclasses import asdict

from repro.core import FailurePolicy
from repro.sim import (
    EXTENDED_TECHNIQUES,
    PAPER_BASELINE,
    PAPER_DOWNTIMES,
    PAPER_MTTF_SWEEP,
)
from repro.workloads import layered_dag
from repro.wpdl import JoinMode, WorkflowBuilder, serialize_wpdl

__all__ = ["DEFAULT_SEED", "HELD_OUT_SEED", "WORKLOADS", "make_inputs"]

#: Seed used when none is given; its golden checksums are committed.
DEFAULT_SEED = 20030623
#: Held-out seed: golden checksums committed, never used while tuning
#: sizes; a claimed gain must also hold here (choosing-metrics §6.3).
HELD_OUT_SEED = 19990803

WORKLOADS: dict[str, str] = {
    "mux_chain": (
        "1000 multiplexed 3-task chains, one scripted crash+retry each, one "
        "reliable host: bus dispatch, engine and navigator do the work; "
        "detection timers and random failures do none"
    ),
    "mux_faulty": (
        "200 mosaic DAGs (replication, retry racing a reliable branch into "
        "an OR join, checkpointing) on 8 crashing hosts with heartbeats: "
        "detection, recovery, ckpt, gram and timer churn do the work"
    ),
    "mux_faulty_observed": (
        "mux_faulty's exact inputs with the whole repro.obs plane attached: "
        "same bus used through taps, wildcard subscribers and collector "
        "timers, so a dispatch gain that costs observers shows"
    ),
    "dag_layered": (
        "one 60x60 random layered DAG (3602 nodes) from WPDL XML text to "
        "WorkflowResult on reliable hosts: wpdl parse/validate and "
        "navigator width dominate; recovery, detection and obs idle"
    ),
    "mc_engine": (
        "sequential EngineSampler runs over 5 techniques x MTTF {10,100}: "
        "single-instance engine on the reset/reuse path, heartbeats off; "
        "multiplexing, navigator width and obs are bypassed"
    ),
    "mc_sweep": (
        "vectorised sampler sweep, fixed budget then CI-targeted antithetic "
        "batches: engine, bus and kernel do nothing (the no-change control "
        "for engine work); one large batch vs many small ones"
    ),
}


def _software(hostname: str, executable: str, **behavior) -> dict:
    return {"hostname": hostname, "executable": executable, "behavior": behavior}


# -- mux_chain ----------------------------------------------------------------

CHAIN_INSTANCES = 1000


def _chain_inputs(seed: int) -> dict:
    spec = (
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
    grid = {
        "seed": seed,
        "config": {"crash_detection": "prompt", "heartbeats": True},
        # Unlimited slots: instances must not queue behind each other, or
        # per-instance results would depend on how many siblings run.
        "hosts": [{"hostname": "u1", "reliable": True}],
        "software": [
            _software("u1", "prep", type="fixed", duration=2.0, result="prepped"),
            _software(
                "u1", "crunch", type="crashing", duration=4.0, crash_at=1.0,
                crashes=1, result="crunched",
            ),
            _software(
                "u1", "publish", type="fixed", duration=1.0, result="published"
            ),
        ],
    }
    return {
        "kind": "mux",
        "specs": [serialize_wpdl(spec)],
        "grid": grid,
        "instances": CHAIN_INSTANCES,
        "admit_interval": 0.0,
        "heartbeat_timeout": None,
        "observe": False,
    }


# -- mux_faulty ---------------------------------------------------------------

FAULTY_INSTANCES = 200
FAULTY_VARIANTS = 4
VOLUNTEERS = 8


def _mosaic_variant(v: int) -> str:
    """One of the mosaic pipeline's variants; they differ in which
    volunteer hosts each stage may use, so load spreads over the grid."""
    vol = lambda i: f"vol{i % VOLUNTEERS}"  # noqa: E731
    spec = (
        WorkflowBuilder(f"mosaic-{v}")
        .program("fetch", hosts=[vol(2 * v), vol(2 * v + 1), vol(2 * v + 2)])
        .program("project_fast", hosts=[vol(v + 3)])
        .program("project_safe", hosts=["archive"])
        .program("solve", hosts=[vol(v + 5)])
        .program("publish", hosts=["archive"])
        # Task-level replication, every replica retried until one lands.
        .activity(
            "fetch", implement="fetch", outputs=["tiles"],
            policy=FailurePolicy.replica(max_tries=None),
        )
        # Workflow-level redundancy: a retried volunteer branch races a
        # slow reliable one into an OR join, so the instance succeeds even
        # when the volunteer branch exhausts its tries.
        .activity(
            "project_fast", implement="project_fast",
            policy=FailurePolicy.retrying(3, interval=2.0),
        )
        .activity("project_safe", implement="project_safe")
        .activity("combine", join=JoinMode.OR)
        .activity("solve", implement="solve", policy=FailurePolicy.retrying(None))
        .activity("publish", implement="publish")
        .fan_out("fetch", "project_fast", "project_safe")
        .fan_in("combine", "project_fast", "project_safe")
        .sequence("combine", "solve", "publish")
        .build()
    )
    return serialize_wpdl(spec)


def _faulty_inputs(seed: int, *, observe: bool) -> dict:
    hosts = [
        {
            "hostname": f"vol{i}", "mttf": 40.0, "mean_downtime": 5.0,
            "tags": ["volunteer"],
        }
        for i in range(VOLUNTEERS)
    ]
    hosts.append({"hostname": "archive", "reliable": True})
    grid = {
        "seed": seed,
        "config": {"crash_detection": "prompt", "heartbeats": True},
        "hosts": hosts,
        "software": [
            _software("*", "fetch", type="fixed", duration=6.0, result="tiles"),
            _software("*", "project_fast", type="fixed", duration=8.0),
            _software("archive", "project_safe", type="fixed", duration=14.0),
            _software(
                "*", "solve", type="checkpointing", duration=12.0,
                checkpoints=6, overhead=0.25, recovery_time=0.25,
            ),
            _software(
                "archive", "publish", type="fixed", duration=1.0,
                result="published",
            ),
        ],
    }
    return {
        "kind": "mux",
        "specs": [_mosaic_variant(v) for v in range(FAULTY_VARIANTS)],
        "grid": grid,
        "instances": FAULTY_INSTANCES,
        # Staggered admission: the reactor interleaves admissions with
        # running instances instead of starting from one burst.
        "admit_interval": 0.5,
        "heartbeat_timeout": 3.0,
        "observe": observe,
    }


# -- dag_layered --------------------------------------------------------------

DAG_SHAPE = (60, 60)
DAG_SMALL_SHAPE = (10, 10)
DAG_HOSTS = 4


def _dag_xml(shape: tuple[int, int], seed: int) -> tuple[str, int]:
    spec, _ = layered_dag(
        *shape, hosts=DAG_HOSTS, seed=seed, policy=FailurePolicy.retrying(3)
    )
    return serialize_wpdl(spec), len(spec.nodes)


def _dag_inputs(seed: int) -> dict:
    spec, nodes = _dag_xml(DAG_SHAPE, seed)
    small, small_nodes = _dag_xml(DAG_SMALL_SHAPE, seed)
    grid = {
        "seed": seed,
        "config": {"crash_detection": "prompt", "heartbeats": True},
        "hosts": [
            {"hostname": f"h{i}", "reliable": True} for i in range(DAG_HOSTS)
        ],
        "software": [_software("*", "work", type="fixed", duration=1.0)],
    }
    return {
        "kind": "dag",
        "spec": spec,
        "nodes": nodes,
        "small_spec": small,
        "small_nodes": small_nodes,
        "grid": grid,
    }


# -- mc_engine ----------------------------------------------------------------

MC_ENGINE_MTTFS = (10.0, 100.0)
MC_ENGINE_RUNS = 40


def _mc_engine_inputs(seed: int) -> dict:
    return {
        "kind": "mc_engine",
        "params": asdict(PAPER_BASELINE),
        "cells": [
            (technique, mttf)
            for technique in EXTENDED_TECHNIQUES
            for mttf in MC_ENGINE_MTTFS
        ],
        "runs": MC_ENGINE_RUNS,
        "base_seed": seed,
    }


# -- mc_sweep -----------------------------------------------------------------

MC_SWEEP_RUNS = 40_000
#: One Figure-11 panel (D = F): the two phases then cost about the same,
#: so a regression in either moves the repetition by half its size.
MC_SWEEP_DOWNTIMES = PAPER_DOWNTIMES[1:2]
MC_SWEEP_TARGET_REL = 0.01


def _mc_sweep_inputs(seed: int) -> dict:
    params = asdict(PAPER_BASELINE)
    params["seed"] = seed
    return {
        "kind": "mc_sweep",
        "params": params,
        "techniques": list(EXTENDED_TECHNIQUES),
        # Every other point of the paper's MTTF axis: 10, 30, 50, 70, 90.
        "mttfs": [float(m) for m in PAPER_MTTF_SWEEP[::2]],
        "downtimes": list(MC_SWEEP_DOWNTIMES),
        "runs": MC_SWEEP_RUNS,
        "target_rel": MC_SWEEP_TARGET_REL,
    }


_GENERATORS = {
    "mux_chain": _chain_inputs,
    "mux_faulty": lambda seed: _faulty_inputs(seed, observe=False),
    "mux_faulty_observed": lambda seed: _faulty_inputs(seed, observe=True),
    "dag_layered": _dag_inputs,
    "mc_engine": _mc_engine_inputs,
    "mc_sweep": _mc_sweep_inputs,
}


def make_inputs(workload: str, seed: int) -> dict:
    """Inputs for *workload* at *seed*: the same seed gives the same inputs."""
    return _GENERATORS[workload](seed)
