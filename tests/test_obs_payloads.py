"""An observed publish builds one tuple, and the fold reads it by topic.

Each of the ten narration topics the engine, the host and the recovery
coordinator publish carries its own minted ``NamedTuple``.  The log keeps
it as given, the fold reads its fields after one lookup of the topic, and
what every view renders of it — the journal entry,
:func:`repro.obs.log.expand` — is what the dict it replaced rendered, key
for key and in the same order: ``PARENT_FIRST`` and ``PARENT_DIGESTS`` were
recorded from the dict-publishing code on the scenario below, traced and
untraced, run by an ``EngineHost`` (``workflow_id`` set) and by a lone
engine (``workflow_id`` "", and no admission).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core import FailurePolicy
from repro.engine import EngineHost, WorkflowEngine
from repro.events import EventBus
from repro.grid import (
    RELIABLE,
    CheckpointingTask,
    CrashingTask,
    FixedDurationTask,
    GridConfig,
    SimulatedGrid,
    inject_crash,
)
from repro.obs import (
    EstimatorSuite,
    EventLog,
    FlightRecorder,
    RunObserver,
    Tracer,
    WorkflowStatusTracker,
)
from repro.wpdl import JoinMode, WorkflowBuilder
from tests.obs_plane import ObservedHost

#: The topic families whose payloads the stack mints.
NARRATED = ("engine.", "recovery.")


def parity_spec():
    """A node that always crashes (a retry, then exhausted), a replicated
    one (a win), a checkpointing one crashed mid-run (a restart, then
    cancelled by the OR join the replica wins)."""
    return (
        WorkflowBuilder("parity")
        .program("prepare", hosts=["h1"])
        .program("doomed", hosts=["h1"])
        .program("mirror", hosts=["h1", "h2"])
        .program("solve", hosts=["h3"])
        .activity("prepare", implement="prepare")
        .activity(
            "doomed", implement="doomed", policy=FailurePolicy.retrying(2, interval=1.0)
        )
        .activity("mirror", implement="mirror", policy=FailurePolicy.replica())
        .activity("solve", implement="solve", policy=FailurePolicy.retrying(None))
        .activity("combine", join=JoinMode.OR)
        .fan_out("prepare", "doomed", "mirror", "solve")
        .fan_in("combine", "mirror", "solve")
        .build()
    )


def parity_grid() -> SimulatedGrid:
    grid = SimulatedGrid(config=GridConfig(heartbeats=False))
    for name in ("h1", "h2", "h3"):
        grid.add_host(RELIABLE(name))
    grid.install("h1", "prepare", FixedDurationTask(duration=1.0))
    grid.install("h1", "doomed", CrashingTask(duration=5.0, crash_at=0.5, crashes=None))
    grid.install("h1", "mirror", FixedDurationTask(duration=30.0))
    grid.install("h2", "mirror", FixedDurationTask(duration=20.0))
    grid.install(
        "h3", "solve", CheckpointingTask(duration=60.0, checkpoints=6, overhead=0.5)
    )
    inject_crash(grid.kernel, grid.host("h3"), at=14.0, duration=0.0)
    return grid


def narration(traced: bool, scoped: bool) -> list[dict]:
    """The journal entries of the scenario's engine and recovery events."""
    grid = parity_grid()
    bus = EventBus()
    recorder = FlightRecorder(bus)
    tracer = Tracer() if traced else None
    if scoped:
        host = EngineHost(grid, reactor=grid.reactor, bus=bus, tracer=tracer)
        wfid = host.submit(parity_spec())
        grid.reactor.run_until_complete(lambda: wfid in host.results(), timeout=1e6)
    else:
        engine = WorkflowEngine(
            parity_spec(), grid, reactor=grid.reactor, bus=bus, tracer=tracer
        )
        engine.run(timeout=1e6)
    return [e for e in recorder.entries if e["topic"].startswith(NARRATED)]


def _digest(entries) -> str:
    return hashlib.sha256(json.dumps(entries).encode()).hexdigest()


CASES = [(traced, scoped) for traced in (False, True) for scoped in (False, True)]

#: Every narration entry of a case, digested, from the dict-publishing code.
PARENT_DIGESTS = {
    (False, False): "e4e0f3da1f115d06f35d1857ac78e8a7f897be35d867e528e2c6cee42a477b6a",
    (False, True): "e0b68480214263b1f7b984754e26021daf091d301a8b04114be69481476d2ec4",
    (True, False): "6ebe0a1950cc293978d5ad5bb8c4ea40bd88aebb83c0b0f058cd12a55b96e22f",
    (True, True): "5b08de77f4174dcff5e34bda4cd3cd1eaf18dfad701e2a2c4aec25b09cb9638c",
}

#: Each topic's first entry per case, one JSON text a line, topics in
#: order, from the dict-publishing code.
PARENT_FIRST = {
    (False, False): """
{"seq": 28, "topic": "engine.node_cancelled", "workflow": "parity", "workflow_id": "", "node": "solve", "at": 21.0}
{"seq": 4, "topic": "engine.node_completed", "workflow": "parity", "workflow_id": "", "node": "prepare", "status": "done", "tries": 1, "exception": null, "at": 1.0}
{"seq": 0, "topic": "engine.node_launched", "workflow": "parity", "workflow_id": "", "node": "prepare", "at": 0.0}
{"seq": 30, "topic": "engine.workflow_finished", "workflow": "parity", "workflow_id": "", "status": "failed", "at": 21.0}
{"seq": 21, "topic": "recovery.checkpoint_restart", "activity": "solve", "slot": 0, "flag": "solve#job-000005@10.5", "flag_source": "", "at": 14.0}
{"seq": 16, "topic": "recovery.exhausted", "activity": "doomed", "slot": 0, "tries": 2, "host": "h1", "at": 3.0}
{"seq": 24, "topic": "recovery.replication_win", "activity": "mirror", "host": "h2", "slots": 2, "at": 21.0}
{"seq": 3, "topic": "recovery.resolved", "activity": "prepare", "state": "done", "tries": 1, "at": 1.0}
{"seq": 13, "topic": "recovery.retry", "activity": "doomed", "slot": 0, "option": 0, "delay": 1.0, "tries": 1, "host": "h1", "at": 1.5}
""",
    (False, True): """
{"seq": 29, "topic": "engine.node_cancelled", "workflow": "parity", "workflow_id": "wf-1", "node": "solve", "at": 21.0}
{"seq": 5, "topic": "engine.node_completed", "workflow": "parity", "workflow_id": "wf-1", "node": "prepare", "status": "done", "tries": 1, "exception": null, "at": 1.0}
{"seq": 1, "topic": "engine.node_launched", "workflow": "parity", "workflow_id": "wf-1", "node": "prepare", "at": 0.0}
{"seq": 0, "topic": "engine.workflow_admitted", "workflow": "parity", "workflow_id": "wf-1", "at": 0.0}
{"seq": 31, "topic": "engine.workflow_finished", "workflow": "parity", "workflow_id": "wf-1", "status": "failed", "at": 21.0}
{"seq": 22, "topic": "recovery.checkpoint_restart", "activity": "solve", "slot": 0, "flag": "solve#job-000005@10.5", "flag_source": "", "at": 14.0, "workflow_id": "wf-1"}
{"seq": 17, "topic": "recovery.exhausted", "activity": "doomed", "slot": 0, "tries": 2, "host": "h1", "at": 3.0, "workflow_id": "wf-1"}
{"seq": 25, "topic": "recovery.replication_win", "activity": "mirror", "host": "h2", "slots": 2, "at": 21.0, "workflow_id": "wf-1"}
{"seq": 4, "topic": "recovery.resolved", "activity": "prepare", "state": "done", "tries": 1, "at": 1.0, "workflow_id": "wf-1"}
{"seq": 14, "topic": "recovery.retry", "activity": "doomed", "slot": 0, "option": 0, "delay": 1.0, "tries": 1, "host": "h1", "at": 1.5, "workflow_id": "wf-1"}
""",
    (True, False): """
{"seq": 28, "topic": "engine.node_cancelled", "workflow": "parity", "workflow_id": "", "node": "solve", "at": 21.0, "trace_id": "parity#1", "span_id": "s10", "parent_id": "s1"}
{"seq": 4, "topic": "engine.node_completed", "workflow": "parity", "workflow_id": "", "node": "prepare", "status": "done", "tries": 1, "exception": null, "at": 1.0, "trace_id": "parity#1", "span_id": "s2", "parent_id": "s1"}
{"seq": 0, "topic": "engine.node_launched", "workflow": "parity", "workflow_id": "", "node": "prepare", "at": 0.0, "trace_id": "parity#1", "span_id": "s2", "parent_id": "s1"}
{"seq": 30, "topic": "engine.workflow_finished", "workflow": "parity", "workflow_id": "", "status": "failed", "at": 21.0, "trace_id": "parity#1", "span_id": "s1"}
{"seq": 21, "topic": "recovery.checkpoint_restart", "activity": "solve", "slot": 0, "flag": "solve#job-000005@10.5", "flag_source": "s11", "trace_id": "parity#1", "span_id": "s17", "parent_id": "s16", "at": 14.0}
{"seq": 16, "topic": "recovery.exhausted", "activity": "doomed", "slot": 0, "tries": 2, "host": "h1", "trace_id": "parity#1", "span_id": "s14", "parent_id": "s13", "at": 3.0}
{"seq": 24, "topic": "recovery.replication_win", "activity": "mirror", "host": "h2", "slots": 2, "trace_id": "parity#1", "span_id": "s19", "parent_id": "s9", "at": 21.0}
{"seq": 3, "topic": "recovery.resolved", "activity": "prepare", "state": "done", "tries": 1, "trace_id": "parity#1", "span_id": "s4", "parent_id": "s2", "at": 1.0}
{"seq": 13, "topic": "recovery.retry", "activity": "doomed", "slot": 0, "option": 0, "delay": 1.0, "tries": 1, "host": "h1", "trace_id": "parity#1", "span_id": "s12", "parent_id": "s6", "at": 1.5}
""",
    (True, True): """
{"seq": 29, "topic": "engine.node_cancelled", "workflow": "parity", "workflow_id": "wf-1", "node": "solve", "at": 21.0, "trace_id": "wf-1#1", "span_id": "s10", "parent_id": "s1"}
{"seq": 5, "topic": "engine.node_completed", "workflow": "parity", "workflow_id": "wf-1", "node": "prepare", "status": "done", "tries": 1, "exception": null, "at": 1.0, "trace_id": "wf-1#1", "span_id": "s2", "parent_id": "s1"}
{"seq": 1, "topic": "engine.node_launched", "workflow": "parity", "workflow_id": "wf-1", "node": "prepare", "at": 0.0, "trace_id": "wf-1#1", "span_id": "s2", "parent_id": "s1"}
{"seq": 0, "topic": "engine.workflow_admitted", "workflow": "parity", "workflow_id": "wf-1", "at": 0.0}
{"seq": 31, "topic": "engine.workflow_finished", "workflow": "parity", "workflow_id": "wf-1", "status": "failed", "at": 21.0, "trace_id": "wf-1#1", "span_id": "s1"}
{"seq": 22, "topic": "recovery.checkpoint_restart", "activity": "solve", "slot": 0, "flag": "solve#job-000005@10.5", "flag_source": "s11", "trace_id": "wf-1#1", "span_id": "s17", "parent_id": "s16", "at": 14.0, "workflow_id": "wf-1"}
{"seq": 17, "topic": "recovery.exhausted", "activity": "doomed", "slot": 0, "tries": 2, "host": "h1", "trace_id": "wf-1#1", "span_id": "s14", "parent_id": "s13", "at": 3.0, "workflow_id": "wf-1"}
{"seq": 25, "topic": "recovery.replication_win", "activity": "mirror", "host": "h2", "slots": 2, "trace_id": "wf-1#1", "span_id": "s19", "parent_id": "s9", "at": 21.0, "workflow_id": "wf-1"}
{"seq": 4, "topic": "recovery.resolved", "activity": "prepare", "state": "done", "tries": 1, "trace_id": "wf-1#1", "span_id": "s4", "parent_id": "s2", "at": 1.0, "workflow_id": "wf-1"}
{"seq": 14, "topic": "recovery.retry", "activity": "doomed", "slot": 0, "option": 0, "delay": 1.0, "tries": 1, "host": "h1", "trace_id": "wf-1#1", "span_id": "s12", "parent_id": "s6", "at": 1.5, "workflow_id": "wf-1"}
""",
}


@pytest.mark.contract
@pytest.mark.parametrize("traced, scoped", CASES)
def test_minted_payloads_render_the_entries_the_dicts_did(traced, scoped):
    entries = narration(traced, scoped)
    first = {}
    for entry in entries:
        first.setdefault(entry["topic"], json.dumps(entry))
    # All ten topics; a lone engine admits nothing.
    assert len(first) == (10 if scoped else 9)
    recorded = PARENT_FIRST[traced, scoped].strip().splitlines()
    assert [first[topic] for topic in sorted(first)] == recorded
    assert _digest(entries) == PARENT_DIGESTS[traced, scoped]


@pytest.mark.contract
@pytest.mark.parametrize("seed", (20030623, 19990803))
def test_every_record_of_an_observed_batch_carries_its_topics_type(seed):
    """On the plane golden's batch, a record on an ``engine.*``,
    ``recovery.*`` or ``task.*`` topic holds the type its publisher
    declares for that topic — no dict — and the log kept that very
    object."""
    from repro.detection.detector import AttemptOutcome
    from repro.engine import engine, host, recovery

    declared = {**host.PAYLOADS, **engine.PAYLOADS, **recovery.PAYLOADS}
    published = []
    plane = ObservedHost(seed)
    plane.bus.add_tap(lambda topic, payload: published.append(payload))
    plane.run_batch(20)
    records = EventLog.on(plane.bus).records()
    assert len(records) == len(published)
    for record, payload in zip(records, published):
        # Kept as given; only a dict (an ``obs.*`` topic's) is copied.
        kept = record[4]
        assert kept is payload or (type(payload) is dict and kept == payload)
    seen = set()
    for _seq, _sim, _wall, topic, payload in records:
        if topic.startswith("task."):
            assert type(payload) is AttemptOutcome, topic
        elif topic.startswith(NARRATED):
            assert type(payload) is declared[topic], topic
            seen.add(topic)
    # The batch narrates every topic but a slot running out of tries.
    assert seen == set(declared) - {recovery.RECOVERY_EXHAUSTED}


@pytest.mark.contract
def test_a_foreign_payload_is_skipped_by_the_fold_and_journalled():
    """A dict, a bare tuple or nothing on a topic whose publisher declares
    a payload type leaves the fold's state as it was — metrics, statuses,
    estimates and the table of running instances — and still renders
    through ``expand``, as that kind of payload renders anywhere."""
    from repro.detection.detector import TASK_FAILED, AttemptOutcome, TaskState
    from repro.engine import engine, host, recovery
    from repro.engine.engine import NodeCompleted, NodeLaunched
    from repro.engine.host import WorkflowAdmitted

    bus = EventBus()
    observer, tracker = RunObserver(bus), WorkflowStatusTracker(bus)
    suite, recorder = EstimatorSuite(bus), FlightRecorder(bus)
    log = EventLog.on(bus)
    # A running instance: a node launched, an attempt in flight.
    bus.publish("engine.workflow_admitted", WorkflowAdmitted("w", "wf-1", 0.0))
    bus.publish("engine.node_launched", NodeLaunched("w", "wf-1", "a", 0.0))
    bus.publish(
        "task.active", AttemptOutcome("j1", "a", TaskState.ACTIVE, workflow_id="wf-1")
    )

    def state():
        log.fold()
        instances = {
            wfid: (run.workflow, {a: dict(jobs) for a, jobs in run.attempts.items()})
            for wfid, run in log.sampled.instances.items()
        }
        return (
            observer.metrics.snapshot(),
            tracker.snapshot(),
            suite.snapshot(),
            instances,
        )

    before, since = state(), log.seq
    topics = [*host.PAYLOADS, *engine.PAYLOADS, *recovery.PAYLOADS, TASK_FAILED]
    as_dict = {
        "workflow": "w",
        "workflow_id": "wf-1",
        "node": "a",
        "activity": "a",
        "status": "done",
        "reason": "host-crashed",
        "hostname": "h1",
        "at": 1.0,
    }
    as_tuple = ("w", "wf-1", "a", 1.0)
    for topic in topics:
        for payload in (as_dict, as_tuple, None):
            bus.publish(topic, payload)
    assert state() == before

    expected = []
    for topic in topics:
        expected.append({"topic": topic, **as_dict})
        expected.append({"topic": topic, "payload": list(as_tuple)})
        expected.append({"topic": topic})
    journal = [entry for entry in recorder.entries if entry["seq"] >= since]
    assert [{k: v for k, v in e.items() if k != "seq"} for e in journal] == expected

    # The fold still reads what its publisher minted.
    bus.publish(
        "engine.node_completed", NodeCompleted("w", "wf-1", "a", "done", 1, None, 2.0)
    )
    (status,) = tracker.snapshot()
    assert status["nodes_completed"] == 1 and status["running_nodes"] == []
    assert status["attempts"]["cancelled"] == 1
