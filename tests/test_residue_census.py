"""Nothing outlives its workflow: a residue census of a long-lived host.

Drives :mod:`tests.obs_plane`'s batch of faulty mosaic workflows — bare,
and with the whole telemetry plane attached — through one
:class:`~repro.engine.EngineHost`, and between batches walks every dict,
list, deque, set and array reachable from the host, the grid and the plane.
Each is named by the attribute path that holds it (``[*]`` for an element
of a container) and every path is classified:

* :class:`Fixed` — holds as many items after three batches as after one;
* :class:`Bounded` — a ring, or a table keyed by a finite vocabulary (the
  hosts, the mosaic's variants and nodes): never more than its stated
  capacity, however many workflows ran;
* :class:`Live` — kept per live workflow: empty between batches;
* :class:`Results` — the host's one entry per admitted instance, what
  :meth:`~repro.engine.EngineHost.results` returns.

An unclassified container fails the census, so does a live table that is
not empty between batches, a fixed one that grew, a bounded one past its
capacity, and a kernel timer left to a workflow once none runs.  A leak
planted in each release a finished workflow makes — the host's engine, the
service's attempt counters and stored checkpoints, the coordinator's
checkpoint flags — fails it.

Memory: a bare host retains under 2 KiB per finished workflow (the
:class:`~repro.engine.engine.WorkflowResult` it keeps).  An observed one
retains far more, and the census says where: the plane's bounded rings —
the event log's 65 536 records, the time-series points, the tracker's
1 024 finished instances — are still filling after three batches of 100,
and what the observed batch keeps beyond the bare one is under 600 bytes
per record its event log gained.
"""

from __future__ import annotations

import array
import collections
import enum
import functools
import gc
import re
import tracemalloc
import types
from typing import NamedTuple
from weakref import WeakKeyDictionary

import pytest

from repro.ckpt.manager import CheckpointManager
from repro.ckpt.store import MemoryCheckpointStore
from repro.engine import EngineHost
from repro.grid.gram import GramService
from repro.obs.health import _HISTORY
from repro.obs.server import _FINISHED
from repro.obs.timeseries import _STRIDE
from tests.helpers import timers_of_workflows
from tests.obs_plane import VARIANTS, VOLUNTEERS, ObservedHost

SEED = 20030623
BATCH = 100

CONTAINERS = (dict, list, collections.deque, set, array.array, WeakKeyDictionary)
ATOMIC = (str, bytes, int, float, complex, bool, type(None), enum.Enum, range)

HOSTS = VOLUNTEERS + 1  # and the reliable archive
#: The mosaic's nodes: five tasks and the OR join.
NODES = 6
#: The richest label set a metric series carries: (workflow, activity,
#: outcome), at most five outcomes.
SERIES = VARIANTS * NODES * 5
EVENT_LOG = 65_536
POINTS = 512  # a store's default capacity, in buckets


class Fixed(NamedTuple):
    why: str


class Bounded(NamedTuple):
    capacity: int
    why: str


class Live(NamedTuple):
    why: str


class Results(NamedTuple):
    why: str


class Disowned(NamedTuple):
    """A job's own state, kept while the job is live: between batches only
    a job no coordinator follows any more is (see :func:`disowned`)."""

    why: str


#: The job tables: per live workflow, but for the disowned jobs they hold.
JOB_TABLES = {
    "grid.gram._processes",
    "grid.hosts[*]._queued",
    "grid.hosts[*]._running",
}
TIMER = Bounded(4, "a timer entry: when, seq, callback, cancel")


#: Every container path the census meets, and its class.
CENSUS: dict[str, object] = {
    # -- the host ------------------------------------------------------------
    "host._engines": Live("running instances: an engine goes at its finish"),
    "host._results": Results("one WorkflowResult per admitted instance"),
    "host._results[*][*]": Bounded(NODES, "a result's variables, statuses, tries"),
    "host.runtime.launch_plans": Bounded(VARIANTS, "one table per live specification"),
    "host.runtime.launch_plans[*]": Bounded(NODES, "one plan per (program, policy)"),
    "host.runtime.launch_plans[*][*].targets": Bounded(3, "a program's options"),
    "host.runtime.launch_plans[*][*].requests": Bounded(3, "a program's options"),
    "host.runtime.launch_plans[*][*].requests[*]": Bounded(1, "the one activity"),
    "host.runtime.checkpoints._records": Live("a running slot's checkpoint flag"),
    "host.runtime.broker._queries": Fixed("per-activity matchmaking queries"),
    "host.runtime.bus._handlers": Fixed("the subscribed topics"),
    "host.runtime.bus._handlers[*]": Fixed("each topic's subscribers"),
    "host.runtime.detector._attempts": Live("attempts in flight"),
    "host.runtime.detector._hosts": Bounded(HOSTS, "one liveness record per host"),
    "host.runtime.detector._pending_beats": Bounded(HOSTS, "beats awaiting a flush"),
    "host.runtime.detector._sweep_handle": TIMER,
    # -- the grid -------------------------------------------------------------
    "grid.hosts": Fixed("the grid's hosts"),
    "grid.hosts[*]._crash_handle": TIMER,
    "grid.hosts[*]._queued": Live("attempts queued on a down host"),
    "grid.hosts[*]._running": Live("attempts running on a host"),
    "grid.hosts[*]._recover_listeners": Live("orphans awaiting a host's restart"),
    "grid.hosts[*]._heartbeat_task._handle": TIMER,
    "grid.gram._processes": Live("submissions in flight"),
    "grid.gram._processes[*]._steps": Disowned("a live job's planned steps"),
    "grid.gram._processes[*]._timer": Disowned("a live job's one timer"),
    "grid.gram._processes[*].keys_written": Disowned("its workflow's stored keys"),
    "grid.gram._attempt_counters": Live("attempt numbering, until release"),
    "grid.gram._keys_written": Live("stored checkpoints' keys, until release"),
    "grid.store._data": Live("checkpoints of running instances' jobs"),
    "grid.streams._streams": Bounded(2 * VOLUNTEERS, "ttf and downtime per volunteer"),
    "grid.kernel._lane": Fixed("entries due now: none once the instant drained"),
    "grid.kernel._timers.heap": Bounded(
        2 * HOSTS + 2 + 2 * 64,
        "each host's crash and heartbeat timers, the detector's sweep, the"
        " collector's tick, and cancelled entries awaiting compaction (at"
        " most 64 while they do not outnumber the live ones)",
    ),
    "grid.kernel._timers.heap[*]": TIMER,
    "grid.network._last_delivery": Bounded(HOSTS, "one clock per sending host"),
    "grid.network._partitioned": Fixed("scripted partitions"),
    # -- the plane ------------------------------------------------------------
    "plane._log._ring": Bounded(EVENT_LOG, "the event log's ring of records"),
    "plane._log._ring[*][*]": Bounded(8, "a payload's exception data"),
    "plane._log._pending": Bounded(EVENT_LOG, "records awaiting the next fold"),
    "plane._log.spills": Fixed("spill sinks"),
    "plane._log.sampled.kinds": Fixed("the folded topics"),
    "plane._log.sampled.instances": Live("the fold's running instances"),
    "plane.tracker._status": Bounded(_FINISHED, "the newest finished instances"),
    "plane.tracker._finished": Bounded(_FINISHED, "the newest finished instances"),
    "plane.tracker._status[*]": Bounded(10, "one instance's status fields"),
    "plane.tracker._status[*][*]": Bounded(NODES, "running nodes, attempt counts"),
    "plane.health._history": Bounded(_HISTORY, "the newest alert transitions"),
    "plane.health._history[*]": Bounded(8, "one transition's fields"),
    "plane.health._rules": Fixed("the health rules"),
    "plane.health._states": Fixed("one state per rule"),
    "plane.estimators.priors": Bounded(HOSTS, "one prior per host"),
    "plane.estimators._hosts": Bounded(HOSTS, "one estimator per host"),
    "plane.estimators._activities": Bounded(
        VARIANTS * NODES, "one estimator per (workflow, activity)"
    ),
    "plane.observer.metrics._families": Bounded(64, "the declared metric families"),
    "plane.observer.metrics._families[*].series": Bounded(SERIES, "label sets"),
    "plane.observer.metrics._bound": Bounded(64, "one binding per family"),
    "plane.observer.metrics._bound[*]._children": Bounded(SERIES, "label sets"),
    "plane.observer.metrics._bound[*]._sorted": Fixed("a family's label names"),
    "plane.observer.metrics._bound[*]._children[*].counts": Bounded(
        16, "a histogram's buckets"
    ),
    "plane.observer.<instrument>._children": Bounded(SERIES, "label sets"),
    "plane.observer.<instrument>._sorted": Fixed("a family's label names"),
    "plane.observer.<instrument>._children[*].counts": Bounded(
        16, "a histogram's buckets"
    ),
    "plane.store._series": Bounded(64, "one table per sampled family"),
    "plane.store._series[*]": Bounded(SERIES, "label sets"),
    "plane.store._series[*][*]._points": Bounded(
        POINTS * _STRIDE, "a series' ring of points"
    ),
    "plane.store._histograms": Bounded(64, "one table per sampled histogram"),
    "plane.store._histograms[*]": Bounded(SERIES, "label sets"),
    "plane.store._histograms[*][*]._samples": Bounded(POINTS, "a histogram's ring"),
}

#: Subtrees fixed as built: every container path under one is Fixed.
FIXED_SUBTREES = {
    "grid.hosts[*].software": "installed behaviours and their plans",
}


def classify(path: str):
    # The observer holds each of its instruments by attribute as well.
    path = re.sub(r"^plane\.observer\._\w+", "plane.observer.<instrument>", path)
    kind = CENSUS.get(path)
    if kind is None:
        for prefix, why in FIXED_SUBTREES.items():
            if path.startswith(prefix):
                return Fixed(why)
    return kind


def walk(roots) -> dict[str, list[int]]:
    """The length of every container reachable from *roots* (``(name,
    object)`` pairs), by the path it was first reached on, breadth first.
    Objects outside ``repro`` are not entered; a bound method is entered
    through its ``__self__``, a function through its closure and
    defaults, a ``partial`` through its function and arguments."""
    seen: set[int] = set()
    found: dict[str, list[int]] = collections.defaultdict(list)
    queue = collections.deque(roots)
    while queue:
        path, obj = queue.popleft()
        if isinstance(obj, ATOMIC) or isinstance(
            obj, (type, types.ModuleType, types.BuiltinFunctionType)
        ):
            continue
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, CONTAINERS):
            found[path].append(len(obj))
        if isinstance(obj, (dict, WeakKeyDictionary)):
            queue.extend((f"{path}[*]", v) for v in obj.values())
        elif isinstance(obj, (list, tuple, collections.deque, set, frozenset)):
            queue.extend((f"{path}[*]", v) for v in obj)
        elif isinstance(obj, types.MethodType):
            queue.append((path, obj.__self__))
        elif isinstance(obj, types.FunctionType):
            for cell in obj.__closure__ or ():
                try:
                    queue.append((path, cell.cell_contents))
                except ValueError:  # an empty cell
                    pass
            queue.extend((path, d) for d in obj.__defaults__ or ())
        elif isinstance(obj, functools.partial):
            queue.append((path, obj.func))
            queue.extend((path, a) for a in obj.args)
        elif (type(obj).__module__ or "").startswith("repro"):
            attributes = getattr(obj, "__dict__", {})
            queue.extend((f"{path}.{k}", v) for k, v in attributes.items())
            for cls in type(obj).__mro__:
                for slot in getattr(cls, "__slots__", ()):
                    if not slot.startswith("__") and hasattr(obj, slot):
                        queue.append((f"{path}.{slot}", getattr(obj, slot)))
    return found


class Census(NamedTuple):
    sizes: dict[str, list[int]]
    admitted: int
    #: What the kernel's pending timers would call on a workflow's behalf,
    #: jobs no coordinator follows aside.
    timers: list
    #: Live jobs no coordinator follows (:func:`disowned`).
    disowned: int


def disowned(run: ObservedHost) -> set[str]:
    """The jobs GRAM holds that the detector tracks for no coordinator.

    A pinned defect (FOUND in CHANGES.md): an attempt queued on a down
    host that the detector gives up on is retried elsewhere but never
    cancelled, so it starts when the host recovers, followed by no one.
    Cancelling it moves the ledger's counts (≈ 109 such starts in one
    ``mux_faulty`` repetition), so it is mended with the ledger's re-pin.
    """
    tracked = run.detector._attempts
    return {job for job in run.grid.gram._processes if job not in tracked}


def settle(run: ObservedHost) -> None:
    """Between batches: the instant the last workflow finished at drains
    (what is due then runs, navigating nothing), then a collection."""
    kernel = run.grid.kernel
    kernel.run_until(kernel.now())
    gc.collect()


def take_census(run: ObservedHost) -> Census:
    """What *run* holds between batches (call :func:`settle` first)."""
    jobs = disowned(run)
    return Census(
        walk([("host", run.host), ("grid", run.grid), ("plane", run.plane)]),
        len(run.host._results),
        [
            owner
            for owner in timers_of_workflows(run.grid.kernel)
            if getattr(owner, "job_id", None) not in jobs
        ],
        len(jobs),
    )


def problems(first: Census, last: Census) -> list[str]:
    """Every breach of the classification, between *first* (after one
    batch) and *last* (after three), and every timer left to a workflow."""
    found = [f"timer of a finished workflow: {t!r}" for t in first.timers + last.timers]
    for path in sorted(first.sizes.keys() | last.sizes.keys()):
        kind = classify(path)
        before, after = first.sizes.get(path, []), last.sizes.get(path, [])
        if kind is None:
            found.append(f"unclassified: {path} {after or before}")
        elif path in JOB_TABLES:
            if sum(before) > first.disowned or sum(after) > last.disowned:
                found.append(f"job table holds a followed job: {path}")
        elif isinstance(kind, Live):
            if sum(before) or sum(after):
                found.append(f"live table not empty between batches: {path}")
        elif isinstance(kind, Fixed):
            if sum(after) != sum(before) or len(after) != len(before):
                found.append(f"fixed table moved: {path} {before} -> {after}")
        elif isinstance(kind, Bounded):
            if max(before + after, default=0) > kind.capacity:
                found.append(f"past its capacity {kind.capacity}: {path}")
        elif isinstance(kind, Results):
            if before != [first.admitted] or after != [last.admitted]:
                found.append(f"not one result per instance: {path}")
    return found


class Run(NamedTuple):
    first: Census
    last: Census
    #: Bytes the last batch retained (0 when not measured).
    retained: int
    #: Records the plane's event log gained over the last batch.
    records: int


def run_batches(
    observed: bool, batches: int = 3, size: int = BATCH, measure: bool = True
) -> Run:
    """*batches* batches of *size* workflows on one host: the census after
    the first and the last, and what the last batch retained (traced by
    tracemalloc from the start when *measure*, read before the census)."""
    if measure:
        tracemalloc.start()
    try:
        run = ObservedHost(SEED, observed=observed)
        run.run_batch(size)
        settle(run)
        first = take_census(run)
        for _ in range(batches - 2):
            run.run_batch(size)
        settle(run)
        before = tracemalloc.get_traced_memory()[0]
        records = len(run.plane._log._ring) if observed else 0
        run.run_batch(size)
        settle(run)
        retained = tracemalloc.get_traced_memory()[0] - before
        if observed:
            records = len(run.plane._log._ring) - records
    finally:
        tracemalloc.stop()
    return Run(first, take_census(run), retained if measure else 0, records)


@pytest.fixture(scope="module")
def runs() -> dict[str, Run]:
    return {mode: run_batches(mode == "observed") for mode in ("bare", "observed")}


@pytest.mark.contract
@pytest.mark.parametrize("mode", ["bare", "observed"])
def test_every_container_is_classified_and_nothing_outlives_its_workflow(
    runs, mode
):
    run = runs[mode]
    assert problems(run.first, run.last) == []


@pytest.mark.contract
def test_a_finished_workflow_leaves_its_result_and_ring_entries(runs):
    bare, observed = runs["bare"], runs["observed"]
    # A bare host keeps each finished workflow's WorkflowResult (≈ 1 KiB):
    # 7.08 KiB a workflow when it also kept the engine, the attempt
    # counters and the stored checkpoints.
    assert bare.retained / BATCH <= 2 * 1024, bare.retained / BATCH
    # Observed, the event log's ring is still filling after three batches
    # (as are the time-series rings and the tracker's finished ones) ...
    ring = observed.last.sizes["plane._log._ring"]
    assert observed.records > 0 and ring[0] < EVENT_LOG, (observed.records, ring)
    # ... and that is what the batch kept beyond the bare host: a record and
    # its payload (≈ 450 bytes a record, points sampled at each tick
    # included; ≈ 15 KiB a workflow in all).
    beyond = (observed.retained - bare.retained) / observed.records
    assert beyond <= 600, beyond


def _keeping(monkeypatch, cls, name, keep):
    """Wrap ``cls.name`` so that what *keep* says survives the call."""
    release = getattr(cls, name)

    def leaky(self, *args):
        kept = keep(self, *args)
        release(self, *args)
        kept()

    monkeypatch.setattr(cls, name, leaky)


def _engine_kept(host, wfid, result):
    engine = host._engines[wfid]
    return lambda: host._engines.__setitem__(wfid, engine)


def _counters_kept(gram, wfid):
    counters = gram._attempt_counters.get(wfid)
    return lambda: gram._attempt_counters.__setitem__(wfid, counters)


#: A leak planted in each release, and the table the census finds it in.
PLANTED = {
    "engine pop": (
        lambda mp: _keeping(mp, EngineHost, "_on_finished", _engine_kept),
        "host._engines",
    ),
    "attempt counters": (
        lambda mp: _keeping(mp, GramService, "release", _counters_kept),
        "grid.gram._attempt_counters",
    ),
    "store keys": (
        lambda mp: mp.setattr(MemoryCheckpointStore, "delete", lambda *a: None),
        "grid.store._data",
    ),
    "manager records": (
        lambda mp: mp.setattr(CheckpointManager, "clear", lambda *a: None),
        "host.runtime.checkpoints._records",
    ),
}


def test_a_job_given_up_on_while_queued_on_a_down_host_is_left_to_start():
    """Pins the defect :func:`disowned` describes: after the second batch
    of 20, four ``fetch`` jobs wait on the down ``vol2`` for no one."""
    run = run_batches(observed=False, batches=2, size=20, measure=False)
    assert (run.first.disowned, run.last.disowned) == (0, 4)


@pytest.mark.contract
@pytest.mark.parametrize("leak", sorted(PLANTED))
def test_a_planted_leak_fails_the_census(monkeypatch, leak):
    plant, table = PLANTED[leak]
    plant(monkeypatch)
    run = run_batches(observed=False, batches=2, size=20, measure=False)
    assert f"live table not empty between batches: {table}" in problems(
        run.first, run.last
    )
