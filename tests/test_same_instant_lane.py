"""The same-instant lane and the one-timer job against their reference
models (:mod:`tests.eager_models`): same callbacks, same order, same
clock, same counters — and fewer heap operations, counted exactly."""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.grid.gram
import repro.grid.simgrid
import repro.grid.simkernel
from repro.detection import FailureDetector, encode
from repro.engine import EngineHost
from repro.events import EventBus
from repro.execution import SubmitRequest
from repro.grid import (
    RELIABLE,
    CheckpointingTask,
    FixedDurationTask,
    GridConfig,
    SimKernel,
    SimulatedGrid,
)
from repro.gridspec import build_grid
from repro.timerheap import COMPACT_MIN_CANCELLED
from tests.eager_models import EagerJobProcess, HeapKernel
from tests.obs_plane import ADMIT_INTERVAL, VARIANTS, faulty_gridspec, mosaic_variant

# -- (a) random programs on both kernels ----------------------------------------


@dataclass
class Sched:
    """Schedule a callback that logs itself, then runs *body*."""

    delay: float
    body: list = field(default_factory=list)


@dataclass
class Chain:
    """A job-like owner: one timer walked through *offsets* (nondecreasing,
    from the moment of scheduling) by re-arming it in place, on reserved
    sequence numbers when *reserved*, else on fresh ones."""

    offsets: list[float]
    reserved: bool
    body: list = field(default_factory=list)


@dataclass
class Cancel:
    index: int


@dataclass
class Drive:
    how: str  # run | run_until | step | run_until_done | deadline | reset
    arg: float = 0.0


# Zero (the lane), values that collide, values that do not.
_delays = st.one_of(
    st.just(0.0),
    st.sampled_from([0.5, 1.0, 1.0, 2.0]),
    st.floats(min_value=0.001, max_value=3.0, allow_nan=False),
)


def _actions(inner):
    return st.lists(
        st.one_of(
            st.builds(Sched, _delays, inner),
            st.builds(
                Chain,
                st.lists(_delays, min_size=1, max_size=4).map(
                    lambda steps: [sum(steps[: i + 1]) for i in range(len(steps))]
                ),
                st.booleans(),
                inner,
            ),
            st.builds(Cancel, st.integers(0, 30)),
        ),
        max_size=4,
    )


_body = st.recursive(st.just([]), _actions, max_leaves=12)
_drives = st.one_of(
    st.builds(Drive, st.just("run")),
    st.builds(Drive, st.just("run_until"), st.floats(0.0, 4.0)),
    st.builds(Drive, st.just("step"), st.integers(1, 5).map(float)),
    st.builds(Drive, st.just("run_until_done"), st.integers(1, 6).map(float)),
    st.builds(Drive, st.just("deadline"), st.floats(0.0, 4.0)),
    st.builds(Drive, st.just("reset")),
)
_programs = st.lists(st.one_of(_actions(_body), _drives), min_size=1, max_size=8)


def _execute(kernel, program) -> list:
    """Run *program* on *kernel*; everything observable, in order."""
    log: list = []
    handles: list = []
    labels = iter(range(10**9))

    def perform(actions) -> None:
        for action in actions:
            if isinstance(action, Sched):
                label = next(labels)

                def fired(label=label, body=action.body) -> None:
                    log.append((label, kernel.now()))
                    perform(body)

                handles.append(kernel.schedule(action.delay, fired))
            elif isinstance(action, Chain):
                start_chain(next(labels), action)
            elif handles:
                handles[action.index % len(handles)].cancel()

    def start_chain(label: int, chain: Chain) -> None:
        offsets = chain.offsets
        t0 = kernel.now()
        position = [0]

        def fired() -> None:
            index = position[0]
            log.append((label, index, kernel.now()))
            position[0] = index = index + 1
            if index < len(offsets):
                kernel.rearm(
                    handle,
                    armed,
                    t0 + offsets[index],
                    first + index - 1 if chain.reserved else None,
                )
            perform(chain.body)

        handle = kernel.schedule(offsets[0], fired)
        armed = handle.callback
        first = kernel.reserve(len(offsets) - 1) if chain.reserved else 0
        handles.append(handle)

    for item in program:
        if isinstance(item, list):
            perform(item)
        elif item.how == "run":
            log.append(("ran", kernel.run()))
        elif item.how == "run_until":
            log.append(("ran", kernel.run_until(kernel.now() + item.arg)))
        elif item.how == "step":
            log.append(("stepped", [kernel.step() for _ in range(int(item.arg))]))
        elif item.how == "run_until_done":
            target = kernel.events_processed + int(item.arg)
            kernel.run_until_done(lambda: kernel.events_processed >= target)
        elif item.how == "deadline":
            kernel.run_until_done(lambda: False, kernel.now() + item.arg)
        else:
            kernel.reset()
            handles.clear()
        stats = kernel.stats()
        log.append(
            (
                "stats",
                kernel.now(),
                stats["events_processed"],
                stats["timers_scheduled"],
                stats["pending"],
                kernel.pending(),
            )
        )
    return log


@settings(max_examples=300, deadline=None)
@given(_programs)
def test_lane_kernel_fires_what_the_pure_heap_fires(program):
    assert _execute(SimKernel(), program) == _execute(HeapKernel(), program)


def test_a_due_now_entry_with_an_older_reserved_seq_fires_first():
    # The case the lane's ordering rule exists for: a re-armed step that
    # is due at this very instant but was numbered before the hops
    # already waiting in the lane.
    program = [
        [
            Chain(
                [1.0, 1.0, 1.0],
                True,
                body=[Sched(0.0), Sched(0.0)],
            )
        ],
        Drive("run"),
    ]
    log = _execute(SimKernel(), program)
    assert log == _execute(HeapKernel(), program)
    fired = [entry for entry in log if entry[0] not in ("ran", "stats")]
    # All three chain steps (label 0) fire before any hop they scheduled.
    assert [entry[0] for entry in fired] == [0, 0, 0, 1, 2, 3, 4, 5, 6]


class TestLaneHandles:
    def test_cancel_and_when_mean_the_same_in_the_lane(self, kernel):
        fired = []
        kernel.schedule(2.0, lambda: None)
        kernel.run()
        hop = kernel.schedule(0.0, lambda: fired.append("hop"))
        timer = kernel.schedule(1.0, lambda: fired.append("timer"))
        assert (hop.when, timer.when) == (2.0, 3.0)
        assert kernel.pending() == 2
        hop.cancel()
        hop.cancel()
        assert hop.cancelled and not timer.cancelled
        assert kernel.pending() == 1
        assert kernel.run() == 1 and fired == ["timer"]
        assert kernel.stats()["timers_cancelled"] == 1

    def test_lane_cancellations_put_no_pressure_on_the_heap(self, kernel):
        # Compaction is justified by the heap's own length alone: a
        # hundred cancelled hops must not rebuild a heap of live timers.
        floor = COMPACT_MIN_CANCELLED
        timers = [kernel.schedule(5.0, lambda: None) for _ in range(floor)]
        hops = [kernel.schedule(0.0, lambda: None) for _ in range(2 * floor)]
        for hop in hops:
            hop.cancel()
        stats = kernel.stats()
        assert stats["timers_cancelled"] == len(hops)
        assert stats["compactions"] == 0
        assert kernel.run() == len(timers)
        assert kernel.stats()["compactions"] == 0

    def test_only_a_fired_timer_can_be_rearmed(self, kernel):
        handle = kernel.schedule(1.0, lambda: None)
        callback = handle.callback
        with pytest.raises(ValueError, match="fired"):
            kernel.rearm(handle, callback, 2.0)
        handle.cancel()
        with pytest.raises(ValueError, match="fired"):
            kernel.rearm(handle, callback, 2.0)
        other = kernel.schedule(1.0, lambda: None)
        kernel.run()
        with pytest.raises(ValueError, match="past"):
            kernel.rearm(other, other.callback, 0.5)


# -- (b) a faulty batch under eager and re-armed scheduling ----------------------


def _faulty_batch_log(seed: int) -> str:
    """100 mosaic instances (replication, a retried branch racing a
    reliable one into an OR join, a checkpointing solver) on eight
    crashing hosts with heartbeats; returns every message the detector was
    delivered, one encoded line each, prefixed with its delivery time."""
    grid = build_grid(faulty_gridspec(seed))
    bus = EventBus()
    detector = FailureDetector(
        grid.reactor, bus, heartbeat_timeout=3.0, batch_heartbeats=True
    )
    deliver = detector.deliver
    arrivals = []
    lines = []

    def timed(msg) -> None:
        arrivals.append(grid.kernel.now())
        lines.append(json.dumps(encode(msg), sort_keys=True))
        deliver(msg)

    detector.deliver = timed  # the engine host connects the grid to this
    host = EngineHost(grid, reactor=grid.reactor, bus=bus, detector=detector)
    specs = [mosaic_variant(v) for v in range(VARIANTS)]
    for i in range(100):
        grid.reactor.call_later(
            ADMIT_INTERVAL * i,
            lambda i=i: host.submit(specs[i % len(specs)], validate_spec=False),
        )
    finished = []
    bus.subscribe("engine.workflow_finished", lambda _t, _p: finished.append(1))
    grid.reactor.run_until_complete(lambda: len(finished) == 100, timeout=1e9)
    results = host.results()
    assert len(results) == 100 and all(r.succeeded for r in results.values())
    hosts = grid.hosts.values()
    assert sum(h.crash_count for h in hosts) >= 10
    assert sum(h.jobs_killed for h in hosts) >= 50
    assert len(lines) == len(arrivals) > 3000
    assert any('"kind": "checkpoint"' in line for line in lines)
    return "\n".join(f"{at!r} {line}" for at, line in zip(arrivals, lines))


@pytest.mark.parametrize("seed", [20030623, 19990803])
def test_faulty_batch_messages_match_the_eager_pure_heap_model(seed, monkeypatch):
    rearmed = _faulty_batch_log(seed)
    monkeypatch.setattr(repro.grid.simgrid, "SimKernel", HeapKernel)
    monkeypatch.setattr(repro.grid.gram, "JobProcess", EagerJobProcess)
    eager = _faulty_batch_log(seed)
    assert rearmed == eager


# -- (c) heap operations per attempt, to the unit --------------------------------


@pytest.fixture
def heap_pushes(monkeypatch):
    """Counts ``heappush`` where the kernel looks it up."""
    pushes = []
    real = repro.grid.simkernel.heappush

    def counting(heap, entry) -> None:
        pushes.append(entry)
        real(heap, entry)

    monkeypatch.setattr(repro.grid.simkernel, "heappush", counting)
    return pushes


class _CountingLane(deque):
    appended = 0

    def append(self, entry) -> None:
        self.appended += 1
        super().append(entry)


def _one_host_grid(behavior):
    """A reliable zero-latency host running *behavior*; the messages the
    client sees; the kernel's lane, counting what joins it."""
    grid = SimulatedGrid(config=GridConfig(heartbeats=False))
    grid.add_host(RELIABLE("n1"))
    grid.install("n1", "task", behavior)
    seen = []
    grid.connect(seen.append)
    assert grid.kernel.pending() == 0
    lane = grid.kernel._lane = _CountingLane()
    return grid, seen, lane


def _request() -> SubmitRequest:
    return SubmitRequest(activity="act", executable="task", hostname="n1")


def test_a_fault_free_attempt_is_one_heap_push_and_four_lane_turns(heap_pushes):
    grid, seen, lane = _one_host_grid(FixedDurationTask(10.0))
    grid.submit(_request())
    assert grid.run() == 5
    assert [type(m).__name__ for m in seen] == ["TaskStart", "TaskEnd", "Done"]
    # The end step waits in the heap; the start step and the three
    # deliveries are same-instant hops.
    assert len(heap_pushes) == 1
    assert lane.appended == 4
    stats = grid.kernel.stats()
    assert stats["timers_scheduled"] == 5 and stats["timers_cancelled"] == 0


def test_a_killed_checkpointing_attempt_cancels_its_one_timer(heap_pushes):
    grid, seen, _lane = _one_host_grid(
        CheckpointingTask(100.0, checkpoints=20)
    )
    job = grid.submit(_request())
    # Past the first checkpoint (t = 5.5), short of the second (t = 11).
    grid.kernel.schedule(8.0, lambda: grid.cancel(job))
    grid.run()
    assert [type(m).__name__ for m in seen] == ["TaskStart", "CheckpointNotice"]
    # The first checkpoint's timer, the second's, and the test's own
    # cancel timer; 19 checkpoints and the end were never queued.
    assert len(heap_pushes) <= 3
    stats = grid.kernel.stats()
    assert stats["timers_cancelled"] == 1
    assert stats["timers_scheduled"] == 22 + 1 + 2  # steps, cancel, deliveries
    assert stats["pending"] == 0
