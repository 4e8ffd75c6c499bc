"""Unit tests for simulated task behaviours (plan generation)."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckpt.store import MemoryCheckpointStore
from repro.execution import SubmitRequest
from repro.grid import GridConfig, SimulatedGrid
from repro.grid.behaviors import (
    CheckpointingTask,
    CrashingTask,
    ExceptionProneTask,
    FixedDurationTask,
    FlakyTask,
    PlanContext,
    Step,
)
from repro.grid.random import RandomStreams
from repro.grid.resource import RELIABLE


def ctx(attempt=1, checkpoint_state=None, job="job-1", seed=7):
    return PlanContext(
        activity="act",
        job_id=job,
        host=RELIABLE("h1"),
        attempt=attempt,
        streams=RandomStreams(seed=seed),
        checkpoint_state=checkpoint_state,
    )


class TestStep:
    def test_rejects_negative_offset(self):
        with pytest.raises(ValueError):
            Step(-1.0, "start")

    def test_rejects_unknown_action(self):
        with pytest.raises(ValueError):
            Step(0.0, "explode")


class TestFixedDuration:
    def test_plan_shape(self):
        plan = FixedDurationTask(30.0, result="r").plan(ctx())
        assert [s.action for s in plan] == ["start", "end"]
        assert plan[-1].offset == 30.0
        assert plan[-1].payload["result"] == "r"

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            FixedDurationTask(-1.0)


class TestCheckpointing:
    def test_fresh_plan_has_k_checkpoints_and_overhead(self):
        task = CheckpointingTask(duration=30.0, checkpoints=3, overhead=0.5)
        plan = task.plan(ctx())
        actions = [s.action for s in plan]
        assert actions == ["start", "checkpoint", "checkpoint", "checkpoint", "end"]
        # Each segment is 10 + 0.5; total 31.5.
        assert plan[-1].offset == pytest.approx(31.5)
        assert plan[1].offset == pytest.approx(10.5)
        assert plan[1].payload["state"] == {"segments_done": 1}
        assert plan[1].payload["progress"] == pytest.approx(1 / 3)

    def test_resume_skips_done_segments_and_pays_recovery(self):
        task = CheckpointingTask(
            duration=30.0, checkpoints=3, overhead=0.5, recovery_time=2.0
        )
        plan = task.plan(ctx(checkpoint_state={"segments_done": 2}))
        actions = [s.action for s in plan]
        assert actions == ["start", "checkpoint", "end"]
        # R + one segment (10 + 0.5).
        assert plan[-1].offset == pytest.approx(12.5)

    def test_resume_with_all_segments_done_ends_after_recovery(self):
        task = CheckpointingTask(duration=30.0, checkpoints=3, recovery_time=1.0)
        plan = task.plan(ctx(checkpoint_state={"segments_done": 3}))
        assert [s.action for s in plan] == ["start", "end"]
        assert plan[-1].offset == pytest.approx(1.0)

    def test_corrupt_state_clamped(self):
        task = CheckpointingTask(duration=30.0, checkpoints=3)
        plan = task.plan(ctx(checkpoint_state={"segments_done": 99}))
        assert plan[-1].action == "end"

    def test_segment_length_property(self):
        assert CheckpointingTask(30.0, 20).segment_length == pytest.approx(1.5)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CheckpointingTask(duration=0.0, checkpoints=5)
        with pytest.raises(ValueError):
            CheckpointingTask(duration=10.0, checkpoints=0)
        with pytest.raises(ValueError):
            CheckpointingTask(duration=10.0, checkpoints=2, overhead=-1.0)


class TestExceptionProne:
    def test_p_zero_always_succeeds(self):
        task = ExceptionProneTask(duration=30.0, checks=5, probability=0.0)
        plan = task.plan(ctx())
        assert plan[-1].action == "end"
        assert plan[-1].offset == pytest.approx(30.0)

    def test_p_one_fails_at_first_check(self):
        task = ExceptionProneTask(duration=30.0, checks=5, probability=1.0)
        plan = task.plan(ctx())
        assert plan[-1].action == "exception"
        assert plan[-1].offset == pytest.approx(6.0)
        exc = plan[-1].payload["exception"]
        assert exc.name == "disk_full"
        assert exc.data["check"] == 1

    def test_checkpointable_variant_saves_after_each_check(self):
        task = ExceptionProneTask(
            duration=30.0, checks=5, probability=0.0, checkpointable=True
        )
        plan = task.plan(ctx())
        checkpoints = [s for s in plan if s.action == "checkpoint"]
        assert len(checkpoints) == 5
        assert checkpoints[0].payload["state"] == {"checks_done": 1}

    def test_checkpointable_resume_skips_passed_checks(self):
        task = ExceptionProneTask(
            duration=30.0, checks=5, probability=0.0, checkpointable=True
        )
        plan = task.plan(ctx(checkpoint_state={"checks_done": 4}))
        assert sum(1 for s in plan if s.action == "checkpoint") == 1
        assert plan[-1].offset == pytest.approx(6.0)

    def test_different_attempts_draw_independently(self):
        task = ExceptionProneTask(duration=30.0, checks=1, probability=0.5)
        outcomes = {
            task.plan(ctx(job=f"job-{i}"))[-1].action for i in range(60)
        }
        assert outcomes == {"end", "exception"}

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            ExceptionProneTask(duration=10.0, checks=2, probability=1.5)


class TestCrashing:
    def test_crashes_on_first_attempts_then_succeeds(self):
        task = CrashingTask(duration=30.0, crash_at=5.0, crashes=2)
        assert task.plan(ctx(attempt=1))[-1].action == "crash"
        assert task.plan(ctx(attempt=2))[-1].action == "crash"
        assert task.plan(ctx(attempt=3))[-1].action == "end"

    def test_crashes_forever_with_none(self):
        task = CrashingTask(duration=30.0, crash_at=5.0, crashes=None)
        assert task.plan(ctx(attempt=100))[-1].action == "crash"

    def test_crash_at_bounds_checked(self):
        with pytest.raises(ValueError):
            CrashingTask(duration=10.0, crash_at=11.0)


class TestFlaky:
    def test_probability_zero_never_crashes(self):
        task = FlakyTask(duration=10.0, crash_probability=0.0)
        assert task.plan(ctx())[-1].action == "end"

    def test_probability_one_always_crashes_within_duration(self):
        task = FlakyTask(duration=10.0, crash_probability=1.0)
        plan = task.plan(ctx())
        assert plan[-1].action == "crash"
        assert 0.0 <= plan[-1].offset <= 10.0

    def test_same_context_is_deterministic(self):
        task = FlakyTask(duration=10.0, crash_probability=0.5)
        p1 = task.plan(ctx(seed=9))
        p2 = task.plan(ctx(seed=9))
        assert [(s.offset, s.action) for s in p1] == [(s.offset, s.action) for s in p2]


class CountingStreams(RandomStreams):
    """Counts the draws a plan makes."""

    def __init__(self, seed: int = 7) -> None:
        super().__init__(seed=seed)
        self.bernoullis = 0
        self.generators = 0

    def bernoulli(self, name, p):
        self.bernoullis += 1
        return super().bernoulli(name, p)

    def get(self, name):
        self.generators += 1
        return super().get(name)


_durations = st.floats(min_value=0.5, max_value=500.0, allow_nan=False)
_field_determined = st.one_of(
    st.builds(FixedDurationTask, duration=_durations, result=st.integers(0, 3)),
    st.builds(
        lambda duration, share, crashes: CrashingTask(
            duration=duration, crash_at=duration * share, crashes=crashes
        ),
        _durations,
        st.floats(min_value=0.0, max_value=1.0),
        st.one_of(st.none(), st.integers(0, 4)),
    ),
    st.builds(
        CheckpointingTask,
        duration=_durations,
        checkpoints=st.integers(1, 6),
        overhead=st.floats(min_value=0.0, max_value=3.0),
        recovery_time=st.floats(min_value=0.0, max_value=3.0),
    ),
)
_contexts = st.lists(
    st.tuples(
        st.integers(1, 7),  # attempt number
        st.one_of(st.none(), st.integers(-1, 8)),  # segments already done
    ),
    min_size=1,
    max_size=12,
)


class TestPlanOnce:
    @settings(max_examples=150, deadline=None)
    @given(behavior=_field_determined, contexts=_contexts)
    def test_a_memoised_plan_is_the_plan(self, behavior, contexts):
        seen = {}
        for attempt, done in contexts:
            state = None if done is None else {"segments_done": done}
            plan = behavior.plan(ctx(attempt=attempt, checkpoint_state=state))
            # A behaviour that has never planned before builds it afresh.
            fresh = dataclasses.replace(behavior).plan(
                ctx(attempt=attempt, checkpoint_state=state)
            )
            assert plan == fresh
            assert plan is not fresh
            key = tuple((s.offset, s.action) for s in plan)
            # ... and equal plans of one behaviour are one list.
            assert seen.setdefault(key, plan) is plan

    def test_rng_behaviours_plan_afresh_and_draw_as_before(self):
        prone = ExceptionProneTask(duration=30.0, checks=5, probability=0.2)
        flaky = FlakyTask(duration=10.0, crash_probability=0.5)
        streams = CountingStreams()

        def context(i, streams):
            return PlanContext("act", f"job-{i}", RELIABLE("h1"), 1, streams)

        outcomes = set()
        for i in range(40):
            streams.bernoullis = streams.generators = 0
            plan = prone.plan(context(i, streams))
            last = plan[-1]
            checks_run = (
                5 if last.action == "end" else last.payload["exception"].data["check"]
            )
            # One Bernoulli per check reached, on every attempt ...
            assert streams.bernoullis == checks_run
            # ... and the plan an unshared behaviour draws from scratch.
            assert plan == dataclasses.replace(prone).plan(
                context(i, RandomStreams(7))
            )

            streams.bernoullis = streams.generators = 0
            plan = flaky.plan(context(i, streams))
            crashed = plan[-1].action == "crash"
            # The Bernoulli, then a uniform only when it crashes (each
            # fetches the attempt's generator once).
            assert (streams.bernoullis, streams.generators) == (1, 1 + crashed)
            assert plan == dataclasses.replace(flaky).plan(
                context(i, RandomStreams(7))
            )
            outcomes |= {last.action, plan[-1].action}
        assert outcomes == {"end", "exception", "crash"}

    def test_attempts_sharing_a_plan_save_independent_states(self):
        class KeepingStore(MemoryCheckpointStore):
            """Keeps the very dict it is handed (a store need not copy)."""

            def save(self, key, state):
                self._data[key] = state

            def load(self, key):
                return self._data[key]

        store = KeepingStore()
        grid = SimulatedGrid(config=GridConfig(heartbeats=False), store=store)
        grid.add_host(RELIABLE("h1", slots=None))
        task = CheckpointingTask(duration=20.0, checkpoints=2)
        grid.install("h1", "task", task)
        grid.connect(lambda msg: None)
        for name in ("a", "b"):
            grid.submit(SubmitRequest(activity=name, executable="task", hostname="h1"))
        grid.run()
        first_a, first_b = (store.load(k) for k in store.keys() if k.endswith("@10.5"))
        assert first_a == first_b == {"segments_done": 1}
        shared = task.plan(ctx())[1].payload["state"]
        assert first_a is not first_b and first_a is not shared
        first_a["segments_done"] = 99
        assert first_b == shared == {"segments_done": 1}
