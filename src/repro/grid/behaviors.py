"""Simulated task behaviours.

In the real Grid-WFS, an activity's executable is an arbitrary program that
emits event notifications through the task-side API.  Inside the simulation
an executable is a :class:`TaskBehavior`: a pure *planner* that, given the
attempt's context (host, attempt number, checkpoint state, RNG streams),
returns the timeline of observable actions the process will take —
notifications, checkpoint saves, a crash, or a successful end.

Keeping behaviours as pure planners (no internal mutable state) means the
same behaviour object can serve every attempt and every replica, with all
randomness drawn from named streams so runs are reproducible.

It also means a plan that only the behaviour's own fields determine is the
same plan every time: :class:`FixedDurationTask`, :class:`CrashingTask` and
:class:`CheckpointingTask` (per resume point) build and validate their
steps once per behaviour object and hand every attempt the same list.
Plans are therefore **read-only** for callers — a subclass that varies a
step builds a new :class:`Step` rather than editing one it was handed.
Behaviours that draw from the RNG streams plan afresh per attempt.

The behaviours here cover the paper's evaluation workloads:

* :class:`FixedDurationTask` — plain task of duration F;
* :class:`CheckpointingTask` — K checkpoints with overhead C and recovery
  time R (Section 8.1's parameters);
* :class:`ExceptionProneTask` — the Fast_Unreliable_Task of Figure 6/13:
  Bernoulli ``disk_full`` checks during execution;
* :class:`CrashingTask` / :class:`FlakyTask` — deterministic / stochastic
  software crashes for tests and examples.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, NamedTuple

from ..core.exceptions import UserException
from .random import RandomStreams
from .resource import ResourceSpec

__all__ = [
    "Step",
    "PlanContext",
    "TaskBehavior",
    "FixedDurationTask",
    "CheckpointingTask",
    "ExceptionProneTask",
    "CrashingTask",
    "FlakyTask",
]


@dataclass(frozen=True)
class Step:
    """One observable action in an attempt's timeline.

    ``offset`` is in *nominal* task seconds from attempt start; the job
    runner divides by the host's speed factor.  ``action`` is one of:

    - ``"start"`` — emit TaskStart;
    - ``"checkpoint"`` — persist ``payload["state"]`` under a store key and
      emit a CheckpointNotice carrying that key as the flag;
    - ``"exception"`` — emit an ExceptionNotice with ``payload["exception"]``
      and terminate abnormally;
    - ``"crash"`` — terminate without TaskEnd (Done with nonzero exit);
    - ``"end"`` — emit TaskEnd (``payload["result"]``) then a clean Done.
    """

    offset: float
    action: str
    payload: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise ValueError(f"step offset must be >= 0, got {self.offset!r}")
        if self.action not in {"start", "checkpoint", "exception", "crash", "end"}:
            raise ValueError(f"unknown step action: {self.action!r}")


class PlanContext(NamedTuple):
    """Everything a behaviour may condition its plan on.

    A ``NamedTuple`` rather than a dataclass, like
    :class:`repro.obs.tracectx.TraceContext`: one is minted per attempt,
    and GRAM builds it with a single ``tuple.__new__``.
    """

    activity: str
    job_id: str
    host: ResourceSpec
    #: 1-based attempt counter for this activity (retries increment it).
    attempt: int
    streams: RandomStreams
    #: Saved checkpoint state when resuming, else None.
    checkpoint_state: dict[str, Any] | None = None

    def stream(self, suffix: str) -> str:
        """Name of an RNG stream unique to this attempt."""
        return f"task.{self.activity}.{self.job_id}.{suffix}"


class TaskBehavior(ABC):
    """A simulated executable: plans the attempt's observable timeline."""

    @abstractmethod
    def plan(self, ctx: PlanContext) -> list[Step]:
        """Return the attempt's steps in nondecreasing offset order, always
        beginning with a ``start`` step and ending with a terminal step
        (``end``, ``crash`` or ``exception``).  The list may be shared
        with other attempts: callers must not modify it or its steps."""

    @staticmethod
    def _validated(steps: list[Step]) -> list[Step]:
        if not steps or steps[0].action != "start":
            raise ValueError("a plan must begin with a 'start' step")
        if steps[-1].action not in {"end", "crash", "exception"}:
            raise ValueError("a plan must end with a terminal step")
        offsets = [s.offset for s in steps]
        if offsets != sorted(offsets):
            raise ValueError("plan offsets must be nondecreasing")
        return steps


@dataclass(frozen=True)
class FixedDurationTask(TaskBehavior):
    """Runs for ``duration`` nominal seconds, then succeeds."""

    duration: float
    result: Any = None

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"duration must be >= 0, got {self.duration!r}")

    def plan(self, ctx: PlanContext) -> list[Step]:
        return self._plan

    @cached_property
    def _plan(self) -> list[Step]:
        return self._validated(
            [
                Step(0.0, "start"),
                Step(self.duration, "end", {"result": self.result}),
            ]
        )


@dataclass(frozen=True)
class CheckpointingTask(TaskBehavior):
    """A checkpoint-enabled task: F split into K segments of a = F/K.

    After each segment the task writes a checkpoint costing ``overhead``
    (the paper's C) and notifies the framework.  When restarted from a
    checkpoint flag it first pays ``recovery_time`` (the paper's R) to
    restore state, then executes only the remaining segments.

    Failure-free completion time is therefore ``F + K*C`` — checkpointing's
    overhead cost, which is exactly why it loses to plain retrying at large
    MTTF in Figure 10.
    """

    duration: float
    checkpoints: int
    overhead: float = 0.5
    recovery_time: float = 0.5
    result: Any = None

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration!r}")
        if self.checkpoints < 1:
            raise ValueError(
                f"checkpoints must be >= 1, got {self.checkpoints!r}"
            )
        if self.overhead < 0 or self.recovery_time < 0:
            raise ValueError("overhead and recovery_time must be >= 0")

    @property
    def segment_length(self) -> float:
        """Uninterrupted execution time between checkpoints (the paper's a)."""
        return self.duration / self.checkpoints

    def plan(self, ctx: PlanContext) -> list[Step]:
        done_segments = 0
        if ctx.checkpoint_state is not None:
            done_segments = int(ctx.checkpoint_state.get("segments_done", 0))
            done_segments = max(0, min(done_segments, self.checkpoints))
        plans = self._plans
        steps = plans.get(done_segments)
        if steps is None:
            steps = plans[done_segments] = self._plan_from(done_segments)
        return steps

    @cached_property
    def _plans(self) -> dict[int, list[Step]]:
        """Resume point (segments already done) → plan, filled on demand."""
        return {}

    def _plan_from(self, done_segments: int) -> list[Step]:
        steps = [Step(0.0, "start")]
        # Restoring saved state costs R (only when actually resuming).
        t = self.recovery_time if done_segments > 0 else 0.0
        a = self.segment_length
        for seg in range(done_segments + 1, self.checkpoints + 1):
            t += a + self.overhead
            steps.append(
                Step(
                    t,
                    "checkpoint",
                    {
                        "state": {"segments_done": seg},
                        "progress": seg / self.checkpoints,
                    },
                )
            )
        steps.append(Step(t, "end", {"result": self.result}))
        return self._validated(steps)


@dataclass(frozen=True)
class ExceptionProneTask(TaskBehavior):
    """The Fast_Unreliable_Task of Figures 6 and 13.

    During its ``duration``, the task performs ``checks`` evenly spaced
    resource checks (every ``duration/checks``); each check independently
    raises the user-defined exception with probability ``probability``
    (a Bernoulli process, per Section 8.2).  If all checks pass the task
    ends successfully.

    When ``checkpointable`` is true the task also writes a checkpoint after
    each passed check, so a retry-from-checkpoint resumes at the last good
    check (the "Checkpointing" curve of Figure 13).
    """

    duration: float
    checks: int
    probability: float
    exception_name: str = "disk_full"
    checkpointable: bool = False
    overhead: float = 0.0
    recovery_time: float = 0.0
    result: Any = None

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration!r}")
        if self.checks < 1:
            raise ValueError(f"checks must be >= 1, got {self.checks!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability!r}"
            )

    @property
    def check_interval(self) -> float:
        return self.duration / self.checks

    def plan(self, ctx: PlanContext) -> list[Step]:
        rng_name = ctx.stream("exception")
        done_checks = 0
        if self.checkpointable and ctx.checkpoint_state is not None:
            done_checks = int(ctx.checkpoint_state.get("checks_done", 0))
            done_checks = max(0, min(done_checks, self.checks))
        steps = [Step(0.0, "start")]
        t = self.recovery_time if done_checks > 0 else 0.0
        interval = self.check_interval
        for check in range(done_checks + 1, self.checks + 1):
            t += interval
            if ctx.streams.bernoulli(rng_name, self.probability):
                steps.append(
                    Step(
                        t,
                        "exception",
                        {
                            "exception": UserException(
                                name=self.exception_name,
                                message=f"check {check}/{self.checks} failed",
                                data={"check": check},
                            )
                        },
                    )
                )
                return self._validated(steps)
            if self.checkpointable:
                t += self.overhead
                steps.append(
                    Step(
                        t,
                        "checkpoint",
                        {
                            "state": {"checks_done": check},
                            "progress": check / self.checks,
                        },
                    )
                )
        steps.append(Step(t, "end", {"result": self.result}))
        return self._validated(steps)


@dataclass(frozen=True)
class CrashingTask(TaskBehavior):
    """Crashes deterministically on the first ``crashes`` attempts at
    ``crash_at`` seconds, then behaves like :class:`FixedDurationTask`.

    ``crashes=None`` crashes on every attempt (a task that can never
    succeed — useful for exercising fail-to-mask escalation)."""

    duration: float
    crash_at: float
    crashes: int | None = 1
    result: Any = None

    def __post_init__(self) -> None:
        if not 0 <= self.crash_at <= self.duration:
            raise ValueError("crash_at must lie within [0, duration]")

    def plan(self, ctx: PlanContext) -> list[Step]:
        if self.crashes is None or ctx.attempt <= self.crashes:
            return self._crash_plan
        return self._end_plan

    @cached_property
    def _crash_plan(self) -> list[Step]:
        return self._validated([Step(0.0, "start"), Step(self.crash_at, "crash")])

    @cached_property
    def _end_plan(self) -> list[Step]:
        return self._validated(
            [Step(0.0, "start"), Step(self.duration, "end", {"result": self.result})]
        )


@dataclass(frozen=True)
class FlakyTask(TaskBehavior):
    """Crashes with probability ``crash_probability`` per attempt, at a
    uniformly random point of its execution."""

    duration: float
    crash_probability: float
    result: Any = None

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration!r}")
        if not 0.0 <= self.crash_probability <= 1.0:
            raise ValueError(
                "crash_probability must be in [0, 1], "
                f"got {self.crash_probability!r}"
            )

    def plan(self, ctx: PlanContext) -> list[Step]:
        rng_name = ctx.stream("flaky")
        if ctx.streams.bernoulli(rng_name, self.crash_probability):
            point = float(ctx.streams.get(rng_name).uniform(0, self.duration))
            return self._validated([Step(0.0, "start"), Step(point, "crash")])
        return self._validated(
            [Step(0.0, "start"), Step(self.duration, "end", {"result": self.result})]
        )


# Guard against NaN sneaking into plans through arithmetic on parameters.
def _finite(value: float, name: str) -> float:  # pragma: no cover - helper
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value
