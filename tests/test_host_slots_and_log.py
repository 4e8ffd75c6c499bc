"""Tests for host execution slots (jobmanager queueing)."""

from __future__ import annotations

import math

import pytest

from repro.detection.messages import TaskEnd
from repro.execution import SubmitRequest
from repro.grid import FixedDurationTask, GridConfig, ResourceSpec, SimulatedGrid


def slotted_grid(slots):
    grid = SimulatedGrid(config=GridConfig(heartbeats=False))
    grid.add_host(ResourceSpec(hostname="h1", mttf=math.inf, slots=slots))
    grid.install("h1", "t", FixedDurationTask(10.0))
    return grid


def submit_n(grid, n):
    for i in range(n):
        grid.submit(SubmitRequest(activity=f"a{i}", executable="t", hostname="h1"))


class TestSlots:
    def test_single_slot_serialises_jobs(self):
        grid = slotted_grid(1)
        seen = []
        grid.connect(seen.append)
        submit_n(grid, 3)
        grid.run()
        ends = [m.sent_at for m in seen if isinstance(m, TaskEnd)]
        assert ends == [10.0, 20.0, 30.0]

    def test_two_slots_pair_up(self):
        grid = slotted_grid(2)
        seen = []
        grid.connect(seen.append)
        submit_n(grid, 4)
        grid.run()
        ends = [m.sent_at for m in seen if isinstance(m, TaskEnd)]
        assert ends == [10.0, 10.0, 20.0, 20.0]

    def test_unlimited_by_default(self):
        grid = slotted_grid(None)
        seen = []
        grid.connect(seen.append)
        submit_n(grid, 5)
        grid.run()
        ends = [m.sent_at for m in seen if isinstance(m, TaskEnd)]
        assert ends == [10.0] * 5

    def test_cancelled_queued_job_releases_no_slot_twice(self):
        grid = slotted_grid(1)
        seen = []
        grid.connect(seen.append)
        j1 = grid.submit(SubmitRequest(activity="a", executable="t", hostname="h1"))
        j2 = grid.submit(SubmitRequest(activity="b", executable="t", hostname="h1"))
        grid.cancel(j2)  # cancelled while queued
        grid.run()
        ends = [m for m in seen if isinstance(m, TaskEnd)]
        assert len(ends) == 1

    def test_crash_kills_running_and_preserves_queue(self):
        grid = slotted_grid(1)
        seen = []
        grid.connect(seen.append)
        submit_n(grid, 2)
        grid.kernel.schedule(5.0, lambda: grid.host("h1").crash(schedule_recovery=False))
        grid.kernel.schedule(8.0, grid.host("h1").recover)
        grid.run()
        ends = [m.sent_at for m in seen if isinstance(m, TaskEnd)]
        # Job 1 killed at 5; job 2 starts at recovery (8) and ends at 18.
        assert ends == [18.0]

    def test_invalid_slots_rejected(self):
        with pytest.raises(ValueError):
            ResourceSpec(hostname="h", slots=0)
