"""Unit tests for the SimulatedGrid facade and scripted failure injection."""

from __future__ import annotations

import pytest

from repro.detection.messages import Done, Heartbeat, TaskEnd
from repro.errors import GridError
from repro.execution import SubmitRequest
from repro.grid import (
    RELIABLE,
    UNRELIABLE,
    FailureEvent,
    FailureScript,
    FixedDurationTask,
    GridConfig,
    SimulatedGrid,
    inject_crash,
    inject_partition,
)


class TestConstruction:
    def test_add_host_and_lookup(self):
        grid = SimulatedGrid()
        grid.add_host(RELIABLE("n1"))
        assert grid.host("n1").hostname == "n1"

    def test_duplicate_host_rejected(self):
        grid = SimulatedGrid()
        grid.add_host(RELIABLE("n1"))
        with pytest.raises(GridError, match="duplicate"):
            grid.add_host(RELIABLE("n1"))

    def test_unknown_host_lookup_raises(self):
        with pytest.raises(GridError):
            SimulatedGrid().host("nope")

    def test_install_everywhere(self):
        grid = SimulatedGrid()
        grid.add_host(RELIABLE("a"))
        grid.add_host(RELIABLE("b"))
        grid.install_everywhere("t", FixedDurationTask(1.0))
        assert grid.host("a").resolve("t") is grid.host("b").resolve("t")

    def test_install_everywhere_requires_hosts(self):
        with pytest.raises(GridError):
            SimulatedGrid().install_everywhere("t", FixedDurationTask(1.0))

    def test_install_on_unknown_host(self):
        with pytest.raises(GridError):
            SimulatedGrid().install("ghost", "t", FixedDurationTask(1.0))

    def test_same_seed_same_simulation(self):
        def crashes(seed):
            grid = SimulatedGrid(seed=seed, config=GridConfig(heartbeats=False))
            grid.add_host(UNRELIABLE("n1", mttf=10.0))
            grid.kernel.run_until(1000.0)
            return grid.host("n1").crash_count

        assert crashes(5) == crashes(5)
        assert crashes(5) != crashes(6)


class TestExecutionServiceInterface:
    def test_submit_and_messages(self):
        grid = SimulatedGrid(config=GridConfig(heartbeats=False))
        grid.add_host(RELIABLE("n1"))
        grid.install("n1", "t", FixedDurationTask(3.0, result="ok"))
        seen = []
        grid.connect(seen.append)
        grid.submit(SubmitRequest(activity="a", executable="t", hostname="n1"))
        grid.run()
        assert any(isinstance(m, TaskEnd) and m.result == "ok" for m in seen)

    def test_network_latency_config(self):
        grid = SimulatedGrid(
            config=GridConfig(heartbeats=False, network_latency=1.5)
        )
        grid.add_host(RELIABLE("n1"))
        grid.install("n1", "t", FixedDurationTask(2.0))
        arrivals = []
        grid.connect(lambda m: arrivals.append((type(m).__name__, grid.now())))
        grid.submit(SubmitRequest(activity="a", executable="t", hostname="n1"))
        grid.run()
        assert arrivals[0] == ("TaskStart", 1.5)
        assert ("Done", 3.5) in arrivals


class TestFailureInjection:
    def test_inject_crash_with_duration(self):
        grid = SimulatedGrid(config=GridConfig(heartbeats=False))
        grid.add_host(RELIABLE("n1"))
        host = grid.host("n1")
        inject_crash(grid.kernel, host, at=5.0, duration=3.0)
        grid.kernel.run_until(6.0)
        assert not host.up
        grid.kernel.run_until(9.0)
        assert host.up

    def test_inject_partition_window(self):
        grid = SimulatedGrid(config=GridConfig(heartbeats=False))
        grid.add_host(RELIABLE("n1"))
        inject_partition(grid.kernel, grid.network, "n1", at=2.0, duration=4.0)
        stats = grid.network.stats
        grid.kernel.run_until(3.0)
        grid.network.send("n1", Heartbeat(hostname="n1"))
        assert stats.dropped_partition == 1
        grid.kernel.run_until(7.0)
        grid.network.send("n1", Heartbeat(hostname="n1"))
        assert stats.dropped_partition == 1

    def test_failure_script_fires_in_order(self):
        grid = SimulatedGrid(config=GridConfig(heartbeats=False))
        grid.add_host(RELIABLE("n1"))
        script = FailureScript(
            [
                FailureEvent(10.0, "n1", "recover"),
                FailureEvent(5.0, "n1", "crash"),
            ]
        )
        script.arm(grid.kernel, grid.hosts, grid.network)
        grid.kernel.run_until(7.0)
        assert not grid.host("n1").up
        grid.kernel.run_until(12.0)
        assert grid.host("n1").up
        assert [e.kind for e in script.fired] == ["crash", "recover"]

    def test_failure_script_unknown_host(self):
        grid = SimulatedGrid()
        script = FailureScript([FailureEvent(1.0, "ghost", "crash")])
        with pytest.raises(GridError):
            script.arm(grid.kernel, grid.hosts, grid.network)

    def test_failure_event_validation(self):
        with pytest.raises(GridError):
            FailureEvent(-1.0, "n1", "crash")
        with pytest.raises(GridError):
            FailureEvent(1.0, "n1", "meltdown")
