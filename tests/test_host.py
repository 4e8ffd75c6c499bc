"""Unit tests for the simulated host lifecycle."""

from __future__ import annotations

import pytest

from repro.detection.messages import Heartbeat
from repro.errors import GridError, UnknownExecutableError
from repro.grid.behaviors import FixedDurationTask
from repro.grid.host import Host, HostState
from repro.grid.network import Network
from repro.grid.random import RandomStreams
from repro.grid.resource import RELIABLE, UNRELIABLE


@pytest.fixture
def net(kernel):
    return Network(kernel, RandomStreams(seed=5))


def make_host(kernel, net, spec, **kwargs):
    return Host(kernel, net, RandomStreams(seed=5), spec, **kwargs)


class TestLifecycle:
    def test_reliable_host_never_crashes(self, kernel, net):
        host = make_host(kernel, net, RELIABLE("n1"))
        kernel.run_until(10_000.0)
        assert host.up and host.crash_count == 0

    def test_unreliable_host_crashes_and_recovers(self, kernel, net):
        host = make_host(kernel, net, UNRELIABLE("n1", mttf=50.0, mean_downtime=5.0))
        kernel.run_until(5_000.0)
        assert host.crash_count > 10  # ~100 expected

    def test_crash_rate_approximates_mttf(self, kernel, net):
        host = make_host(kernel, net, UNRELIABLE("n1", mttf=50.0))
        horizon = 50_000.0
        kernel.run_until(horizon)
        expected = horizon / 50.0
        assert 0.8 * expected < host.crash_count < 1.2 * expected

    def test_forced_crash_and_recover(self, kernel, net):
        host = make_host(kernel, net, RELIABLE("n1"))
        host.crash(schedule_recovery=False)
        assert host.state is HostState.DOWN
        host.recover()
        assert host.state is HostState.UP

    def test_crash_idempotent_when_down(self, kernel, net):
        host = make_host(kernel, net, RELIABLE("n1"))
        host.crash(schedule_recovery=False)
        host.crash(schedule_recovery=False)
        assert host.crash_count == 1

    def test_crash_and_recover_listeners(self, kernel, net):
        host = make_host(kernel, net, RELIABLE("n1"))
        events = []
        host.on_recover(lambda h: events.append("recover"))
        host.crash(schedule_recovery=False)
        assert events == [] and not host.up  # a crash is told by call, not here
        host.recover()
        assert events == ["recover"]


class TestHeartbeats:
    def test_heartbeats_emitted_while_up(self, kernel, net):
        beats = []
        net.connect(lambda m: beats.append(m) if isinstance(m, Heartbeat) else None)
        make_host(kernel, net, RELIABLE("n1", heartbeat_period=1.0))
        kernel.run_until(5.0)
        assert len(beats) == 6  # immediate + 5 periodic
        assert [b.seq for b in beats] == list(range(6))

    def test_heartbeats_stop_while_down(self, kernel, net):
        beats = []
        net.connect(lambda m: beats.append(m) if isinstance(m, Heartbeat) else None)
        host = make_host(kernel, net, RELIABLE("n1", heartbeat_period=1.0))
        kernel.schedule(2.5, lambda: host.crash(schedule_recovery=False))
        kernel.run_until(10.0)
        assert beats[-1].sent_at <= 2.5

    def test_heartbeats_resume_on_recovery(self, kernel, net):
        beats = []
        net.connect(lambda m: beats.append(m) if isinstance(m, Heartbeat) else None)
        host = make_host(kernel, net, RELIABLE("n1", heartbeat_period=1.0))
        kernel.schedule(2.5, lambda: host.crash(schedule_recovery=False))
        kernel.schedule(6.0, host.recover)
        kernel.run_until(9.0)
        post_recovery = [b for b in beats if b.sent_at >= 6.0]
        assert len(post_recovery) >= 3

    def test_heartbeats_can_be_disabled(self, kernel, net):
        beats = []
        net.connect(lambda m: beats.append(m))
        make_host(kernel, net, RELIABLE("n1"), heartbeats_enabled=False)
        kernel.run_until(10.0)
        assert beats == []


class TestSoftware:
    def test_install_and_resolve(self, kernel, net):
        host = make_host(kernel, net, RELIABLE("n1"))
        behavior = FixedDurationTask(1.0)
        host.install("sum", behavior)
        assert host.resolve("sum") is behavior

    def test_resolve_unknown_raises(self, kernel, net):
        host = make_host(kernel, net, RELIABLE("n1"))
        with pytest.raises(UnknownExecutableError):
            host.resolve("missing")

    def test_empty_name_rejected(self, kernel, net):
        host = make_host(kernel, net, RELIABLE("n1"))
        with pytest.raises(GridError):
            host.install("", FixedDurationTask(1.0))
