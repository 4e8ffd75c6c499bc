"""Unit tests for the heartbeat monitor (host liveness)."""

from __future__ import annotations

import pytest

from repro.detection.heartbeat import (
    HOST_RECOVERED,
    HOST_SUSPECTED,
    HeartbeatMonitor,
)
from repro.detection.messages import Heartbeat


@pytest.fixture
def monitor(reactor, bus):
    m = HeartbeatMonitor(reactor, bus, timeout=5.0, sweep_interval=1.0)
    m.start()
    return m


def suspected_events(bus):
    return [payload for topic, payload in bus.published if topic == HOST_SUSPECTED]


def recovered_events(bus):
    return [payload for topic, payload in bus.published if topic == HOST_RECOVERED]


class TestSuspicion:
    def test_silent_host_suspected_after_timeout(self, kernel, monitor, bus):
        monitor.observe(Heartbeat(hostname="n1", seq=0))
        kernel.run_until(10.0)
        assert monitor.is_suspected("n1")
        assert suspected_events(bus) == ["n1"]

    def test_beating_host_never_suspected(self, kernel, reactor, monitor, bus):
        def beat(seq=[0]):
            monitor.observe(Heartbeat(hostname="n1", seq=seq[0]))
            seq[0] += 1
            reactor.call_later(2.0, beat)

        beat()
        kernel.run_until(30.0)
        assert not monitor.is_suspected("n1")
        assert suspected_events(bus) == []

    def test_suspicion_fires_once_until_recovery(self, kernel, monitor, bus):
        monitor.observe(Heartbeat(hostname="n1", seq=0))
        kernel.run_until(50.0)
        assert suspected_events(bus) == ["n1"]  # not re-published every sweep

    def test_watch_arms_timeout_before_first_beat(self, kernel, monitor, bus):
        monitor.watch("never-beats")
        kernel.run_until(10.0)
        assert monitor.is_suspected("never-beats")

    def test_multiple_hosts_tracked_independently(self, kernel, reactor, monitor):
        monitor.observe(Heartbeat(hostname="dead", seq=0))

        def beat(seq=[0]):
            monitor.observe(Heartbeat(hostname="alive", seq=seq[0]))
            seq[0] += 1
            reactor.call_later(2.0, beat)

        beat()
        kernel.run_until(12.0)
        assert monitor.is_suspected("dead")
        assert not monitor.is_suspected("alive")
        assert [r["host"] for r in monitor.snapshot() if r["suspected"]] == ["dead"]


class TestRecovery:
    def test_resumed_beats_revoke_suspicion(self, kernel, reactor, monitor, bus):
        monitor.observe(Heartbeat(hostname="n1", seq=0))
        reactor.call_later(20.0, lambda: monitor.observe(Heartbeat(hostname="n1", seq=1)))
        kernel.run_until(25.0)
        assert not monitor.is_suspected("n1")
        assert recovered_events(bus) == ["n1"]
        assert monitor.false_suspicions == 1

    def test_liveness_record_tracks_last_beat(self, kernel, monitor):
        monitor.observe(Heartbeat(hostname="n1", seq=3))
        record = monitor.liveness("n1")
        assert record.last_seq == 3
        assert record.suspicions == 0


class TestLifecycle:
    def test_stop_halts_sweeps(self, kernel, monitor, bus):
        monitor.observe(Heartbeat(hostname="n1", seq=0))
        monitor.stop()
        kernel.run_until(60.0)
        assert suspected_events(bus) == []

    def test_invalid_timeout_rejected(self, reactor, bus):
        with pytest.raises(ValueError):
            HeartbeatMonitor(reactor, bus, timeout=0.0)

    def test_default_sweep_interval_is_half_timeout(self, reactor, bus):
        m = HeartbeatMonitor(reactor, bus, timeout=8.0)
        assert m.sweep_interval == 4.0
