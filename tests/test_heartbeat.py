"""Unit tests for the heartbeat monitor (host liveness)."""

from __future__ import annotations

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.detection.heartbeat import (
    HOST_RECOVERED,
    HOST_SUSPECTED,
    HeartbeatMonitor,
)
from repro.detection.messages import Heartbeat
from repro.events import EventBus
from repro.grid.simkernel import SimKernel, SimReactor


@pytest.fixture
def monitor(reactor, bus):
    m = HeartbeatMonitor(reactor, bus, timeout=5.0, sweep_interval=1.0)
    m.start()
    return m


def suspected_events(bus):
    return [payload for topic, payload in bus.published if topic == HOST_SUSPECTED]


def suspected(monitor, hostname):
    record = monitor.liveness(hostname)
    return bool(record and record.suspected)


def recovered_events(bus):
    return [payload for topic, payload in bus.published if topic == HOST_RECOVERED]


class TestSuspicion:
    def test_silent_host_suspected_after_timeout(self, kernel, monitor, bus):
        monitor.observe(Heartbeat(hostname="n1", seq=0))
        kernel.run_until(10.0)
        assert suspected(monitor, "n1")
        assert suspected_events(bus) == ["n1"]

    def test_beating_host_never_suspected(self, kernel, reactor, monitor, bus):
        def beat(seq=[0]):
            monitor.observe(Heartbeat(hostname="n1", seq=seq[0]))
            seq[0] += 1
            reactor.call_later(2.0, beat)

        beat()
        kernel.run_until(30.0)
        assert not suspected(monitor, "n1")
        assert suspected_events(bus) == []

    def test_suspicion_fires_once_until_recovery(self, kernel, monitor, bus):
        monitor.observe(Heartbeat(hostname="n1", seq=0))
        kernel.run_until(50.0)
        assert suspected_events(bus) == ["n1"]  # not re-published every sweep

    def test_watch_arms_timeout_before_first_beat(self, kernel, monitor, bus):
        monitor.watch("never-beats")
        kernel.run_until(10.0)
        assert suspected(monitor, "never-beats")

    def test_multiple_hosts_tracked_independently(self, kernel, reactor, monitor):
        monitor.observe(Heartbeat(hostname="dead", seq=0))

        def beat(seq=[0]):
            monitor.observe(Heartbeat(hostname="alive", seq=seq[0]))
            seq[0] += 1
            reactor.call_later(2.0, beat)

        beat()
        kernel.run_until(12.0)
        assert suspected(monitor, "dead")
        assert not suspected(monitor, "alive")
        assert [r["host"] for r in monitor.snapshot() if r["suspected"]] == ["dead"]


class TestRecovery:
    def test_resumed_beats_revoke_suspicion(self, kernel, reactor, monitor, bus):
        monitor.observe(Heartbeat(hostname="n1", seq=0))
        reactor.call_later(20.0, lambda: monitor.observe(Heartbeat(hostname="n1", seq=1)))
        kernel.run_until(25.0)
        assert not suspected(monitor, "n1")
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


@st.composite
def beat_scenarios(draw):
    """Hosts seen before the batches (some of them then suspected), and
    batches of beats over 2-5 hosts, some never seen before."""
    hosts = [f"h{i}" for i in range(draw(st.integers(2, 5)))]
    known = draw(st.lists(st.sampled_from(hosts), unique=True))
    silent = draw(st.lists(st.sampled_from(known), unique=True)) if known else []
    beat = st.builds(Heartbeat, hostname=st.sampled_from(hosts), seq=st.integers(0, 9))
    batches = draw(st.lists(st.lists(beat, max_size=12), min_size=1, max_size=4))
    return known, silent, batches


class TestBatchIsBeatByBeat:
    """``observe_batch`` leaves what feeding the same beats one at a time
    leaves: the records, ``false_suspicions`` and the recovery narration,
    in order."""

    @staticmethod
    def _feed(known, silent, batches, batched):
        kernel = SimKernel()
        bus = EventBus()
        recovered = []
        bus.subscribe(HOST_RECOVERED, lambda _topic, host: recovered.append(host))
        monitor = HeartbeatMonitor(
            SimReactor(kernel), bus, timeout=5.0, sweep_interval=1.0
        )
        monitor.start()
        monitor.observe_batch([Heartbeat(hostname=h, seq=0) for h in known])
        kernel.run_until(4.0)
        # Everything known beats again but *silent*, which the t=6 sweep
        # suspects.
        monitor.observe_batch(
            [Heartbeat(hostname=h, seq=1) for h in known if h not in silent]
        )
        kernel.run_until(7.0)
        assert {h for h in known if suspected(monitor, h)} == set(silent)
        for turn, beats in enumerate(batches):
            kernel.run_until(7.0 + turn / 4)
            if batched:
                monitor.observe_batch(beats)
            else:
                for beat in beats:
                    monitor.observe(beat)
        names = {*known, *(beat.hostname for beats in batches for beat in beats)}
        records = {h: monitor.liveness(h) for h in sorted(names)}
        return records, monitor.false_suspicions, recovered

    @seed(20030623)
    @given(beat_scenarios())
    @settings(max_examples=300, deadline=None)
    def test_same_records_counts_and_publications(self, scenario):
        batched = self._feed(*scenario, batched=True)
        assert batched == self._feed(*scenario, batched=False)

