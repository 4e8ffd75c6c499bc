"""Unit tests for host liveness, kept by the failure detector.

With ``heartbeat_timeout=5.0`` the detector sweeps every 2.5 s, so a host
last heard at t is suspected by the first sweep after t + 5.
"""

from __future__ import annotations

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.detection.detector import HOST_RECOVERED, HOST_SUSPECTED, FailureDetector
from repro.detection.messages import Heartbeat
from repro.events import EventBus
from repro.grid.simkernel import SimKernel, SimReactor


@pytest.fixture
def detector(reactor, bus):
    d = FailureDetector(reactor, bus, heartbeat_timeout=5.0)
    d.start()
    return d


def suspected_events(bus):
    return [payload for topic, payload in bus.published if topic == HOST_SUSPECTED]


def suspected(detector, hostname):
    record = detector.liveness(hostname)
    return bool(record and record.suspected)


def recovered_events(bus):
    return [payload for topic, payload in bus.published if topic == HOST_RECOVERED]


class TestSuspicion:
    def test_silent_host_suspected_after_timeout(self, kernel, detector, bus):
        detector.deliver(Heartbeat(hostname="n1", seq=0))
        kernel.run_until(5.0)
        assert not suspected(detector, "n1")  # silent for 5 s, not more
        kernel.run_until(7.5)
        assert suspected(detector, "n1")
        assert suspected_events(bus) == ["n1"]

    def test_beating_host_never_suspected(self, kernel, reactor, detector, bus):
        def beat(seq=[0]):
            detector.deliver(Heartbeat(hostname="n1", seq=seq[0]))
            seq[0] += 1
            reactor.call_later(2.0, beat)

        beat()
        kernel.run_until(30.0)
        assert not suspected(detector, "n1")
        assert suspected_events(bus) == []

    def test_suspicion_fires_once_until_recovery(self, kernel, detector, bus):
        detector.deliver(Heartbeat(hostname="n1", seq=0))
        kernel.run_until(50.0)
        assert suspected_events(bus) == ["n1"]  # not re-published every sweep

    def test_watch_arms_timeout_before_first_beat(self, kernel, detector, bus):
        # Tracking an attempt watches its host: the timeout runs from then.
        detector.track("j1", "act", "never-beats")
        kernel.run_until(10.0)
        assert suspected(detector, "never-beats")

    def test_multiple_hosts_tracked_independently(self, kernel, reactor, detector):
        detector.deliver(Heartbeat(hostname="dead", seq=0))

        def beat(seq=[0]):
            detector.deliver(Heartbeat(hostname="alive", seq=seq[0]))
            seq[0] += 1
            reactor.call_later(2.0, beat)

        beat()
        kernel.run_until(12.0)
        assert suspected(detector, "dead")
        assert not suspected(detector, "alive")
        snapshot = detector.liveness_snapshot()
        assert [r["host"] for r in snapshot if r["suspected"]] == ["dead"]


class TestRecovery:
    def test_resumed_beats_revoke_suspicion(self, kernel, reactor, detector, bus):
        detector.deliver(Heartbeat(hostname="n1", seq=0))
        reactor.call_later(
            20.0, lambda: detector.deliver(Heartbeat(hostname="n1", seq=1))
        )
        kernel.run_until(25.0)
        assert not suspected(detector, "n1")
        assert recovered_events(bus) == ["n1"]
        assert detector.false_suspicions == 1

    def test_liveness_record_tracks_last_beat(self, kernel, detector):
        detector.deliver(Heartbeat(hostname="n1", seq=3))
        record = detector.liveness("n1")
        assert record.last_seq == 3
        assert record.suspicions == 0


class TestLifecycle:
    def test_stop_halts_sweeps(self, kernel, detector, bus):
        detector.deliver(Heartbeat(hostname="n1", seq=0))
        detector.stop()
        kernel.run_until(60.0)
        assert suspected_events(bus) == []

    def test_invalid_timeout_rejected(self, reactor, bus):
        with pytest.raises(ValueError):
            FailureDetector(reactor, bus, heartbeat_timeout=0.0)

    def test_default_sweep_interval_is_half_timeout(self, kernel, reactor, bus):
        detector = FailureDetector(reactor, bus, heartbeat_timeout=8.0)
        detector.start()
        sweeps = []
        for until in (3.9, 4.0, 7.9, 8.0):
            before = kernel.stats()["timers_scheduled"]
            kernel.run_until(until)
            sweeps.append(kernel.stats()["timers_scheduled"] - before)
        # Each sweep schedules the next one, 4 s later.
        assert sweeps == [0, 1, 0, 1]


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
    """A detector with ``batch_heartbeats`` leaves what one that observes
    each beat as it is delivered leaves: the records, ``false_suspicions``
    and the recovery narration, in order."""

    @staticmethod
    def _feed(known, silent, batches, batched):
        kernel = SimKernel()
        bus = EventBus()
        recovered = []
        bus.subscribe(HOST_RECOVERED, lambda _topic, host: recovered.append(host))
        detector = FailureDetector(
            SimReactor(kernel), bus, heartbeat_timeout=5.0, batch_heartbeats=batched
        )
        detector.start()

        def deliver(beats):
            for beat in beats:
                detector.deliver(beat)
            kernel.run_until(kernel.now())  # the batched turn folds them

        deliver([Heartbeat(hostname=h, seq=0) for h in known])
        kernel.run_until(4.0)
        # Everything known beats again but *silent*, which the t=7.5 sweep
        # suspects.
        deliver([Heartbeat(hostname=h, seq=1) for h in known if h not in silent])
        kernel.run_until(8.0)
        assert {h for h in known if suspected(detector, h)} == set(silent)
        for turn, beats in enumerate(batches):
            kernel.run_until(8.0 + turn / 4)
            deliver(beats)
        names = {*known, *(beat.hostname for beats in batches for beat in beats)}
        records = {h: detector.liveness(h) for h in sorted(names)}
        return records, detector.false_suspicions, recovered

    @seed(20030623)
    @given(beat_scenarios())
    @settings(max_examples=300, deadline=None)
    def test_same_records_counts_and_publications(self, scenario):
        batched = self._feed(*scenario, batched=True)
        assert batched == self._feed(*scenario, batched=False)
