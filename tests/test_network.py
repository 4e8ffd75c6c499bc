"""Unit tests for the simulated host→client network."""

from __future__ import annotations

import pytest

from repro.detection.messages import Done, Heartbeat, TaskEnd
from repro.grid.network import Network
from repro.grid.random import RandomStreams


@pytest.fixture
def net(kernel):
    return Network(kernel, RandomStreams(seed=3))


class ScriptedJitter:
    """Stands in for the RNG streams: jitter draws, in order."""

    def __init__(self, draws):
        self.draws = list(draws)

    def get(self, _name):
        return self

    def uniform(self, _low, _high):
        return self.draws.pop(0)


class TestDelivery:
    def test_messages_reach_the_sink(self, kernel, net):
        seen = []
        net.connect(seen.append)
        net.send("n1", Heartbeat(hostname="n1", seq=0))
        kernel.run()
        assert len(seen) == 1
        assert net.stats.delivered == 1

    def test_no_sink_counts_drop(self, kernel, net):
        net.send("n1", Heartbeat(hostname="n1", seq=0))
        kernel.run()
        assert net.stats.dropped_no_sink == 1

    def test_latency_delays_delivery(self, kernel):
        net = Network(kernel, RandomStreams(seed=3), latency=2.0)
        arrivals = []
        net.connect(lambda m: arrivals.append(kernel.now()))
        net.send("n1", Heartbeat(hostname="n1", seq=0))
        kernel.run()
        assert arrivals == [2.0]

    def test_fifo_per_host_under_jitter(self, kernel):
        net = Network(kernel, RandomStreams(seed=9), jitter=5.0)
        arrivals = []
        net.connect(lambda m: arrivals.append(m.seq))
        for i in range(100):
            net.send("n1", Heartbeat(hostname="n1", seq=i))
        kernel.run()
        assert arrivals == list(range(100))  # TCP-stream ordering

    def test_fifo_survives_rounding_at_the_watermark(self, kernel):
        # The watermark is an absolute time but the kernel is handed a
        # delay and adds it back to now: for these four floats that sum
        # lands one ulp *under* the TaskEnd's arrival, and the Done used to
        # overtake it — "done-without-taskend", a retry of a task that
        # succeeded.
        net = Network(
            kernel,
            ScriptedJitter([0.01855413061520897, 0.0]),
            latency=0.05,
            jitter=0.02,
        )
        arrivals = []
        net.connect(lambda m: arrivals.append((type(m).__name__, kernel.now())))
        kernel.schedule(
            0.029087186189935554,
            lambda: net.send("n1", TaskEnd(job_id="j", hostname="n1")),
        )
        kernel.schedule(
            0.033886127368333636,
            lambda: net.send("n1", Done(job_id="j", hostname="n1")),
        )
        kernel.run()
        assert [kind for kind, _at in arrivals] == ["TaskEnd", "Done"]
        assert arrivals[0][1] == 0.09764131680514453
        assert arrivals[1][1] >= arrivals[0][1]

    def test_an_undelayed_message_still_waits_behind_a_delayed_one(self, kernel):
        # A zero jitter draw on a zero-latency network is a same-instant
        # hop only if nothing from the host is still in flight.
        net = Network(kernel, ScriptedJitter([0.5, 0.0]), jitter=1.0)
        arrivals = []
        net.connect(lambda m: arrivals.append((m.seq, kernel.now())))
        for seq in range(2):
            net.send("n1", Heartbeat(hostname="n1", seq=seq))
        kernel.run()
        assert arrivals == [(0, 0.5), (1, 0.5)]

    def test_fifo_is_per_host_not_global(self, kernel):
        net = Network(kernel, RandomStreams(seed=9), latency=1.0)
        order = []
        net.connect(lambda m: order.append(m.hostname))
        net.send("slowhost", Heartbeat(hostname="slowhost", seq=0))
        net.send("fasthost", Heartbeat(hostname="fasthost", seq=0))
        kernel.run()
        assert set(order) == {"slowhost", "fasthost"}

    def test_jitter_bounded(self, kernel):
        net = Network(kernel, RandomStreams(seed=3), latency=1.0, jitter=0.5)
        arrivals = []
        net.connect(lambda m: arrivals.append(kernel.now()))
        for i in range(50):
            net.send("n1", Heartbeat(hostname="n1", seq=i))
        kernel.run()
        assert all(1.0 <= t <= 1.5 for t in arrivals)
        assert len(set(arrivals)) > 1  # actually jittered

    def test_invalid_parameters_rejected(self, kernel):
        with pytest.raises(ValueError):
            Network(kernel, RandomStreams(), latency=-1.0)
        with pytest.raises(ValueError):
            Network(kernel, RandomStreams(), loss_probability=1.0)


class TestPartitions:
    def test_partitioned_host_messages_dropped(self, kernel, net):
        seen = []
        net.connect(seen.append)
        net.partition("n1")
        net.send("n1", Heartbeat(hostname="n1", seq=0))
        kernel.run()
        assert seen == []
        assert net.stats.dropped_partition == 1

    def test_heal_restores_delivery(self, kernel, net):
        seen = []
        net.connect(seen.append)
        net.partition("n1")
        net.send("n1", Heartbeat(hostname="n1", seq=0))
        net.heal("n1")
        net.send("n1", Heartbeat(hostname="n1", seq=1))
        kernel.run()
        assert [m.seq for m in seen] == [1]

    def test_partition_is_per_host(self, kernel, net):
        seen = []
        net.connect(seen.append)
        net.partition("n1")
        net.send("n2", Heartbeat(hostname="n2", seq=0))
        kernel.run()
        assert [m.hostname for m in seen] == ["n2"]

    def test_system_messages_bypass_partition(self, kernel, net):
        seen = []
        net.connect(seen.append)
        net.partition("n1")
        net.send_system(Done(job_id="j", hostname="n1"))
        kernel.run()
        assert len(seen) == 1


class TestLoss:
    def test_loss_probability_drops_some_messages(self, kernel):
        net = Network(kernel, RandomStreams(seed=3), loss_probability=0.5)
        seen = []
        net.connect(seen.append)
        for i in range(200):
            net.send("n1", Heartbeat(hostname="n1", seq=i))
        kernel.run()
        assert 60 < len(seen) < 140
        assert net.stats.dropped_loss == 200 - len(seen)
