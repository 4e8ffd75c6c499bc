"""Unit tests for the wall-clock reactor."""

from __future__ import annotations

import threading
import time

import pytest

from repro.reactor import RealTimeReactor


@pytest.fixture
def rt() -> RealTimeReactor:
    return RealTimeReactor()


class TestTimers:
    def test_timer_fires_after_delay(self, rt):
        fired = []
        rt.call_later(0.01, lambda: fired.append(rt.now()))
        rt.run_until_idle(timeout=1.0)
        assert len(fired) == 1
        assert fired[0] >= 0.009

    def test_timers_fire_in_order(self, rt):
        order = []
        rt.call_later(0.02, lambda: order.append("b"))
        rt.call_later(0.01, lambda: order.append("a"))
        rt.run_until_idle(timeout=1.0)
        assert order == ["a", "b"]

    def test_cancelled_timer_skipped(self, rt):
        fired = []
        handle = rt.call_later(0.01, lambda: fired.append(1))
        handle.cancel()
        rt.run_until_idle(timeout=0.2)
        assert fired == []

    def test_negative_delay_rejected(self, rt):
        with pytest.raises(ValueError):
            rt.call_later(-1.0, lambda: None)

    def test_call_soon_runs_immediately(self, rt):
        fired = []
        rt.call_soon(lambda: fired.append(1))
        rt.run_until_idle(timeout=0.5)
        assert fired == [1]


class TestHeapCompaction:
    """The reactor shares :class:`repro.timerheap.TimerHeap` with the sim
    kernel: mass cancellation compacts the heap instead of leaving dead
    entries until their deadlines."""

    def test_mass_cancellation_compacts_heap(self, rt):
        handles = [rt.call_later(30.0, lambda: None) for _ in range(200)]
        for handle in handles[:150]:
            handle.cancel()
        # Compaction triggered at >= 64 cancelled and cancelled >= half the
        # heap: 150 cancels on 200 entries leave well under 200 entries.
        assert len(rt._timers.heap) < 200
        assert rt._timers.live_count() == 50
        for handle in handles[150:]:
            handle.cancel()
        rt.run_until_idle(timeout=0.5)  # returns promptly: nothing live

    def test_cancelling_fired_timers_neither_counts_nor_compacts(self, rt):
        handles = [rt.call_later(0.0, lambda: None) for _ in range(200)]
        rt.run_until_idle(timeout=2.0)
        rt.call_later(30.0, lambda: None)
        for handle in handles:
            handle.cancel()
        assert not any(handle.cancelled for handle in handles)
        assert rt._timers.cancelled_total == 0
        assert rt._timers.compactions == 0

    def test_cancelled_timers_do_not_fire(self, rt):
        fired = []
        handles = [
            rt.call_later(0.01, lambda i=i: fired.append(i)) for i in range(100)
        ]
        for handle in handles[::2]:
            handle.cancel()
        rt.run_until_idle(timeout=2.0)
        assert sorted(fired) == list(range(1, 100, 2))


class TestPost:
    def test_post_from_same_thread(self, rt):
        fired = []
        rt.post(lambda: fired.append(1))
        rt.run_until_idle(timeout=0.5)
        assert fired == [1]

    def test_post_from_worker_thread_wakes_reactor(self, rt):
        fired = []
        rt.acquire_keepalive()

        def worker():
            time.sleep(0.02)
            rt.post(lambda: fired.append(threading.current_thread().name))
            rt.release_keepalive()

        threading.Thread(target=worker, daemon=True).start()
        rt.run_until_idle(timeout=2.0)
        assert len(fired) == 1
        # The callback ran on the reactor thread, not the worker.
        assert fired[0] == threading.current_thread().name

    def test_posted_callbacks_run_fifo(self, rt):
        order = []
        rt.post(lambda: order.append(1))
        rt.post(lambda: order.append(2))
        rt.run_until_idle(timeout=0.5)
        assert order == [1, 2]


class TestIdleAndStop:
    def test_run_until_idle_returns_with_no_work(self, rt):
        start = time.monotonic()
        rt.run_until_idle()
        assert time.monotonic() - start < 0.5

    def test_keepalive_blocks_idle_until_released(self, rt):
        rt.acquire_keepalive()

        def releaser():
            time.sleep(0.03)
            rt.release_keepalive()

        threading.Thread(target=releaser, daemon=True).start()
        start = time.monotonic()
        rt.run_until_idle(timeout=2.0)
        assert time.monotonic() - start >= 0.02

    def test_stop_interrupts_loop(self, rt):
        rt.acquire_keepalive()  # would otherwise wait forever

        def stopper():
            time.sleep(0.02)
            rt.stop()

        threading.Thread(target=stopper, daemon=True).start()
        rt.run_until_idle(timeout=5.0)  # returns promptly thanks to stop()
        rt.release_keepalive()

    def test_run_until_complete_predicate(self, rt):
        state = {"done": False}
        rt.call_later(0.02, lambda: state.update(done=True))
        assert rt.run_until_complete(lambda: state["done"], timeout=2.0)

    def test_run_until_complete_idle_without_completion(self, rt):
        assert rt.run_until_complete(lambda: False, timeout=0.3) is False
