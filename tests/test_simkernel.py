"""Unit tests for the discrete-event kernel and its reactor adapter."""

from __future__ import annotations

import pytest

from repro.grid.simkernel import PeriodicTask, SimReactor


class TestScheduling:
    def test_clock_starts_at_zero(self, kernel):
        assert kernel.now() == 0.0

    def test_event_fires_at_scheduled_time(self, kernel):
        fired = []
        kernel.schedule(5.0, lambda: fired.append(kernel.now()))
        kernel.run()
        assert fired == [5.0]

    def test_events_fire_in_time_order(self, kernel):
        order = []
        kernel.schedule(3.0, lambda: order.append("c"))
        kernel.schedule(1.0, lambda: order.append("a"))
        kernel.schedule(2.0, lambda: order.append("b"))
        kernel.run()
        assert order == ["a", "b", "c"]

    def test_equal_times_fire_fifo(self, kernel):
        order = []
        for tag in "abc":
            kernel.schedule(1.0, lambda t=tag: order.append(t))
        kernel.run()
        assert order == ["a", "b", "c"]

    def test_negative_delay_rejected(self, kernel):
        with pytest.raises(ValueError):
            kernel.schedule(-0.1, lambda: None)

    def test_nested_scheduling_during_event(self, kernel):
        fired = []
        kernel.schedule(1.0, lambda: kernel.schedule(1.0, lambda: fired.append(kernel.now())))
        kernel.run()
        assert fired == [2.0]

    def test_zero_delay_runs_at_current_time(self, kernel):
        times = []
        kernel.schedule(4.0, lambda: kernel.schedule(0.0, lambda: times.append(kernel.now())))
        kernel.run()
        assert times == [4.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, kernel):
        fired = []
        handle = kernel.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        kernel.run()
        assert fired == []
        assert handle.cancelled

    def test_pending_excludes_cancelled(self, kernel):
        h = kernel.schedule(1.0, lambda: None)
        kernel.schedule(2.0, lambda: None)
        assert kernel.pending() == 2
        h.cancel()
        assert kernel.pending() == 1

    def test_double_cancel_is_idempotent(self, kernel):
        h = kernel.schedule(1.0, lambda: None)
        kernel.schedule(2.0, lambda: None)
        h.cancel()
        h.cancel()
        assert kernel.pending() == 1
        assert kernel.run() == 1


class TestCancellingFiredTimers:
    # Owners cancel whole batches of handles on teardown (a job cancels
    # every step when it terminates), fired ones included: that must not
    # read as timer churn, let alone compact a heap with nothing to drop.

    @pytest.mark.parametrize("drain", ["run", "run_until", "step", "reactor"])
    def test_cancel_after_firing_is_not_a_cancellation(self, kernel, drain):
        fired = []
        handles = [
            kernel.schedule(float(i), lambda i=i: fired.append(i))
            for i in range(200)
        ]
        if drain == "run":
            kernel.run()
        elif drain == "run_until":
            kernel.run_until(199.0)
        elif drain == "step":
            while kernel.step():
                pass
        else:
            SimReactor(kernel).run_until_complete(lambda: len(fired) == 200)
        assert fired == list(range(200))
        kernel.schedule(1000.0, lambda: None)  # the heap is not empty
        for handle in handles:
            handle.cancel()
        assert not any(handle.cancelled for handle in handles)
        stats = kernel.stats()
        assert stats["timers_cancelled"] == 0
        assert stats["compactions"] == 0
        assert stats["pending"] == 1

    def test_timer_cancelling_itself_while_running(self, kernel):
        handles = []
        kernel.schedule(2.0, lambda: None)
        handles.append(kernel.schedule(1.0, lambda: handles[0].cancel()))
        assert kernel.run() == 2
        assert not handles[0].cancelled
        assert kernel.stats()["timers_cancelled"] == 0

    def test_pending_cancellations_are_still_counted(self, kernel):
        fired = kernel.schedule(1.0, lambda: None)
        pending = kernel.schedule(5.0, lambda: None)
        kernel.run_until(2.0)
        fired.cancel()
        pending.cancel()
        assert pending.cancelled and not fired.cancelled
        assert kernel.stats()["timers_cancelled"] == 1
        assert kernel.run() == 0


class TestCompaction:
    # Cancellation is lazy (entries stay queued until popped); once enough
    # pile up the heap is compacted in place.  These tests pin both the
    # trigger and that compaction never changes observable behaviour.

    def test_mass_cancellation_shrinks_the_heap(self, kernel):
        handles = [kernel.schedule(float(i), lambda: None) for i in range(200)]
        for h in handles[50:]:
            h.cancel()
        # Compaction triggers once cancellations clear the 64-entry floor
        # AND outnumber the live entries (here: at the 100th cancel); the
        # 50 stragglers after it stay below the floor and are dropped
        # lazily on pop.  The float(0) entry is due now, so it sits in the
        # same-instant lane, not among the heap's 199.
        assert len(kernel._heap) == 99
        assert kernel.pending() == 50
        assert kernel.run() == 50

    def test_firing_order_survives_compaction(self, kernel):
        fired = []
        keep = []
        for i in range(200):
            if i % 4 == 0:
                keep.append(i)
                kernel.schedule(float(i), lambda i=i: fired.append(i))
            else:
                kernel.schedule(float(i), lambda: None).cancel()
        kernel.run()
        assert fired == keep

    def test_below_threshold_cancels_still_never_fire(self, kernel):
        fired = []
        handles = [
            kernel.schedule(float(i), lambda i=i: fired.append(i))
            for i in range(10)
        ]
        handles[3].cancel()
        handles[7].cancel()
        # Too few to compact; the float(0) entry is in the same-instant lane.
        assert len(kernel._heap) == 9
        kernel.run()
        assert fired == [i for i in range(10) if i not in (3, 7)]

    def test_compaction_during_drain_is_safe(self, kernel):
        # run() holds a local reference to the heap list; a callback that
        # mass-cancels must compact in place without breaking the drain.
        fired = []
        later = []

        def first() -> None:
            fired.append(kernel.now())
            for h in later:
                h.cancel()

        kernel.schedule(1.0, first)
        later.extend(
            kernel.schedule(2.0 + i, lambda: fired.append(-1))
            for i in range(150)
        )
        kernel.schedule(500.0, lambda: fired.append(kernel.now()))
        kernel.run()
        assert fired == [1.0, 500.0]


class TestReset:
    def test_reset_restores_pristine_state(self, kernel):
        kernel.schedule(1.0, lambda: None)
        kernel.schedule(2.0, lambda: None).cancel()
        kernel.run()
        kernel.schedule(9.0, lambda: None)
        kernel.reset()
        assert kernel.now() == 0.0
        assert kernel.pending() == 0
        assert kernel.events_processed == 0

    def test_reset_restarts_fifo_tie_breaking(self, kernel):
        kernel.schedule(1.0, lambda: None)
        kernel.run()
        kernel.reset()
        order = []
        for tag in "abc":
            kernel.schedule(1.0, lambda t=tag: order.append(t))
        kernel.run()
        assert order == ["a", "b", "c"]


class TestRun:
    def test_run_returns_event_count(self, kernel):
        for i in range(3):
            kernel.schedule(float(i), lambda: None)
        assert kernel.run() == 3

    def test_run_until_stops_at_boundary_inclusive(self, kernel):
        fired = []
        kernel.schedule(1.0, lambda: fired.append(1.0))
        kernel.schedule(2.0, lambda: fired.append(2.0))
        kernel.schedule(3.0, lambda: fired.append(3.0))
        kernel.run_until(2.0)
        assert fired == [1.0, 2.0]
        assert kernel.now() == 2.0
        kernel.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_run_until_advances_clock_without_events(self, kernel):
        kernel.run_until(10.0)
        assert kernel.now() == 10.0

    def test_max_events_guard(self, kernel):
        def reschedule():
            kernel.schedule(1.0, reschedule)

        kernel.schedule(1.0, reschedule)
        with pytest.raises(RuntimeError, match="max_events"):
            kernel.run(max_events=100)

    def test_step_returns_false_when_idle(self, kernel):
        assert kernel.step() is False

    def test_events_processed_counter(self, kernel):
        kernel.schedule(1.0, lambda: None)
        kernel.run()
        assert kernel.events_processed == 1


class TestPeriodicTask:
    def test_fires_every_period(self, kernel):
        times = []
        task = PeriodicTask(kernel, 2.0, lambda: times.append(kernel.now()))
        kernel.run_until(7.0)
        task.stop()
        assert times == [2.0, 4.0, 6.0]

    def test_start_delay_override(self, kernel):
        times = []
        task = PeriodicTask(kernel, 2.0, lambda: times.append(kernel.now()), start_delay=0.5)
        kernel.run_until(5.0)
        task.stop()
        assert times == [0.5, 2.5, 4.5]

    def test_stop_prevents_future_fires(self, kernel):
        times = []
        task = PeriodicTask(kernel, 1.0, lambda: times.append(kernel.now()))
        kernel.run_until(2.0)
        task.stop()
        kernel.run_until(10.0)
        assert times == [1.0, 2.0]
        assert task.stopped

    def test_invalid_period_rejected(self, kernel):
        with pytest.raises(ValueError):
            PeriodicTask(kernel, 0.0, lambda: None)

    def test_callback_may_stop_itself(self, kernel):
        times = []

        def cb():
            times.append(kernel.now())
            if len(times) == 2:
                task.stop()

        task = PeriodicTask(kernel, 1.0, cb)
        kernel.run_until(10.0)
        assert times == [1.0, 2.0]


class TestSimReactor:
    def test_now_tracks_kernel(self, kernel, reactor):
        kernel.schedule(3.0, lambda: None)
        kernel.run()
        assert reactor.now() == 3.0

    def test_call_later_and_cancel(self, kernel, reactor):
        fired = []
        h1 = reactor.call_later(1.0, lambda: fired.append("a"))
        h2 = reactor.call_later(2.0, lambda: fired.append("b"))
        h2.cancel()
        kernel.run()
        assert fired == ["a"]
        assert not h1.cancelled and h2.cancelled

    def test_post_runs_on_next_turn(self, kernel, reactor):
        fired = []
        reactor.post(lambda: fired.append(kernel.now()))
        kernel.run()
        assert fired == [0.0]

    def test_run_until_complete_stops_on_predicate(self, kernel, reactor):
        state = {"done": False}
        reactor.call_later(1.0, lambda: None)
        reactor.call_later(2.0, lambda: state.update(done=True))
        reactor.call_later(3.0, lambda: None)
        assert reactor.run_until_complete(lambda: state["done"]) is True
        assert kernel.now() == 2.0

    def test_run_until_complete_gives_up_when_idle(self, kernel, reactor):
        assert reactor.run_until_complete(lambda: False) is False

    def test_run_until_complete_respects_timeout(self, kernel, reactor):
        def reschedule():
            reactor.call_later(1.0, reschedule)

        reactor.call_later(1.0, reschedule)
        assert reactor.run_until_complete(lambda: False, timeout=5.0) is False
        assert kernel.now() <= 6.0

    def test_run_until_complete_fires_nothing_due_after_the_timeout(self, kernel, reactor):
        fired = []
        reactor.call_later(50.0, lambda: fired.append(kernel.now()))
        assert reactor.run_until_complete(lambda: bool(fired), timeout=10.0) is False
        # As ``run_until(10)`` would: nothing fired, the clock at the deadline.
        assert fired == [] and kernel.now() == 10.0
        assert kernel.pending() == 1
        assert reactor.run_until_complete(lambda: bool(fired), timeout=40.0) is True
        assert fired == [50.0]

    def test_run_until_complete_fires_what_is_due_at_the_deadline(self, kernel, reactor):
        fired = []
        reactor.call_later(10.0, lambda: fired.append(kernel.now()))
        assert reactor.run_until_complete(lambda: bool(fired), timeout=10.0) is True
        assert fired == [10.0]
