"""Unit tests for the synchronous pub/sub event bus."""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.events import EventBus


class TestSubscribe:
    def test_exact_topic_delivery(self):
        bus = EventBus()
        seen = []
        bus.subscribe("task.done", lambda t, p: seen.append((t, p)))
        delivered = bus.publish("task.done", 42)
        assert delivered == 1
        assert seen == [("task.done", 42)]

    def test_non_matching_topic_not_delivered(self):
        bus = EventBus()
        seen = []
        bus.subscribe("task.done", lambda t, p: seen.append(p))
        assert bus.publish("task.failed", 1) == 0
        assert seen == []

    def test_a_pattern_is_refused_with_a_pointer_to_taps(self):
        bus = EventBus()
        with pytest.raises(ValueError, match="add_tap"):
            bus.subscribe("task.*", lambda t, p: None)
        assert bus.stats()["topics"] == 0

    def test_multiple_subscribers_in_order(self):
        bus = EventBus()
        order = []
        bus.subscribe("x", lambda t, p: order.append("a"))
        bus.subscribe("x", lambda t, p: order.append("b"))
        bus.publish("x", None)
        assert order == ["a", "b"]

    def test_taps_then_subscribers_fire(self):
        bus = EventBus()
        seen = []
        bus.subscribe("a.b", lambda t, p: seen.append("exact"))
        bus.add_tap(lambda t, p: seen.append("tap"))
        assert bus.publish("a.b", None) == 1
        assert bus.publish("a.c", None) == 0
        assert seen == ["tap", "exact", "tap"]


class TestLiteralMetacharacters:
    """Topics match exactly: regex/fnmatch metacharacters in a subscribed
    topic match themselves."""

    def test_brackets_in_pattern_match_literally(self):
        bus = EventBus()
        seen = []
        bus.subscribe("task[0].done", lambda t, p: seen.append(t))
        bus.publish("task[0].done", None)
        bus.publish("task0.done", None)  # fnmatch would have matched '[0]'
        assert seen == ["task[0].done"]

    def test_question_mark_is_not_a_wildcard(self):
        bus = EventBus()
        seen = []
        bus.subscribe("probe?.ok", lambda t, p: seen.append(t))
        bus.publish("probe?.ok", None)
        bus.publish("probe1.ok", None)  # fnmatch '?' would have matched '1'
        assert seen == ["probe?.ok"]

    def test_dots_match_literally_not_as_regex(self):
        bus = EventBus()
        seen = []
        bus.subscribe("a.b", lambda t, p: seen.append(t))
        bus.publish("aXb", None)
        assert seen == []

    def test_pattern_must_match_whole_topic(self):
        bus = EventBus()
        seen = []
        bus.subscribe("task.done", lambda t, p: seen.append(t))
        bus.publish("subtask.done", None)
        bus.publish("task.done.wf-1", None)
        assert seen == []


class TestRecursivePublish:
    def test_handler_may_publish(self):
        bus = EventBus()
        seen = []
        bus.subscribe("first", lambda t, p: bus.publish("second", p + 1))
        bus.subscribe("second", lambda t, p: seen.append(p))
        bus.publish("first", 1)
        assert seen == [2]


class TestWants:
    def test_nobody_listening_declines_and_still_counts_as_offered(self):
        bus = EventBus()
        assert bus.wants("engine.node_launched") is False
        assert bus.wants("engine.node_launched") is False
        bus.publish("engine.workflow_finished", None)
        stats = bus.stats()
        assert stats["declined"] == 2
        assert stats["publishes"] == 3




_TOPICS = ("a.x", "a.y", "b.x", "b.y", "c")


class BusChurn(RuleBasedStateMachine):
    """``wants`` and ``publish`` must agree whatever the bus has been
    through — subscriptions, subscriptions made during a delivery, taps
    added and removed: ``wants(t)`` is true exactly when ``publish(t, …)``
    would reach a handler or a tap, and a publication reaches the handlers
    its topic had when it started."""

    def __init__(self) -> None:
        super().__init__()
        self.bus = EventBus()
        self.calls = 0
        self.taps = []
        #: topic → handlers subscribed to it, as the bus should hold them.
        self.handlers: dict[str, int] = {}
        self.dispatched = 0
        self.declined = 0

    def _handler(self, _topic, _payload) -> None:
        self.calls += 1

    def _subscribe(self, topic, handler) -> None:
        self.bus.subscribe(topic, handler)
        self.handlers[topic] = self.handlers.get(topic, 0) + 1

    @rule(topic=st.sampled_from(_TOPICS))
    def subscribe(self, topic):
        self._subscribe(topic, self._handler)

    @rule(topic=st.sampled_from(_TOPICS), later=st.sampled_from(_TOPICS))
    def subscribe_during_delivery(self, topic, later):
        """A handler that subscribes another, on *later*, when called."""

        def spawner(_topic, _payload) -> None:
            self.calls += 1
            self._subscribe(later, self._handler)

        self._subscribe(topic, spawner)

    @rule()
    def add_tap(self):
        def tap(_topic, _payload) -> None:
            self.calls += 1

        self.taps.append(tap)
        self.bus.add_tap(tap)

    @precondition(lambda self: self.taps)
    @rule(data=st.data())
    def remove_tap(self, data):
        tap = data.draw(st.sampled_from(self.taps))
        self.taps.remove(tap)
        self.bus.remove_tap(tap)

    @rule(topic=st.sampled_from(_TOPICS))
    def offer(self, topic):
        wanted = self.bus.wants(topic)
        if not wanted:
            self.declined += 1
        # Publish regardless, to see what the answer should have been.
        self.calls = 0
        subscribed = self.handlers.get(topic, 0)
        delivered = self.bus.publish(topic, None)
        self.dispatched += 1
        assert wanted == (self.calls > 0)
        assert delivered == self.calls - len(self.taps) == subscribed

    @invariant()
    def offered_is_dispatched_plus_declined(self):
        stats = self.bus.stats()
        assert stats["declined"] == self.declined
        assert stats["publishes"] == self.dispatched + self.declined
        assert stats["topics"] == len(self.handlers)
        assert stats["taps"] == len(self.taps)


TestBusChurn = BusChurn.TestCase
TestBusChurn.settings = settings(
    max_examples=60, stateful_step_count=60, deadline=None
)
