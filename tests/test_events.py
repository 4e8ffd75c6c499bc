"""Unit tests for the synchronous pub/sub event bus."""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro import events
from repro.events import EventBus, _PatternEntry


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

    def test_wildcard_pattern_matches_hierarchy(self):
        bus = EventBus()
        seen = []
        bus.subscribe("task.*", lambda t, p: seen.append(t))
        bus.publish("task.done", None)
        bus.publish("task.failed", None)
        bus.publish("host.crashed", None)
        assert seen == ["task.done", "task.failed"]

    def test_multiple_subscribers_in_order(self):
        bus = EventBus()
        order = []
        bus.subscribe("x", lambda t, p: order.append("a"))
        bus.subscribe("x", lambda t, p: order.append("b"))
        bus.publish("x", None)
        assert order == ["a", "b"]

    def test_exact_and_pattern_both_fire(self):
        bus = EventBus()
        seen = []
        bus.subscribe("a.b", lambda t, p: seen.append("exact"))
        bus.subscribe("a.*", lambda t, p: seen.append("pattern"))
        assert bus.publish("a.b", None) == 2
        assert set(seen) == {"exact", "pattern"}


class TestLiteralMetacharacters:
    """Only ``*`` is a wildcard; regex/fnmatch metacharacters in topic
    names and patterns match themselves."""

    def test_brackets_in_pattern_match_literally(self):
        bus = EventBus()
        seen = []
        bus.subscribe("task[0].*", lambda t, p: seen.append(t))
        bus.publish("task[0].done", None)
        bus.publish("task0.done", None)  # fnmatch would have matched '[0]'
        assert seen == ["task[0].done"]

    def test_question_mark_is_not_a_wildcard(self):
        bus = EventBus()
        seen = []
        bus.subscribe("probe?.*", lambda t, p: seen.append(t))
        bus.publish("probe?.ok", None)
        bus.publish("probe1.ok", None)  # fnmatch '?' would have matched '1'
        assert seen == ["probe?.ok"]

    def test_dots_match_literally_not_as_regex(self):
        bus = EventBus()
        seen = []
        bus.subscribe("a.b", lambda t, p: seen.append(t))
        bus.publish("aXb", None)
        assert seen == []

    def test_star_matches_empty_and_across_separators(self):
        bus = EventBus()
        seen = []
        bus.subscribe("task.*done", lambda t, p: seen.append(t))
        bus.publish("task.done", None)
        bus.publish("task.sub.done", None)
        assert seen == ["task.done", "task.sub.done"]

    def test_pattern_must_match_whole_topic(self):
        bus = EventBus()
        seen = []
        bus.subscribe("task.*", lambda t, p: seen.append(t))
        bus.publish("subtask.done", None)
        assert seen == []


class TestUnsubscribe:
    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        seen = []
        sub = bus.subscribe("x", lambda t, p: seen.append(p))
        bus.publish("x", 1)
        bus.unsubscribe(sub)
        bus.publish("x", 2)
        assert seen == [1]

    def test_unsubscribe_is_idempotent(self):
        bus = EventBus()
        sub = bus.subscribe("x", lambda t, p: None)
        bus.unsubscribe(sub)
        bus.unsubscribe(sub)  # no error

    def test_unsubscribe_pattern_subscription(self):
        bus = EventBus()
        seen = []
        sub = bus.subscribe("a.*", lambda t, p: seen.append(p))
        bus.unsubscribe(sub)
        bus.publish("a.b", 1)
        assert seen == []

    def test_handler_may_unsubscribe_itself_during_delivery(self):
        bus = EventBus()
        seen = []
        subs = {}

        def once(t, p):
            seen.append(p)
            bus.unsubscribe(subs["once"])

        subs["once"] = bus.subscribe("x", once)
        bus.publish("x", 1)
        bus.publish("x", 2)
        assert seen == [1]

    def test_two_handlers_same_pattern_independent(self):
        bus = EventBus()
        seen = []
        s1 = bus.subscribe("p.*", lambda t, p: seen.append("one"))
        bus.subscribe("p.*", lambda t, p: seen.append("two"))
        bus.unsubscribe(s1)
        bus.publish("p.q", None)
        assert seen == ["two"]


class TestRouteCache:
    """Dispatch is route-cached: pattern matching runs once per distinct
    topic per subscription-set change, never per publish."""

    def test_repeat_publish_builds_route_once(self):
        bus = EventBus()
        bus.subscribe("task.*", lambda t, p: None)
        for _ in range(50):
            bus.publish("task.done", None)
        assert bus.stats()["route_builds"] == 1
        assert bus.stats()["cached_routes"] == 1

    def test_warm_publish_never_scans_patterns(self, monkeypatch):
        bus = EventBus()
        seen = []
        bus.subscribe("task.*", lambda t, p: seen.append(p))
        bus.publish("task.done", 0)  # builds (and warms) the route
        calls = {"matches": 0}
        real_matches = _PatternEntry.matches

        def counting_matches(self, topic):
            calls["matches"] += 1
            return real_matches(self, topic)

        monkeypatch.setattr(_PatternEntry, "matches", counting_matches)
        for i in range(100):
            bus.publish("task.done", i)
        assert calls["matches"] == 0
        assert len(seen) == 101

    def test_new_pattern_invalidates_cached_routes(self):
        bus = EventBus()
        seen = []
        bus.subscribe("task.done", lambda t, p: seen.append("exact"))
        bus.publish("task.done", None)
        bus.subscribe("task.*", lambda t, p: seen.append("pattern"))
        bus.publish("task.done", None)
        assert seen == ["exact", "exact", "pattern"]

    def test_subscriber_churn_on_existing_pattern_keeps_route(self):
        bus = EventBus()
        bus.subscribe("task.*", lambda t, p: None)
        bus.publish("task.done", None)
        builds = bus.stats()["route_builds"]
        # More handlers on the same pattern reuse the live handler dict.
        sub = bus.subscribe("task.*", lambda t, p: None)
        bus.publish("task.done", None)
        bus.unsubscribe(sub)
        bus.publish("task.done", None)
        assert bus.stats()["route_builds"] == builds


class TestPruning:
    """Empty handler groups are pruned on last unsubscribe, so long-lived
    buses with subscriber churn never accumulate dead entries."""

    def test_last_pattern_unsubscribe_prunes_entry(self):
        bus = EventBus()
        sub = bus.subscribe("a.*", lambda t, p: None)
        assert bus.stats()["pattern_entries"] == 1
        bus.unsubscribe(sub)
        assert bus.stats()["pattern_entries"] == 0

    def test_last_exact_unsubscribe_prunes_topic(self):
        bus = EventBus()
        sub = bus.subscribe("a.b", lambda t, p: None)
        assert bus.stats()["exact_topics"] == 1
        bus.unsubscribe(sub)
        assert bus.stats()["exact_topics"] == 0

    def test_resubscribe_after_prune_is_delivered(self):
        bus = EventBus()
        seen = []
        sub = bus.subscribe("a.*", lambda t, p: seen.append("old"))
        bus.publish("a.b", None)  # route now references the old dict
        bus.unsubscribe(sub)
        bus.subscribe("a.*", lambda t, p: seen.append("new"))
        bus.publish("a.b", None)
        assert seen == ["old", "new"]

    def test_engine_churn_does_not_grow_subscription_table(self):
        bus = EventBus()
        for i in range(200):
            subs = [
                bus.subscribe(f"task.done.wf-{i}", lambda t, p: None),
                bus.subscribe(f"task.failed.wf-{i}", lambda t, p: None),
            ]
            bus.publish(f"task.done.wf-{i}", None)
            for sub in subs:
                bus.unsubscribe(sub)
        stats = bus.stats()
        assert stats["exact_topics"] == 0
        assert stats["pattern_entries"] == 0


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


#: Exact, trailing-star and general patterns over a small topic alphabet, plus enough
#: distinct topics to overflow the (shrunk) route cache several times.
_PATTERNS = ("a.x", "a.y", "b.x", "a.*", "b.*", "*", "*.x", "a.*.z", "t.1*")
_TOPICS = ("a.x", "a.y", "b.x", "b.y", "a.q.z", "c") + tuple(
    f"t.{i}" for i in range(24)
)


class BusChurn(RuleBasedStateMachine):
    """``wants`` and ``publish`` must agree whatever the subscription set
    has been through: ``wants(t)`` is true exactly when ``publish(t, …)``
    would reach a handler or a tap."""

    subscriptions = Bundle("subscriptions")

    def __init__(self) -> None:
        super().__init__()
        self._saved_limit = events._MAX_CACHED_ROUTES
        events._MAX_CACHED_ROUTES = 8  # overflow often, not after 65536 topics
        self.bus = EventBus()
        self.calls = 0
        self.taps = []
        self.dispatched = 0
        self.declined = 0

    def teardown(self) -> None:
        events._MAX_CACHED_ROUTES = self._saved_limit

    def _handler(self, _topic, _payload) -> None:
        self.calls += 1

    @rule(target=subscriptions, pattern=st.sampled_from(_PATTERNS))
    def subscribe(self, pattern):
        return self.bus.subscribe(pattern, self._handler)

    @rule(target=subscriptions, pattern=st.sampled_from(_PATTERNS))
    def subscribe_one_shot(self, pattern):
        """A handler that unsubscribes itself while being delivered to."""
        holder = []

        def once(_topic, _payload) -> None:
            self.calls += 1
            self.bus.unsubscribe(holder[0])

        holder.append(self.bus.subscribe(pattern, once))
        return holder[0]

    @rule(sub=subscriptions)
    def unsubscribe(self, sub):
        self.bus.unsubscribe(sub)  # idempotent: may already be gone

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
        delivered = self.bus.publish(topic, None)
        self.dispatched += 1
        assert wanted == (self.calls > 0)
        assert delivered == self.calls - len(self.taps)

    @invariant()
    def offered_is_dispatched_plus_declined(self):
        stats = self.bus.stats()
        assert stats["declined"] == self.declined
        assert stats["publishes"] == self.dispatched + self.declined
        assert stats["cached_routes"] <= 8


TestBusChurn = BusChurn.TestCase
TestBusChurn.settings = settings(
    max_examples=60, stateful_step_count=60, deadline=None
)
