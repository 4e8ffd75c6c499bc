"""A small synchronous publish/subscribe event bus.

The bus carries *narration*: the failure detector, the heartbeat monitor,
the recovery coordinators and the engines publish what they see and decide,
and the telemetry plane (:mod:`repro.obs`) — observers, recorders, trackers,
estimators — consumes it.  It carries no control: a verdict reaches the
coordinator that tracked the attempt by a direct call
(:meth:`repro.detection.detector.FailureDetector.track`'s ``on_verdict``),
made *after* the verdict is published, so nothing that steers a run
subscribes here and every observer sees a cause before its effects.
Keeping the bus synchronous and single-threaded (per reactor) preserves
determinism inside the discrete-event simulation.

Topics are plain strings; the stack's own are a closed, declared set (the
README's topic catalogue), and which workflow instance an event belongs to
is on its payload (``workflow_id``), never in the topic.  Subscribers
receive the published payload object.  Hierarchical matching is supported
with a ``*`` wildcard, e.g. a subscription to ``"task.*"`` receives
``"task.done"`` and ``"task.failed"``.  ``*`` is the *only* metacharacter:
``?`` and ``[`` are ordinary characters, so topic names containing them
cannot mis-match (earlier versions used :mod:`fnmatch` rules, where
``"data.[raw]"`` silently became a character class).

Publishing never scans the pattern list per event.  A pattern without a
``*`` is an exact-topic dict entry, any other is an anchored regex compiled
once at subscription time, and every published topic's matching handler
groups are interned in a per-topic **route cache**: the first publish on a
topic resolves its route (exact dict + matching pattern entries);
subsequent publishes are a single dict lookup.  With a closed topic set a
run resolves a handful of routes in all, so how a pattern is matched is
never on a hot path.  Routes hold references to the live handler dicts, so
subscriber churn on existing patterns never invalidates them; only the
appearance or pruning of a pattern/topic does.

Most publications of an unobserved run reach no one, and building their
payloads costs more than routing them.  Publishers on the per-attempt path
therefore ask :meth:`EventBus.wants` first and build the payload only when
the answer is yes::

    if bus.wants(topic):
        bus.publish(topic, {...})

A declined publication is still counted as offered (``stats()``:
``publishes`` = dispatched + ``declined``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["EventBus", "Subscription"]

Handler = Callable[[str, Any], None]

#: Route-cache safety valve: a pathological workload publishing unbounded
#: distinct topics (e.g. ids in topic names without ever re-publishing)
#: drops the cache rather than growing it forever.
_MAX_CACHED_ROUTES = 65536


@dataclass(frozen=True, slots=True)
class Subscription:
    """Handle returned by :meth:`EventBus.subscribe`, used to unsubscribe."""

    pattern: str
    handler: Handler
    token: int


class _PatternEntry:
    """One wildcard pattern — an anchored regex in which everything but
    ``*`` is literal (``?``/``[`` included) — and its live handlers."""

    __slots__ = ("pattern", "regex", "handlers")

    def __init__(self, pattern: str) -> None:
        self.pattern = pattern
        self.regex = re.compile(
            ".*".join(re.escape(part) for part in pattern.split("*")) + r"\Z"
        )
        self.handlers: dict[int, Handler] = {}

    def matches(self, topic: str) -> bool:
        return self.regex.match(topic) is not None


class EventBus:
    """Synchronous topic-based pub/sub with wildcard patterns.

    Publishing invokes matching handlers immediately, in subscription order
    (exact subscriptions before pattern subscriptions, patterns in first-
    subscription order).  Handlers may themselves publish; recursive
    publishes are delivered depth-first.  Handlers may unsubscribe
    themselves (or others) during delivery: delivery iterates over a
    snapshot of the handler list.
    """

    def __init__(self) -> None:
        self._exact: dict[str, dict[int, Handler]] = {}
        self._patterns: list[_PatternEntry] = []
        self._pattern_index: dict[str, _PatternEntry] = {}
        #: topic → handler-dict groups that match it, resolved lazily.
        self._routes: dict[str, tuple[dict[int, Handler], ...]] = {}
        self._next_token = 0
        #: Publications dispatched, and publications :meth:`wants` turned
        #: away before they were built.
        self._seq = 0
        self._declined = 0
        #: Every-event observers (flight recorders) invoked on each publish
        #: *before* routed dispatch — in publish order, ahead of any
        #: recursive publishes a handler triggers.  A tuple so the empty
        #: common case costs one truthiness check on the hot path; taps
        #: bypass route resolution entirely (a ``"*"`` subscription would
        #: put one more group into every topic's route).
        self._taps: tuple[Handler, ...] = ()
        #: Number of route resolutions (full matching passes).  A healthy
        #: steady state publishes many times per build; tests and the bus
        #: micro-benchmark assert on it.
        self.route_builds = 0

    # -- subscription ------------------------------------------------------

    def subscribe(self, pattern: str, handler: Handler) -> Subscription:
        """Register *handler* for topics matching *pattern*.

        Patterns without a ``*`` are matched exactly; patterns containing
        ``*`` match any substring at each wildcard position.  Classification
        (exact / regex) happens here, never per publish.
        """
        token = self._next_token
        self._next_token += 1
        if "*" in pattern:
            entry = self._pattern_index.get(pattern)
            if entry is None:
                entry = _PatternEntry(pattern)
                self._patterns.append(entry)
                self._pattern_index[pattern] = entry
                # A new pattern may match already-routed topics.
                self._routes.clear()
            entry.handlers[token] = handler
        else:
            handlers = self._exact.get(pattern)
            if handlers is None:
                self._exact[pattern] = {token: handler}
                # Only the identical topic can be affected.
                self._routes.pop(pattern, None)
            else:
                handlers[token] = handler
        return Subscription(pattern=pattern, handler=handler, token=token)

    def unsubscribe(self, sub: Subscription) -> None:
        """Remove a previously registered subscription.  Idempotent.

        Pattern/topic groups whose last handler leaves are pruned, so
        long-lived buses with subscriber churn (a multiplexed host running
        thousands of workflow instances) never accumulate dead entries.
        """
        if "*" in sub.pattern:
            entry = self._pattern_index.get(sub.pattern)
            if entry is None:
                return
            entry.handlers.pop(sub.token, None)
            if not entry.handlers:
                del self._pattern_index[sub.pattern]
                self._patterns.remove(entry)
                # Cached routes reference the dead entry's handler dict; a
                # later re-subscribe would create a fresh dict the stale
                # routes don't know about.
                self._routes.clear()
        else:
            handlers = self._exact.get(sub.pattern)
            if handlers is None:
                return
            handlers.pop(sub.token, None)
            if not handlers:
                del self._exact[sub.pattern]
                self._routes.pop(sub.pattern, None)

    def add_tap(self, handler: Handler) -> None:
        """Register *handler* to observe every publish (see ``_taps``).
        Idempotent: a handler already tapped is not added twice."""
        if handler not in self._taps:
            self._taps = (*self._taps, handler)

    def remove_tap(self, handler: Handler) -> None:
        """Remove a previously added tap.  Idempotent.

        Matches by equality, not identity: ``obj.method`` creates a fresh
        bound-method object per access, and two of them compare equal.
        """
        self._taps = tuple(t for t in self._taps if t != handler)

    # -- publication -------------------------------------------------------

    def _build_route(self, topic: str) -> tuple[dict[int, Handler], ...]:
        """Resolve the handler groups matching *topic* (the slow path, run
        once per distinct topic per subscription-set change)."""
        self.route_builds += 1
        groups: list[dict[int, Handler]] = []
        exact = self._exact.get(topic)
        if exact is not None:
            groups.append(exact)
        for entry in self._patterns:
            if entry.matches(topic):
                groups.append(entry.handlers)
        if len(self._routes) >= _MAX_CACHED_ROUTES:
            self._routes.clear()
        route = tuple(groups)
        self._routes[topic] = route
        return route

    def wants(self, topic: str) -> bool:
        """Whether a publication on *topic* would reach anyone right now:
        a tap is attached, or a live handler is routed.

        Ask once per publication about to be offered: ``False`` counts it
        as declined, and the caller skips building the payload (and the
        :meth:`publish` call).  Resolves and caches the topic's route
        exactly as :meth:`publish` would have.
        """
        if self._taps:
            return True
        route = self._routes.get(topic)
        if route is None:
            route = self._build_route(topic)
        for handlers in route:
            if handlers:
                return True
        self._declined += 1
        return False

    def publish(self, topic: str, payload: Any = None) -> int:
        """Publish *payload* on *topic*; returns number of handlers invoked."""
        self._seq += 1
        taps = self._taps
        if taps:
            for tap in taps:
                tap(topic, payload)
        route = self._routes.get(topic)
        if route is None:
            route = self._build_route(topic)
        delivered = 0
        for handlers in route:
            # A group may be empty between its last unsubscribe and the
            # prune/invalidation (exact dicts are pruned eagerly; pattern
            # dicts referenced by this route may have just drained).
            if handlers:
                for handler in list(handlers.values()):
                    handler(topic, payload)
                    delivered += 1
        return delivered

    # -- diagnostics -------------------------------------------------------

    def stats(self) -> dict[str, int | float]:
        """Dispatch-path counters: publications offered (``publishes``,
        of which ``declined`` were turned away by :meth:`wants` and never
        built), interned topic routes, route builds (full matching
        passes), and live subscription-group counts."""
        return {
            "publishes": self._seq + self._declined,
            "declined": self._declined,
            "cached_routes": len(self._routes),
            "route_builds": self.route_builds,
            "exact_topics": len(self._exact),
            "pattern_entries": len(self._patterns),
            "taps": len(self._taps),
        }
