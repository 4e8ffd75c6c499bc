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
is on its payload (``workflow_id``), never in the topic.  A subscription
names one exact topic; there are no patterns.  A consumer that wants every
publication — the telemetry plane's log, a test — adds a **tap** and
filters what it reads itself.

Most publications of an unobserved run reach no one, and building their
payloads costs more than publishing them, so publishers on the per-attempt
path ask first (a declined publication still counts as offered)::

    if bus.wants(topic):
        bus.publish(topic, {...})
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["EventBus"]

Handler = Callable[[str, Any], None]


class EventBus:
    """Synchronous pub/sub on exact topics, plus taps that see everything.

    Publishing calls every tap, then the topic's handlers, immediately and
    in the order they were added.  Handlers may themselves publish;
    recursive publishes are delivered depth-first.  A handler added during
    a delivery does not see the publication in flight.
    """

    def __init__(self) -> None:
        #: topic → its handlers; a topic is here only once subscribed to.
        self._handlers: dict[str, tuple[Handler, ...]] = {}
        #: Publications dispatched, and publications :meth:`wants` turned
        #: away before they were built.
        self._seq = 0
        self._declined = 0
        #: Every-event observers, called in publish order ahead of any
        #: recursive publish a handler makes.  A tuple, so the empty common
        #: case costs one truthiness check.
        self._taps: tuple[Handler, ...] = ()

    def subscribe(self, topic: str, handler: Handler) -> None:
        """Register *handler* for publications on exactly *topic*."""
        if "*" in topic:
            raise ValueError(
                f"subscribe({topic!r}): topics are exact, not patterns; "
                "use add_tap to see every publication"
            )
        self._handlers[topic] = (*self._handlers.get(topic, ()), handler)

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

    def wants(self, topic: str) -> bool:
        """Whether a publication on *topic* would reach a tap or a handler.
        Ask once per publication about to be offered: ``False`` counts it
        as declined, and the caller builds no payload and skips
        :meth:`publish`."""
        if self._taps or topic in self._handlers:
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
        handlers = self._handlers.get(topic)
        if handlers is None:
            return 0
        for handler in handlers:
            handler(topic, payload)
        return len(handlers)

    def stats(self) -> dict[str, int]:
        """Publications offered (``publishes``, of which ``declined`` were
        turned away by :meth:`wants` and never built), taps, and topics
        with a handler."""
        topics = len(self._handlers)
        return {
            "publishes": self._seq + self._declined,
            "declined": self._declined,
            "taps": len(self._taps),
            "topics": topics,
            # The frozen ledger still reads these two; ROADMAP item 1
            # deletes them.
            "route_builds": 0,
            "cached_routes": topics,
        }
