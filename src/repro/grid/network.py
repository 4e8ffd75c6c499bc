"""Simulated message network between Grid hosts and the workflow client.

All heartbeat and notification traffic from hosts to the client crosses this
network.  It models:

* **latency** — per-message delivery delay (fixed plus optional jitter);
* **partitions** — hosts can be partitioned away from the client; their
  messages are silently dropped until the partition heals (the client then
  sees only heartbeat silence — indistinguishable from a crash, as the
  paper notes);
* **loss** — optional i.i.d. message loss probability.

Delivery is **FIFO per source host**: messages from one host arrive in send
order even under jitter, modelling the TCP stream the detection service
rides on.  This matters for correctness of the paper's *Done-without-
TaskEnd ⇒ crash* rule — if the network could reorder a TaskEnd after its
Done, every successful task would risk being misclassified as a crash.

System messages (client-local synthesised signals such as the broken-GRAM-
connection ``Done`` on a host crash) bypass partitions and loss — they never
actually cross the network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

from ..detection.messages import Message
from .random import RandomStreams
from .simkernel import SimKernel

__all__ = ["Network", "NetworkStats"]


@dataclass
class NetworkStats:
    """Counters for test assertions and diagnostics."""

    sent: int = 0
    delivered: int = 0
    dropped_partition: int = 0
    dropped_loss: int = 0
    dropped_no_sink: int = 0


class Network:
    """Host → client message channel with latency, partitions and loss."""

    def __init__(
        self,
        kernel: SimKernel,
        streams: RandomStreams,
        *,
        latency: float = 0.0,
        jitter: float = 0.0,
        loss_probability: float = 0.0,
    ) -> None:
        if latency < 0 or jitter < 0:
            raise ValueError("latency and jitter must be >= 0")
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError(
                f"loss_probability must be in [0, 1), got {loss_probability!r}"
            )
        self._kernel = kernel
        self._streams = streams
        self.latency = latency
        self.jitter = jitter
        self.loss_probability = loss_probability
        self.reset()

    # -- wiring ----------------------------------------------------------------

    def connect(self, sink: Callable[[Message], None]) -> None:
        """Attach the client-side message sink (the failure detector)."""
        self._sink = sink

    def reset(self) -> None:
        """Forget all transient state (sink, partitions, FIFO watermarks,
        stats), as if freshly constructed with the same latency model."""
        self._partitioned: set[str] = set()
        self._sink: Callable[[Message], None] | None = None
        #: Per-host FIFO watermark: when the host's latest message is
        #: scheduled to arrive, the earliest the next one may.
        self._last_delivery: dict[str, float] = {}
        self.stats = NetworkStats()

    # -- partitions --------------------------------------------------------------

    def partition(self, hostname: str) -> None:
        """Cut *hostname* off from the client."""
        self._partitioned.add(hostname)

    def heal(self, hostname: str) -> None:
        """Restore connectivity for *hostname*."""
        self._partitioned.discard(hostname)

    # -- sending ------------------------------------------------------------------

    def send(self, hostname: str, msg: Message) -> None:
        """Send *msg* from *hostname* to the client, subject to partition,
        loss and latency."""
        self.stats.sent += 1
        if hostname in self._partitioned:
            self.stats.dropped_partition += 1
            return
        if self.loss_probability > 0.0 and self._streams.bernoulli(
            "network.loss", self.loss_probability
        ):
            self.stats.dropped_loss += 1
            return
        delay = self.latency
        if self.jitter > 0.0:
            delay += float(self._streams.get("network.jitter").uniform(0, self.jitter))
        if delay or self._last_delivery:
            # FIFO per host: never deliver before an earlier message from
            # the same host (TCP-stream semantics).  A network that has
            # never delayed a message has no watermark to respect.
            now = self._kernel.now()
            arrival = max(now + delay, self._last_delivery.get(hostname, 0.0))
            delay = arrival - now
            # The kernel fires at now + delay, which can round to one ulp
            # under the watermark: nudge until it does not, and remember
            # the time actually scheduled.
            while now + delay < arrival:
                delay = math.nextafter(delay, math.inf)
            self._last_delivery[hostname] = now + delay
        self._kernel.schedule(delay, partial(self._deliver, msg))

    def send_system(self, msg: Message) -> None:
        """Deliver a client-local synthesised message immediately (next
        event-loop turn), bypassing partition/loss/latency."""
        self.stats.sent += 1
        self._kernel.schedule(0.0, partial(self._deliver, msg))

    def _deliver(self, msg: Message) -> None:
        if self._sink is None:
            self.stats.dropped_no_sink += 1
            return
        self.stats.delivered += 1
        self._sink(msg)
