"""Heartbeat-based host liveness monitoring.

Each Grid host's generic server emits periodic :class:`Heartbeat` messages.
The monitor tracks the last beat per host and, on a periodic sweep, declares
any host silent for longer than ``timeout`` seconds *suspected* — the
liveness half of the paper's generic failure detection service, covering
host crashes, reboots, and network partitions (which are indistinguishable
from the client's vantage point, as usual for failure detectors in
asynchronous systems).

Suspicion is narrated on the event bus as ``detector.host_suspected`` and
revoked with ``detector.host_recovered`` if beats resume (e.g. a partition
healed).  The task-level failure detector, which owns the monitor, is told
of each suspicion by call (``on_suspected``, right after the publish) and
fails the tasks running on the suspected host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..events import EventBus
from ..reactor import Reactor, TimerHandle
from .messages import Heartbeat

__all__ = ["HeartbeatMonitor", "HostLiveness", "HOST_SUSPECTED", "HOST_RECOVERED"]

HOST_SUSPECTED = "detector.host_suspected"
HOST_RECOVERED = "detector.host_recovered"


@dataclass
class HostLiveness:
    """Monitor-side record for one host."""

    hostname: str
    last_beat: float
    last_seq: int
    suspected: bool = False
    #: Number of times this host has been suspected (diagnostics).
    suspicions: int = 0
    #: Heartbeats observed from this host (the telemetry plane's
    #: heartbeat-loss feed divides suspicions by this).
    beats: int = 0


class HeartbeatMonitor:
    """Declares hosts suspected after ``timeout`` seconds of silence.

    Parameters
    ----------
    reactor:
        Time/timer source (simulated or real).
    bus:
        Event bus on which suspicion/recovery events are published.  The
        payload is the hostname.
    timeout:
        Silence threshold.  Should exceed the heartbeat period plus the
        maximum expected network delay, or live hosts will be falsely
        suspected (the classic accuracy/completeness trade-off, exercised
        by the heartbeat-timeout ablation benchmark).
    sweep_interval:
        How often to scan for silent hosts; defaults to ``timeout / 2``.
    on_suspected:
        Called with the hostname after each suspicion is published — how
        the owning detector acts on it.
    """

    #: The pending sweep, while sweeping (nothing to cancel before then).
    _sweep_handle: TimerHandle | None = None

    def __init__(
        self,
        reactor: Reactor,
        bus: EventBus,
        *,
        timeout: float,
        sweep_interval: float | None = None,
        on_suspected: Callable[[str], None] | None = None,
    ) -> None:
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout!r}")
        self._reactor = reactor
        self._bus = bus
        self.timeout = timeout
        self.sweep_interval = sweep_interval if sweep_interval else timeout / 2
        self._on_suspected = on_suspected
        self.reset()

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Begin periodic sweeps."""
        if not self._running:
            self._running = True
            self._schedule_sweep()

    def stop(self) -> None:
        self._running = False
        if self._sweep_handle is not None:
            self._sweep_handle.cancel()
            self._sweep_handle = None

    def reset(self) -> None:
        """Stop sweeping and forget all liveness records — back to the
        just-constructed state, for engine reuse across simulation runs."""
        self.stop()
        self._hosts: dict[str, HostLiveness] = {}
        #: False suspicions observed so far: suspected hosts that later
        #: resumed beating with a continuing sequence number.
        self.false_suspicions = 0

    def _schedule_sweep(self) -> None:
        self._sweep_handle = self._reactor.call_later(self.sweep_interval, self._sweep)

    # -- input -------------------------------------------------------------------

    def observe(self, beat: Heartbeat) -> None:
        """Feed one heartbeat into the monitor."""
        self.observe_batch([beat])

    def observe_batch(self, beats: list[Heartbeat]) -> None:
        """Feed many heartbeats observed in the same reactor turn at once.

        Each beat touches its host's record in place — the observation
        time, the sequence number, the beat count — so a batch costs one
        clock read and no allocation beyond a new host's record.  A
        suspected host is revoked at its first beat in the batch, so
        records, ``false_suspicions`` and the order of recovery
        publications are exactly those of feeding the beats one at a time
        through :meth:`observe`.
        """
        now = self._reactor.now()
        hosts = self._hosts
        for beat in beats:
            hostname = beat.hostname
            record = hosts.get(hostname)
            if record is None:
                hosts[hostname] = HostLiveness(
                    hostname=hostname, last_beat=now, last_seq=beat.seq, beats=1
                )
                continue
            record.last_beat = now
            record.last_seq = beat.seq
            record.beats += 1
            if record.suspected:
                record.suspected = False
                self.false_suspicions += 1
                self._bus.publish(HOST_RECOVERED, hostname)

    def watch(self, hostname: str) -> None:
        """Register *hostname* before its first beat (treats registration
        time as a synthetic beat, so the timeout applies immediately)."""
        if hostname not in self._hosts:
            self._hosts[hostname] = HostLiveness(
                hostname=hostname, last_beat=self._reactor.now(), last_seq=-1
            )

    # -- sweep ---------------------------------------------------------------------

    def _sweep(self) -> None:
        if not self._running:
            return
        now = self._reactor.now()
        # Snapshot: a suspicion synchronously triggers recovery (retry on
        # another host), which registers new hosts mid-sweep.
        for record in list(self._hosts.values()):
            if not record.suspected and now - record.last_beat > self.timeout:
                record.suspected = True
                record.suspicions += 1
                self._bus.publish(HOST_SUSPECTED, record.hostname)
                if self._on_suspected is not None:
                    self._on_suspected(record.hostname)
        self._schedule_sweep()

    # -- queries ----------------------------------------------------------------------

    def is_suspected(self, hostname: str) -> bool:
        record = self._hosts.get(hostname)
        return bool(record and record.suspected)

    def liveness(self, hostname: str) -> HostLiveness | None:
        return self._hosts.get(hostname)

    def snapshot(self) -> list[dict]:
        """JSON-safe per-host liveness counters — the heartbeat-loss feed
        the estimator suite ingests on the collector cadence."""
        return [
            {
                "host": record.hostname,
                "beats": record.beats,
                "suspicions": record.suspicions,
                "suspected": record.suspected,
                "last_beat": record.last_beat,
            }
            for record in sorted(self._hosts.values(), key=lambda r: r.hostname)
        ]
