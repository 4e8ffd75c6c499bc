"""Simulated Grid host.

A host alternates between UP and DOWN according to the paper's failure
model: time-to-failure is exponential with mean MTTF (Poisson failure
arrivals), downtime is exponential with the configured mean.  While UP the
host's generic server emits heartbeats and runs submitted jobs; a crash
kills every running job instantly and stops the heartbeats.  Queued jobs
(submissions that arrived while the host was down, with batch-queue
semantics) start when the host comes back up.

The host knows nothing about workflows: it runs opaque :class:`JobProcess`
objects handed to it by the GRAM service and invokes registered callbacks on
crash/recovery.  Software installation (executable name → behaviour) also
lives here, mirroring a real host's filesystem.
"""

from __future__ import annotations

import itertools
from collections import deque
from enum import Enum
from typing import TYPE_CHECKING, Callable

from ..detection.messages import Heartbeat
from ..errors import GridError, UnknownExecutableError
from ..timerheap import TimerHandle
from .behaviors import TaskBehavior
from .network import Network
from .random import RandomStreams
from .resource import ResourceSpec
from .simkernel import PeriodicTask, SimKernel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .gram import JobProcess

__all__ = ["Host", "HostState"]


class HostState(str, Enum):
    UP = "up"
    DOWN = "down"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Host:
    """One simulated Grid resource with a crash/repair lifecycle."""

    def __init__(
        self,
        kernel: SimKernel,
        network: Network,
        streams: RandomStreams,
        spec: ResourceSpec,
        *,
        heartbeats_enabled: bool = True,
    ) -> None:
        self.kernel = kernel
        self.network = network
        self.streams = streams
        self.spec = spec
        self.hostname = spec.hostname
        self.software: dict[str, TaskBehavior] = {}
        self._heartbeats_enabled = heartbeats_enabled
        self._ttf_stream = f"host.{spec.hostname}.ttf"
        self._downtime_stream = f"host.{spec.hostname}.downtime"
        self.reset()

    def reset(self) -> None:
        """Come up as at construction (installed software kept): heartbeats
        start, then the first crash is drawn, so a grid reset reproduces a
        freshly built grid's event sequence and RNG draws bit-for-bit.

        The kernel and streams are assumed to have been reset already.
        Stale event handles are dropped; cancelling one would be a no-op
        anyway, as a kernel reset disowns every queued entry.
        """
        #: ``state`` and ``up`` are written together, at the three places
        #: the state changes (here, ``crash``, ``recover``).
        self.state = HostState.UP
        self.up = True
        self._running: dict[str, "JobProcess"] = {}
        self._queued: deque["JobProcess"] = deque()
        self._recover_listeners: list[Callable[["Host"], None]] = []
        self._heartbeat_seq = itertools.count()
        self._heartbeat_task: PeriodicTask | None = None
        self._crash_handle: TimerHandle | None = None
        #: Lifetime counters (diagnostics / tests).
        self.crash_count = 0
        self.jobs_started = 0
        self.jobs_killed = 0
        if self._heartbeats_enabled:
            self._start_heartbeats()
        self._schedule_next_crash()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Host {self.hostname} {self.state} jobs={len(self._running)}>"

    # -- software ---------------------------------------------------------------

    def install(self, executable: str, behavior: TaskBehavior) -> None:
        """Install *behavior* under the logical executable name."""
        if not executable:
            raise GridError("executable name must be non-empty")
        self.software[executable] = behavior

    def resolve(self, executable: str) -> TaskBehavior:
        try:
            return self.software[executable]
        except KeyError:
            raise UnknownExecutableError(
                f"{executable!r} is not installed on {self.hostname}"
            ) from None

    # -- job management (driven by GramService) -----------------------------------

    def start_job(self, process: "JobProcess") -> None:
        """Begin executing *process* (host must be UP), or queue it when
        every execution slot is taken."""
        if not self.up:
            raise GridError(f"host {self.hostname} is down")
        if self.spec.slots is not None and len(self._running) >= self.spec.slots:
            self._queued.append(process)
            return
        self._running[process.job_id] = process
        self.jobs_started += 1
        process.begin()

    def queue_job(self, process: "JobProcess") -> None:
        """Hold *process* until the host recovers (batch-queue semantics)."""
        self._queued.append(process)

    def job_finished(self, job_id: str) -> None:
        """Called by a process when it reaches a terminal step; a freed
        slot admits the next queued job (FIFO)."""
        self._running.pop(job_id, None)
        self._admit_queued()

    def _admit_queued(self) -> None:
        while self._queued and self.up and (
            self.spec.slots is None or len(self._running) < self.spec.slots
        ):
            process = self._queued.popleft()
            self._running[process.job_id] = process
            self.jobs_started += 1
            process.begin()

    def cancel_job(self, job_id: str) -> None:
        """Let go of a job GRAM cancels (GRAM stops its process)."""
        if self._running.pop(job_id, None) is None:
            self._queued = deque(p for p in self._queued if p.job_id != job_id)

    # -- listeners ---------------------------------------------------------------

    def on_recover(self, listener: Callable[["Host"], None]) -> None:
        self._recover_listeners.append(listener)

    def off_recover(self, listener: Callable[["Host"], None]) -> None:
        """Remove a recovery listener (matched by equality).  Idempotent."""
        try:
            self._recover_listeners.remove(listener)
        except ValueError:
            pass

    # -- failure lifecycle ----------------------------------------------------------

    def _schedule_next_crash(self) -> None:
        if self.spec.reliable:
            return
        ttf = self.streams.ttf(self._ttf_stream, self.spec.mttf)
        self._crash_handle = self.kernel.schedule(ttf, self.crash)

    def crash(self, *, schedule_recovery: bool = True) -> None:
        """Crash now (also callable directly for fault injection).

        ``schedule_recovery=False`` leaves the host down until someone calls
        :meth:`recover` explicitly — used by scripted fault injection; the
        default draws a downtime from the host's exponential repair model
        (a mean of 0 recovers at the next event-loop turn, the paper's
        D = 0 configuration).
        """
        if not self.up:
            return
        self.state = HostState.DOWN
        self.up = False
        self.crash_count += 1
        if self._heartbeat_task is not None:
            self._heartbeat_task.stop()
            self._heartbeat_task = None
        if self._crash_handle is not None:
            self._crash_handle.cancel()
            self._crash_handle = None
        victims = list(self._running.values())
        self._running.clear()
        self.jobs_killed += len(victims)
        for process in victims:
            process.host_crashed()
        if schedule_recovery:
            downtime = self.streams.downtime(
                self._downtime_stream, self.spec.mean_downtime
            )
            self.kernel.schedule(downtime, self.recover)

    def recover(self) -> None:
        """Come back up after a crash (also callable for fault injection)."""
        if self.up:
            return
        self.state = HostState.UP
        self.up = True
        if self._heartbeats_enabled:
            self._start_heartbeats()
        self._schedule_next_crash()
        self._admit_queued()
        for listener in list(self._recover_listeners):
            listener(self)

    # -- heartbeats ----------------------------------------------------------------

    def _start_heartbeats(self) -> None:
        def beat() -> None:
            self.network.send(
                self.hostname,
                Heartbeat(
                    sent_at=self.kernel.now(),
                    hostname=self.hostname,
                    seq=next(self._heartbeat_seq),
                ),
            )

        # First beat immediately announces the host; then periodic.
        beat()
        self._heartbeat_task = PeriodicTask(
            self.kernel, self.spec.heartbeat_period, beat
        )
