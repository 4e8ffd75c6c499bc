"""The simulated Grid facade.

Bundles the discrete-event kernel, RNG streams, network, hosts, checkpoint
store and GRAM service into one object implementing the engine's
:class:`repro.execution.ExecutionService` interface.  This is the testbed
substitute for the paper's Globus deployment: build a grid, install
software, hand it to a :class:`repro.engine.engine.WorkflowEngine`, run.

Typical use::

    grid = SimulatedGrid(seed=42)
    grid.add_host(UNRELIABLE("n1.example.org", mttf=50.0))
    grid.install("n1.example.org", "sum", FixedDurationTask(30.0))
    engine = WorkflowEngine(workflow, grid, reactor=grid.reactor)
    result = engine.run()
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from ..ckpt.store import CheckpointStore, MemoryCheckpointStore
from ..detection.messages import Message
from ..errors import GridError
from ..execution import ExecutionService, SubmitRequest
from .behaviors import TaskBehavior
from .gram import GramConfig, GramService
from .host import Host
from .network import Network
from .random import DEFAULT_SEED, RandomStreams
from .resource import ResourceSpec
from .simkernel import SimKernel, SimReactor

__all__ = ["GridConfig", "SimulatedGrid"]


@dataclass(frozen=True)
class GridConfig:
    """Grid-wide simulation knobs."""

    #: Crash observability mode; see :class:`repro.grid.gram.GramConfig`.
    crash_detection: str = "prompt"
    #: One-way host→client message latency (and optional jitter).
    network_latency: float = 0.0
    network_jitter: float = 0.0
    message_loss: float = 0.0
    #: Emit heartbeats at all (the evaluation runs with prompt crash
    #: detection and can switch heartbeats off for speed).
    heartbeats: bool = True


class SimulatedGrid(ExecutionService):
    """A complete simulated Grid: hosts + network + GRAM + storage."""

    def __init__(
        self,
        *,
        seed: int = DEFAULT_SEED,
        config: GridConfig | None = None,
        store: CheckpointStore | None = None,
    ) -> None:
        self.config = config or GridConfig()
        self.kernel = SimKernel()
        self.reactor = SimReactor(self.kernel)
        self.streams = RandomStreams(seed)
        self.network = Network(
            self.kernel,
            self.streams,
            latency=self.config.network_latency,
            jitter=self.config.network_jitter,
            loss_probability=self.config.message_loss,
        )
        self.store = store if store is not None else MemoryCheckpointStore()
        self.hosts: dict[str, Host] = {}
        self.gram = GramService(
            self.kernel,
            self.network,
            self.hosts,
            self.streams,
            self.store,
            GramConfig(crash_detection=self.config.crash_detection),
        )

    # -- reuse ------------------------------------------------------------------

    def reset(self, *, seed: int | None = None) -> None:
        """Rewind the grid to time zero with fresh randomness, in place.

        Hosts (and their installed software) survive; everything transient
        — the event queue, RNG streams, in-flight jobs, checkpoints,
        network wiring — is rebuilt by the ``reset`` that construction
        itself runs, layer by layer, as a newly constructed
        ``SimulatedGrid(seed=...)`` with the same hosts added in the same
        order would build it, so a reset grid produces bit-identical
        simulations.  Timer handles from before the reset are disowned:
        cancelling one is a no-op.  This is the Monte-Carlo fast path: per-run setup
        drops from "construct the world" to "reseed and rewind"
        (:class:`repro.sim.engine_mc.EngineSampler`).
        """
        self.kernel.reset()
        self.streams.reseed(self.seed if seed is None else seed)
        self.network.reset()
        self.store.clear()
        self.gram.reset()
        # Host reset order must match construction order: each reset
        # consumes the host's TTF draw and event sequence numbers.
        for host in self.hosts.values():
            host.reset()

    @property
    def seed(self) -> int:
        """Root seed currently driving the RNG streams."""
        return self.streams.seed

    # -- construction -----------------------------------------------------------

    def add_host(self, spec: ResourceSpec) -> Host:
        """Create and register a host from *spec*."""
        if spec.hostname in self.hosts:
            raise GridError(f"duplicate host: {spec.hostname!r}")
        host = Host(
            self.kernel,
            self.network,
            self.streams,
            spec,
            heartbeats_enabled=self.config.heartbeats,
        )
        self.hosts[spec.hostname] = host
        return host

    def add_hosts(self, specs: Iterable[ResourceSpec]) -> list[Host]:
        return [self.add_host(spec) for spec in specs]

    def install(self, hostname: str, executable: str, behavior: TaskBehavior) -> None:
        """Install *behavior* as *executable* on one host."""
        host = self.hosts.get(hostname)
        if host is None:
            raise GridError(f"unknown host: {hostname!r}")
        host.install(executable, behavior)

    def install_everywhere(self, executable: str, behavior: TaskBehavior) -> None:
        """Install *behavior* on every registered host."""
        if not self.hosts:
            raise GridError("no hosts registered")
        for host in self.hosts.values():
            host.install(executable, behavior)

    def host(self, hostname: str) -> Host:
        try:
            return self.hosts[hostname]
        except KeyError:
            raise GridError(f"unknown host: {hostname!r}") from None

    # -- ExecutionService ----------------------------------------------------------

    def submit(
        self,
        request: SubmitRequest,
        *,
        checkpoint_flag: str | None = None,
        workflow_id: str = "",
    ) -> str:
        return self.gram.submit(
            request, checkpoint_flag=checkpoint_flag, workflow_id=workflow_id
        )

    def cancel(self, job_id: str) -> None:
        self.gram.cancel(job_id)

    def connect(self, sink: Callable[[Message], None]) -> None:
        self.network.connect(sink)

    # -- convenience -------------------------------------------------------------------

    def run(self, *, max_events: int | None = None) -> int:
        """Drain the simulation; returns the number of events processed."""
        return self.kernel.run(max_events=max_events)

    def now(self) -> float:
        return self.kernel.now()
