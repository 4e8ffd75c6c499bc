"""Multiplexed engine hosting: N workflow instances, one reactor.

The paper's engine navigates a single workflow instance.  A production
Grid-WFS deployment runs many instances at once — and the simulated
evaluation wants to measure contention between them — so
:class:`EngineHost` multiplexes N :class:`~repro.engine.engine.WorkflowEngine`
instances over one shared :class:`~repro.engine.engine.EngineRuntime`: one
reactor/kernel, one :class:`~repro.events.EventBus`, one
:class:`~repro.detection.detector.FailureDetector`, one
:class:`~repro.engine.broker.Broker`, one
:class:`~repro.ckpt.manager.CheckpointManager`.

Isolation comes from who is *called*, not from separate infrastructure
and not from the bus:

* every instance gets a stable ``workflow_id`` (``wf-1``, ``wf-2``, …,
  allocated from the runtime's id counter), carried on every payload its
  engine, coordinator and attempts publish;
* a coordinator gives the detector its ``handle_outcome`` with each
  attempt it tracks, and the detector hands an attempt's verdict to that
  callback alone — an engine never sees, filters or pays for a sibling's
  verdicts, and no engine subscribes to anything;
* execution services key attempt counters by ``(workflow_id, activity)``
  and checkpoint flags are stored under a ``{workflow_id}::`` scope, so
  two concurrent instances of the *same* specification cannot collide.

The shared bus only narrates, on plain topics from a closed set, so
nothing on it grows with the number of instances a host has run.

With deterministic task behaviours and non-contending resources, N
multiplexed instances produce bit-identical per-instance
:class:`~repro.engine.engine.WorkflowResult`\\ s to N sequential runs (the
100-instance oracle in ``tests/test_multiplex.py`` asserts exactly this).
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..core.policy import FailurePolicy
from ..detection.detector import FailureDetector
from ..errors import EngineError
from ..events import EventBus
from ..execution import ExecutionService
from ..obs.tracectx import Tracer
from ..reactor import Reactor
from ..wpdl.model import Workflow
from .broker import Broker
from .engine import EngineRuntime, WorkflowEngine, WorkflowResult
from .strategies import RecoveryStrategy

__all__ = ["EngineHost", "ENGINE_WORKFLOW_ADMITTED"]

#: Published once per :meth:`EngineHost.submit`, before the instance's
#: first node launches (payload: ``workflow``, ``workflow_id``, ``at``).
ENGINE_WORKFLOW_ADMITTED = "engine.workflow_admitted"


class EngineHost:
    """Runs N concurrent workflow instances on one shared runtime.

    Parameters mirror :class:`~repro.engine.engine.WorkflowEngine`'s
    runtime-building path; the host builds the shared runtime once and
    every submitted instance rides on it.  A detector the host builds
    batches heartbeats: with N instances the heartbeat fan-in is the
    dominant liveness cost, and batching coalesces it to one monitor pass
    per reactor turn.  Pass ``detector=`` to choose otherwise.
    """

    def __init__(
        self,
        service: ExecutionService,
        *,
        reactor: Reactor,
        bus: EventBus | None = None,
        broker: Broker | None = None,
        detector: FailureDetector | None = None,
        heartbeat_timeout: float | None = None,
        strategy_resolver: Callable[[FailurePolicy], RecoveryStrategy]
        | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        bus = bus if bus is not None else EventBus()
        if detector is None:
            detector = FailureDetector(
                reactor,
                bus,
                heartbeat_timeout=heartbeat_timeout,
                batch_heartbeats=True,
            )
        service.connect(detector.deliver)
        self.runtime = EngineRuntime(
            reactor=reactor,
            bus=bus,
            service=service,
            detector=detector,
            broker=broker if broker is not None else Broker(),
            tracer=tracer,
            host_managed=True,
        )
        self._strategy_resolver = strategy_resolver
        self._engines: dict[str, WorkflowEngine] = {}
        self._results: dict[str, WorkflowResult] = {}
        self._order: list[str] = []

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        workflow: Workflow,
        *,
        workflow_id: str | None = None,
        validate_spec: bool = True,
    ) -> str:
        """Admit one instance of *workflow* and start its navigation.

        Returns the instance's ``workflow_id`` (``wf-<n>`` unless an
        explicit id is given).  The instance begins executing as soon as
        the reactor runs; call :meth:`wait_all` (or pump the reactor
        yourself) to drive it to completion.
        """
        wfid = (
            workflow_id
            if workflow_id is not None
            else f"wf-{self.runtime.next_engine_id()}"
        )
        if not wfid:
            raise EngineError("workflow_id must be non-empty")
        if wfid in self._engines:
            raise EngineError(f"workflow_id {wfid!r} already submitted")
        engine = WorkflowEngine(
            workflow,
            self.runtime.service,
            reactor=self.runtime.reactor,
            runtime=self.runtime,
            workflow_id=wfid,
            on_finished=lambda result, _wfid=wfid: self._on_finished(
                _wfid, result
            ),
            validate_spec=validate_spec,
            strategy_resolver=self._strategy_resolver,
        )
        self._engines[wfid] = engine
        self._order.append(wfid)
        # Narrate admission before the first node launches so live
        # trackers (/workflows, repro top) list the instance from the
        # moment it exists, not from its first task.
        bus = self.runtime.bus
        if bus.wants(ENGINE_WORKFLOW_ADMITTED):
            bus.publish(
                ENGINE_WORKFLOW_ADMITTED,
                {
                    "workflow": workflow.name,
                    "workflow_id": wfid,
                    "at": self.runtime.reactor.now(),
                },
            )
        engine.start()
        return wfid

    def submit_many(
        self, workflows: Iterable[Workflow] | Workflow, count: int | None = None
    ) -> list[str]:
        """Admit several instances at once.

        Either an iterable of specs, or one spec plus ``count`` (N fresh
        instances of the same specification — the multiplexing stress
        shape).  Validation runs once per distinct spec object.
        """
        ids: list[str] = []
        if isinstance(workflows, Workflow):
            if count is None:
                count = 1
            for i in range(count):
                ids.append(self.submit(workflows, validate_spec=(i == 0)))
            return ids
        if count is not None:
            raise EngineError("count only applies to a single-spec submit_many")
        validated: set[int] = set()
        for spec in workflows:
            first_time = id(spec) not in validated
            validated.add(id(spec))
            ids.append(self.submit(spec, validate_spec=first_time))
        return ids

    # -- completion ----------------------------------------------------------

    def _on_finished(self, wfid: str, result: WorkflowResult) -> None:
        self._results[wfid] = result

    def wait_all(self, *, timeout: float | None = None) -> dict[str, WorkflowResult]:
        """Pump the reactor until every submitted instance terminates.

        Raises :class:`EngineError` if the reactor goes idle or *timeout*
        (reactor seconds) elapses with instances still in flight.
        """
        done = self.runtime.reactor.run_until_complete(
            lambda: len(self._results) == len(self._engines), timeout=timeout
        )
        if not done:
            pending = [w for w in self._order if w not in self._results]
            raise EngineError(
                f"{len(pending)} of {len(self._engines)} instances did not "
                f"terminate (timeout={timeout}, pending: {pending[:10]})"
            )
        return self.results()

    def results(self) -> dict[str, WorkflowResult]:
        """Finished results so far, in submission order."""
        return {
            wfid: self._results[wfid]
            for wfid in self._order
            if wfid in self._results
        }

    # -- introspection -------------------------------------------------------

    @property
    def workflow_ids(self) -> list[str]:
        """Every admitted instance id, in submission order."""
        return list(self._order)

    @property
    def pending(self) -> list[str]:
        """Instances admitted but not yet terminated."""
        return [w for w in self._order if w not in self._results]

    def engine(self, workflow_id: str) -> WorkflowEngine:
        """The engine navigating *workflow_id* (for tests/diagnostics)."""
        try:
            return self._engines[workflow_id]
        except KeyError:
            raise EngineError(f"unknown workflow_id {workflow_id!r}") from None
