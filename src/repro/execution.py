"""Execution-service interface between the engine and the Grid substrate.

The paper's engine submits tasks "to appropriate Grid resources via the
Globus GRAM protocol" and learns their fate through the generic failure
detection service.  We capture that contract in one small interface so the
same engine runs against:

* :class:`repro.grid.simgrid.SimulatedGrid` — the discrete-event simulated
  Grid used by the evaluation, and
* :class:`repro.engine.executors.LocalExecutor` — a thread-pool executor
  that runs real Python callables in wall-clock time.

The interface is intentionally one-way: ``submit`` / ``cancel`` go down, and
all status comes back asynchronously as detection-service messages delivered
to the sink registered with :meth:`ExecutionService.connect` (normally
:meth:`repro.detection.detector.FailureDetector.deliver`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, NamedTuple

from .core.records import FrozenRecord
from .detection.messages import Message

__all__ = ["SubmitRequest", "ExecutionService"]


class _SubmitRequestFields(NamedTuple):
    # The defaults are ``SubmitRequest.__new__``'s.
    activity: str
    executable: str
    hostname: str
    service: str
    directory: str
    arguments: dict[str, Any]
    queue_when_down: bool


class SubmitRequest(FrozenRecord, _SubmitRequestFields):
    """What to run for one activity (the GRAM job request analogue).

    A request names the *job*, not the attempt: it is fixed by the
    activity's WPDL ``<Option>`` and ``<Input>`` bindings, so every attempt
    of that activity on that option — retries, and every instance of the
    specification — may submit the same object.  What varies per attempt
    (the checkpoint flag to restart from, the owning instance) is passed
    to :meth:`ExecutionService.submit` alongside it.

    A ``NamedTuple`` with the equality of the frozen dataclass it was
    (:class:`~repro.core.records.FrozenRecord`): the recovery coordinator
    mints one with a single ``tuple.__new__``; built directly, each gets
    its own empty ``arguments`` dict.

    Attributes
    ----------
    activity:
        Workflow activity name this job executes (for bookkeeping).
    executable:
        Logical executable name; resolved against the host's installed
        software (simulation) or the software catalog (local execution).
    hostname / service / directory:
        Target resource coordinates, straight from the WPDL ``<Option>``
        element (``hostname= service= executableDir=``).
    arguments:
        Task arguments (the WPDL ``<Input>`` bindings).
    queue_when_down:
        When True and the target host is down, hold the request in the
        host's queue and start it upon recovery (batch-queue semantics,
        and the behaviour the paper's downtime model assumes: after a
        failure the task "is up again" after downtime D).  When False a
        submission to a down host is rejected immediately.
    """

    __slots__ = ()

    def __new__(
        cls,
        activity: str,
        executable: str,
        hostname: str,
        service: str = "jobmanager",
        directory: str = "",
        arguments: dict[str, Any] | None = None,
        queue_when_down: bool = True,
    ):
        if arguments is None:
            arguments = {}
        return tuple.__new__(
            cls,
            (
                activity,
                executable,
                hostname,
                service,
                directory,
                arguments,
                queue_when_down,
            ),
        )


class ExecutionService(ABC):
    """Submit/cancel interface plus the asynchronous message channel."""

    @abstractmethod
    def submit(
        self,
        request: SubmitRequest,
        *,
        checkpoint_flag: str | None = None,
        workflow_id: str = "",
    ) -> str:
        """Submit one attempt of *request*; returns the service-assigned
        job id.

        *checkpoint_flag* is the flag a previous attempt reported; non-None
        asks for a restart from that saved state rather than from the
        beginning.  *workflow_id* is the owning workflow instance in a
        multiplexed run ("" otherwise): services must treat
        ``(workflow_id, request.activity)`` — not the bare activity name —
        as the attempt-sequence identity, so two concurrent instances of
        the same specification keep independent attempt counters while
        submitting the same request.

        Submission itself never raises for runtime conditions (host down
        with ``queue_when_down=False``, unknown executable): those surface
        asynchronously as a failed attempt, exactly like a GRAM callback.
        Programming errors (unknown hostname) do raise.
        """

    @abstractmethod
    def cancel(self, job_id: str) -> None:
        """Best-effort cancellation (used to reap losing replicas)."""

    @abstractmethod
    def connect(self, sink: Callable[[Message], None]) -> None:
        """Register the client-side message sink (the failure detector)."""
