"""Task-side event notification API.

The paper's prototype exposes C functions (``globus_FDS_task_end()``,
``globus_FDS_task_checkpoint()``, ...) that application code calls to send
event notifications to the workflow client.  This module is the Python
equivalent: a :class:`TaskContext`, through which a task announces its
start/end, raises user-defined exceptions, and registers checkpoints.

Real Python callables run by the local executor
(:class:`repro.engine.executors.LocalExecutor`) receive one as their first
argument.  Simulated jobs do not use it: the simulated GRAM service
(:mod:`repro.grid.gram`) sends the same messages itself, as the task
behaviours (:mod:`repro.grid.behaviors`) plan them.

Raising :class:`TaskFailedSignal` / returning normally maps onto the
notification vocabulary; the context forwards every call to a transport
callback (the local executor's queue).
"""

from __future__ import annotations

from typing import Any, Callable

from ..core.exceptions import UserException
from ..errors import DetectionError
from .messages import CheckpointNotice, ExceptionNotice, Message, TaskEnd, TaskStart

__all__ = ["TaskContext", "TaskFailedSignal", "UserExceptionSignal"]


class TaskFailedSignal(Exception):
    """Raised inside a task body to simulate a crash (process dies without
    reaching its logical end — the engine will observe Done without
    TaskEnd)."""


class UserExceptionSignal(Exception):
    """Raised inside a task body to surface a user-defined exception.

    Task code can either call :meth:`TaskContext.raise_exception` (which
    raises this signal) or raise it directly with a
    :class:`~repro.core.exceptions.UserException`.
    """

    def __init__(self, exception: UserException) -> None:
        super().__init__(str(exception))
        self.exception = exception


class TaskContext:
    """Per-attempt handle for task-side notifications.

    Parameters
    ----------
    job_id:
        The execution service's identifier for this attempt.
    hostname:
        Host the attempt runs on.
    send:
        Transport callback; receives fully formed notification messages.
    clock:
        Zero-argument callable returning the current time (virtual or wall).
    checkpoint_flag:
        Flag from a previous attempt's last checkpoint, if the framework is
        restarting this task from saved state; ``None`` on a fresh start.
    """

    def __init__(
        self,
        job_id: str,
        hostname: str,
        send: Callable[[Message], None],
        clock: Callable[[], float],
        *,
        checkpoint_flag: str | None = None,
    ) -> None:
        self.job_id = job_id
        self.hostname = hostname
        self._send = send
        self._clock = clock
        #: Incoming flag: non-None when resuming from a checkpoint.
        self.checkpoint_flag = checkpoint_flag
        self._started = False
        self._ended = False

    # -- notifications -------------------------------------------------------

    def task_start(self) -> None:
        """Announce that the application body began executing."""
        if self._started:
            raise DetectionError(f"job {self.job_id}: task_start sent twice")
        self._started = True
        self._send(
            TaskStart(sent_at=self._clock(), job_id=self.job_id, hostname=self.hostname)
        )

    def task_end(self, result: Any = None) -> None:
        """Announce successful logical completion (the TaskEnd notification)."""
        if self._ended:
            raise DetectionError(f"job {self.job_id}: task_end sent twice")
        self._ended = True
        self._send(
            TaskEnd(
                sent_at=self._clock(),
                job_id=self.job_id,
                hostname=self.hostname,
                result=result,
            )
        )

    def task_checkpoint(self, flag: str, *, progress: float = 0.0) -> None:
        """Register a checkpoint (the ``globus_FDS_task_checkpoint`` call).

        The framework marks this task checkpoint-enabled and remembers
        *flag*; on a retry it hands the flag back via
        :attr:`checkpoint_flag`.
        """
        if not flag:
            raise DetectionError("checkpoint flag must be non-empty")
        self._send(
            CheckpointNotice(
                sent_at=self._clock(),
                job_id=self.job_id,
                hostname=self.hostname,
                flag=flag,
                progress=progress,
            )
        )

    def raise_exception(
        self, name: str, message: str = "", **data: Any
    ) -> None:
        """Send an Exception notification and abort the task body."""
        exc = UserException(name=name, message=message, data=data)
        self.send_exception(exc)
        raise UserExceptionSignal(exc)

    def send_exception(self, exc: UserException) -> None:
        """Send an Exception notification without aborting (for tasks that
        report a failure and then clean up before exiting)."""
        self._send(
            ExceptionNotice(
                sent_at=self._clock(),
                job_id=self.job_id,
                hostname=self.hostname,
                exception=exc,
            )
        )

    # -- queries ---------------------------------------------------------------

    @property
    def resuming(self) -> bool:
        """True when the framework restarted this task from a checkpoint."""
        return self.checkpoint_flag is not None

    def now(self) -> float:
        """Current time as seen by the task (virtual inside the simulation)."""
        return self._clock()
