"""Local execution service: real Python callables on worker threads.

The wall-clock counterpart of the simulated Grid.  A *task function* is a
callable ``fn(ctx, **arguments)`` receiving a
:class:`~repro.detection.api.TaskContext` first — the task-side notification
API.  The executor wraps each run in the detection-service protocol:

* ``TaskStart`` is sent before the body (unless the body prefers to call
  ``ctx.task_start()`` itself, the executor does it on its behalf);
* a normal return sends ``TaskEnd`` with the return value (unless the body
  already called ``ctx.task_end``), then a clean ``Done``;
* raising :class:`~repro.detection.api.UserExceptionSignal` (or calling
  ``ctx.raise_exception``) sends the Exception notification;
* raising :class:`~repro.detection.api.TaskFailedSignal` — or any other
  exception — simulates a task crash: the process ends with ``Done`` but no
  ``TaskEnd``, which the detector classifies as a task crash failure.

All messages are marshalled onto the engine's reactor thread with
``reactor.post``; worker threads never touch engine state.  Cancellation is
cooperative: Python threads cannot be killed, so a cancelled job keeps
running but its messages are suppressed (``ctx.cancelled`` lets
long-running task bodies poll and exit early).
"""

from __future__ import annotations

import itertools
import threading
import traceback
from typing import Any, Callable

from ..ckpt.store import CheckpointStore, MemoryCheckpointStore
from ..detection.api import TaskContext, TaskFailedSignal, UserExceptionSignal
from ..detection.messages import Done, Message
from ..errors import GridError
from ..execution import ExecutionService, SubmitRequest
from ..reactor import RealTimeReactor

__all__ = ["LocalExecutor", "TaskFunction"]

TaskFunction = Callable[..., Any]


class _LocalJob:
    __slots__ = ("job_id", "request", "checkpoint_flag", "cancelled")

    def __init__(
        self, job_id: str, request: SubmitRequest, checkpoint_flag: str | None
    ) -> None:
        self.job_id = job_id
        self.request = request
        self.checkpoint_flag = checkpoint_flag
        self.cancelled = False


class LocalExecutor(ExecutionService):
    """Thread-per-job executor for real task functions."""

    def __init__(
        self,
        reactor: RealTimeReactor,
        *,
        store: CheckpointStore | None = None,
    ) -> None:
        self._reactor = reactor
        self.store = store if store is not None else MemoryCheckpointStore()
        self._registry: dict[str, TaskFunction] = {}
        self._sink: Callable[[Message], None] | None = None
        self._jobs: dict[str, _LocalJob] = {}
        self._seq = itertools.count(1)
        self._lock = threading.Lock()
        #: Last traceback per crashed job (diagnostics; the detection
        #: protocol itself only sees Done-without-TaskEnd).
        self.crash_tracebacks: dict[str, str] = {}

    # -- registry ---------------------------------------------------------------

    def register(self, executable: str, fn: TaskFunction) -> None:
        """Install a task function under a logical executable name."""
        if not executable:
            raise GridError("executable name must be non-empty")
        self._registry[executable] = fn

    # -- ExecutionService ----------------------------------------------------------

    def connect(self, sink: Callable[[Message], None]) -> None:
        self._sink = sink

    def submit(
        self,
        request: SubmitRequest,
        *,
        checkpoint_flag: str | None = None,
        workflow_id: str = "",
    ) -> str:
        job_id = f"local-{next(self._seq):06d}"
        job = _LocalJob(job_id, request, checkpoint_flag)
        with self._lock:
            self._jobs[job_id] = job
        fn = self._registry.get(request.executable)
        if fn is None:
            # Same protocol as GRAM's exec-not-found: immediate abnormal Done.
            self._emit(
                job,
                Done(
                    sent_at=self._reactor.now(),
                    job_id=job_id,
                    hostname=request.hostname,
                    exit_code=127,
                ),
            )
            return job_id
        self._reactor.acquire_keepalive()
        thread = threading.Thread(
            target=self._run_job,
            args=(job, fn),
            name=f"gridwfs-{job_id}",
            daemon=True,
        )
        thread.start()
        return job_id

    def cancel(self, job_id: str) -> None:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None:
                job.cancelled = True

    # -- worker side -----------------------------------------------------------------

    def _run_job(self, job: _LocalJob, fn: TaskFunction) -> None:
        request = job.request
        ctx = TaskContext(
            job.job_id,
            request.hostname,
            send=lambda msg: self._emit(job, msg),
            clock=self._reactor.now,
            checkpoint_flag=job.checkpoint_flag,
        )
        # Expose cooperative-cancellation polling to the task body.
        ctx.cancelled = lambda: job.cancelled  # type: ignore[attr-defined]
        ctx.store = self.store  # type: ignore[attr-defined]
        exit_code = 0
        try:
            ctx.task_start()
            result = fn(ctx, **request.arguments)
            if not ctx._ended:
                ctx.task_end(result)
        except UserExceptionSignal:
            exit_code = 1  # Exception notification already sent by the ctx
        except TaskFailedSignal:
            exit_code = 139
        except Exception:  # noqa: BLE001 - any task bug crashes the task
            exit_code = 139
            self.crash_tracebacks[job.job_id] = traceback.format_exc()
        finally:
            self._emit(
                job,
                Done(
                    sent_at=self._reactor.now(),
                    job_id=job.job_id,
                    hostname=request.hostname,
                    exit_code=exit_code,
                ),
            )
            self._reactor.release_keepalive()

    # -- delivery -----------------------------------------------------------------------

    def _emit(self, job: _LocalJob, msg: Message) -> None:
        if job.cancelled:
            return
        sink = self._sink
        if sink is None:
            return
        self._reactor.post(lambda: sink(msg))
