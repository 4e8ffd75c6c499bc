"""GRAM-style job submission service for the simulated Grid.

Plays the role of Globus GRAM in the paper's prototype: the engine submits a
:class:`repro.execution.SubmitRequest` naming a host, service and
executable; the service instantiates a :class:`JobProcess` that executes the
behaviour's planned timeline on the target host, emitting detection-service
messages through the network as it goes.

The service is built on its grid and reads the grid's crash observability
mode (:attr:`repro.grid.simgrid.GridConfig.crash_detection`):

* ``"prompt"`` — when a host crashes, the client's GRAM connection breaks
  and a synthetic ``Done(host_crashed=True)`` is delivered immediately.
  This gives zero failure-detection latency, matching the paper's
  analytical/simulation model (which charges no detection delay).
* ``"heartbeat"`` — nothing is synthesised; the failure is noticed only
  when the failure detector's heartbeat timeout expires.  This is the
  realistic path and is exercised by the detector tests and the heartbeat
  ablation benchmark.

The service's job table holds *live* submissions only: a job's
:class:`JobProcess` — which is also its record: ``status``, ``attempt``,
``request`` and ``checkpoint_flag`` live on it — is dropped the moment it
finishes or is cancelled.
Its status is updated first, so a caller that kept the process still reads
the final one; :attr:`GramService.submitted_count` is a plain counter.
What the service keeps per workflow instance — its attempt numbering and
the store keys its jobs wrote — goes at :meth:`GramService.release`.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any

from ..core.exceptions import UserException
from ..detection.messages import CheckpointNotice, Done, ExceptionNotice, TaskEnd, TaskStart
from ..errors import CheckpointError, GridError
from ..execution import SubmitRequest
from ..timerheap import TimerHandle
from .behaviors import PlanContext, Step, TaskBehavior
from .host import Host

if TYPE_CHECKING:
    from .simgrid import SimulatedGrid

__all__ = ["GramService", "JobProcess"]

#: Mints the per-attempt tuples — the :class:`PlanContext` and every
#: message — positionally, without their generated ``__new__`` (a Python
#: frame that re-binds defaults per call).
_tuple_new = tuple.__new__


class JobProcess:
    """One attempt executing on a host: walks the behaviour's steps.

    The process is the job's service-side record too: ``status`` (queued —
    for the host or a slot —, running, finished or cancelled), the 1-based
    ``attempt`` of its activity, the ``request`` it was submitted with
    (shared with the activity's other attempts) and the attempt's own
    ``checkpoint_flag``.

    The process emits messages *from the host*, so they are subject to the
    network's partitions and latency.  Terminal steps clean the process off
    the host; a host crash aborts all pending steps.

    One timer carries the whole timeline: :meth:`begin` schedules the first
    step and reserves a sequence number for each later one, and every step
    re-arms that timer for its successor at ``t0 + offset / speed`` with
    the successor's reserved number — the times, the tie-breaks and the
    kernel's ``timers_scheduled`` of scheduling every step up front, with
    at most one entry ever queued (so at most one to cancel).
    """

    def __init__(
        self,
        service: "GramService",
        job_id: str,
        request: SubmitRequest,
        attempt: int,
        host: Host,
        behavior: TaskBehavior,
        checkpoint_flag: str | None,
        keys_written: list[str],
    ) -> None:
        self.service = service
        self.job_id = job_id
        #: Where the store keys this job writes are noted: its workflow's.
        self.keys_written = keys_written
        self.request = request
        self.attempt = attempt
        self.checkpoint_flag = checkpoint_flag
        self.status = "queued"
        self.host = host
        self.hostname = host.hostname
        self.behavior = behavior
        self._finished = False
        #: The one timer, armed for ``_steps[_cursor]``; ``_armed`` is
        #: ``_step`` as the kernel accepted it, handed back at each re-arm.
        self._timer: TimerHandle | None = None
        self._armed: Any = None
        self._steps: list[Step] = []
        self._cursor = 0
        self._t0 = 0.0
        self._seq0 = 0

    # -- lifecycle -----------------------------------------------------------

    def begin(self) -> None:
        """Plan the behaviour and schedule its steps (host is UP)."""
        self.status = "running"
        service = self.service
        spec = self.host.spec
        checkpoint_state: dict[str, Any] | None = None
        flag = self.checkpoint_flag
        if flag:
            try:
                checkpoint_state = service.store.load(flag)
            except CheckpointError:
                checkpoint_state = None  # lost checkpoint: cold start
        ctx = _tuple_new(
            PlanContext,
            (
                self.request.activity,
                self.job_id,
                spec,
                self.attempt,
                service.streams,
                checkpoint_state,
            ),
        )
        steps = self._steps = self.behavior.plan(ctx)
        kernel = service.kernel
        self._t0 = kernel.now()
        timer = self._timer = kernel.schedule(steps[0].offset / spec.speed, self._step)
        self._armed = timer.callback
        # Step i fires with the number it would have been scheduled under.
        self._seq0 = kernel.reserve(len(steps) - 1) - 1

    def _step(self) -> None:
        """The timer fired: arm it for the next step, then act this one.
        ``start``, the first step of every attempt, is sent from here."""
        steps = self._steps
        cursor = self._cursor
        step = steps[cursor]
        cursor += 1
        kernel = self.service.kernel
        if cursor < len(steps):
            self._cursor = cursor
            kernel.rearm(
                self._timer,
                self._armed,
                self._t0 + steps[cursor].offset / self.host.spec.speed,
                self._seq0 + cursor,
            )
        if step.action == "start":
            hostname = self.hostname
            self.service.network.send(
                hostname,
                _tuple_new(TaskStart, (kernel.now(), self.job_id, hostname)),
            )
        else:
            self._execute(step, kernel.now())

    def _stop(self) -> None:
        self._finished = True
        if self._timer is not None:
            self._timer.cancel()
            # _armed refers back to this process through _step.
            self._timer = self._armed = None

    def abort(self) -> None:
        """Silently stop (cancellation): no further messages."""
        self._stop()

    def host_crashed(self) -> None:
        """Host died under us: stop, and surface the loss per the crash
        detection mode.

        ``prompt``: the client's GRAM connection breaks immediately — a
        synthetic local ``Done(host_crashed=True)``.

        ``heartbeat``: nothing crosses the network while the host is down
        (the client can only see heartbeat silence).  When the host comes
        back up, its restarted job manager notices the orphaned job and
        reports it — matching real middleware, and necessary so that an
        outage *shorter than the heartbeat timeout* still surfaces the
        lost job instead of wedging the workflow.
        """
        if self._finished:
            return
        self._stop()
        service = self.service
        if service.config.crash_detection == "prompt":
            service.network.send_system(
                _tuple_new(
                    Done, (service.kernel.now(), self.job_id, self.hostname, 137, True)
                )
            )
        else:
            self.host.on_recover(self._report_orphan)
        service._job_finished(self)

    def _report_orphan(self, host: Host) -> None:
        """The restarted job manager reports the job the crash orphaned —
        once: the listener leaves with the report."""
        host.off_recover(self._report_orphan)
        self.service.network.send(
            self.hostname,
            _tuple_new(
                Done, (self.service.kernel.now(), self.job_id, self.hostname, 137, True)
            ),
        )

    # -- step execution ----------------------------------------------------------

    def _execute(self, step: Step, now: float) -> None:
        """Act a step after ``start``; *now* is the time it fired."""
        send = self.service.network.send
        hostname = self.hostname
        if step.action == "checkpoint":
            flag = f"{self.request.activity}#{self.job_id}@{step.offset:g}"
            self.service.store.save(flag, dict(step.payload.get("state", {})))
            self.keys_written.append(flag)
            send(
                hostname,
                _tuple_new(
                    CheckpointNotice,
                    (
                        now,
                        self.job_id,
                        hostname,
                        flag,
                        float(step.payload.get("progress", 0.0)),
                    ),
                ),
            )
        elif step.action == "exception":
            exc = step.payload.get("exception")
            if not isinstance(exc, UserException):  # pragma: no cover - defensive
                exc = UserException("unknown")
            send(
                hostname,
                _tuple_new(ExceptionNotice, (now, self.job_id, hostname, exc)),
            )
            self._terminate(1, now)
        elif step.action == "crash":
            self._terminate(139, now)
        elif step.action == "end":
            send(
                hostname,
                _tuple_new(
                    TaskEnd, (now, self.job_id, hostname, step.payload.get("result"))
                ),
            )
            self._terminate(0, now)

    def _terminate(self, exit_code: int, now: float) -> None:
        self._stop()
        self.host.job_finished(self.job_id)
        self.service.network.send(
            self.hostname,
            _tuple_new(Done, (now, self.job_id, self.hostname, exit_code, False)),
        )
        self.service._job_finished(self)


class GramService:
    """Client-facing submission service over a grid's simulated hosts."""

    def __init__(self, grid: "SimulatedGrid") -> None:
        self.kernel = grid.kernel
        self.network = grid.network
        #: The grid's own table: a host added later is submittable too.
        self.hosts = grid.hosts
        self.streams = grid.streams
        self.store = grid.store
        self.config = grid.config
        self.reset()

    def reset(self) -> None:
        """Forget all submissions and restart job-id numbering, as if
        freshly constructed over the same hosts/network/store."""
        #: Live submissions only: dropped on finish or cancel.
        self._processes: dict[str, JobProcess] = {}
        #: Submissions ever accepted (rejected ones included).
        self.submitted_count = 0
        # By workflow id, then activity: concurrent workflow instances
        # running the same specification must not share attempt sequences
        # (a deterministic crash-on-attempt-1 behaviour would otherwise
        # crash in one instance and spuriously succeed in its sibling).
        self._attempt_counters: dict[str, dict[str, int]] = {}
        #: By workflow id, as written: the store keys its jobs wrote.
        self._keys_written: dict[str, list[str]] = {}
        self._seq = itertools.count(1)

    # -- submission -----------------------------------------------------------

    def submit(
        self,
        request: SubmitRequest,
        *,
        checkpoint_flag: str | None = None,
        workflow_id: str = "",
    ) -> str:
        """Submit an attempt of *request*; failures surface asynchronously
        as messages (see :meth:`repro.execution.ExecutionService.submit`).

        An unknown *hostname* is a configuration error and raises; a down
        host or missing executable behaves like the corresponding GRAM
        failure callback.
        """
        host = self.hosts.get(request.hostname)
        if host is None:
            raise GridError(f"unknown host: {request.hostname!r}")
        job_id = f"job-{next(self._seq):06d}"
        self.submitted_count += 1
        try:
            counters = self._attempt_counters[workflow_id]
            keys = self._keys_written[workflow_id]
        except KeyError:
            counters = self._attempt_counters[workflow_id] = {}
            keys = self._keys_written[workflow_id] = []
        attempt = counters[request.activity] = counters.get(request.activity, 0) + 1
        behavior = host.software.get(request.executable)
        if behavior is None:
            self._reject(job_id, request, exit_code=127)  # not installed
            return job_id
        if not host.up and not request.queue_when_down:
            self._reject(job_id, request, exit_code=75)  # EX_TEMPFAIL
            return job_id
        process = JobProcess(
            self, job_id, request, attempt, host, behavior, checkpoint_flag, keys
        )
        self._processes[job_id] = process
        if host.up:
            host.start_job(process)
        else:
            host.queue_job(process)
        return job_id

    def _reject(self, job_id: str, request: SubmitRequest, *, exit_code: int) -> None:
        """Asynchronous submission failure: Done without TaskStart/TaskEnd."""
        self.network.send_system(
            _tuple_new(
                Done, (self.kernel.now(), job_id, request.hostname, exit_code, False)
            )
        )

    # -- cancellation -------------------------------------------------------------

    def cancel(self, job_id: str) -> None:
        """Silently stop a live job (no Done is emitted).  Idempotent: a
        finished, cancelled or unknown job is left alone."""
        process = self._processes.pop(job_id, None)
        if process is None:
            return
        process.status = "cancelled"
        process.host.cancel_job(job_id)
        process.abort()

    def release(self, workflow_id: str) -> None:
        """*workflow_id* has ended: drop its attempt numbering and delete
        every checkpoint its jobs wrote to the store."""
        self._attempt_counters.pop(workflow_id, None)
        for key in self._keys_written.pop(workflow_id, ()):
            self.store.delete(key)

    # -- internal -------------------------------------------------------------------

    def _job_finished(self, process: JobProcess) -> None:
        """*process* ran to its end or died with its host: let go of it."""
        process.status = "finished"
        self._processes.pop(process.job_id, None)

    # -- queries ---------------------------------------------------------------------

    def jobs_for_activity(self, activity: str) -> list[JobProcess]:
        """*activity*'s live jobs."""
        return [p for p in self._processes.values() if p.request.activity == activity]

    @property
    def live_jobs(self) -> int:
        """Jobs submitted and neither finished nor cancelled."""
        return len(self._processes)
