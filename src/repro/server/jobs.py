"""Job lifecycle: bounded queue, worker slots, cancellation, restart.

:class:`JobManager` owns every job the server has accepted:

* admission is delegated to the
  :class:`~repro.server.admission.AdmissionController` (the M/M/c/K
  self-model) — a rejected submission never creates a job;
* accepted jobs wait on one :class:`asyncio.Queue` drained by ``c``
  worker tasks, each running the synchronous evaluation on a thread
  via :func:`asyncio.to_thread`;
* cancellation is cooperative through the job's own
  :class:`~repro.runtime.CancellationToken`: cancelling a *queued* job
  resolves it immediately, cancelling a *running* job requests a stop
  at the evaluation's next cooperation point, and cancelling a
  *terminal* job is a no-op that returns the settled status;
* with a journal, every submission and every terminal transition is a
  durable record — exactly one ``job_result`` per job, guarded by the
  terminal-state check — so a restarted server restores finished
  results and re-enqueues interrupted jobs.

Concurrency model: all state mutation happens on the event-loop thread
(submissions, cancellations, finalization in the worker coroutines);
the evaluation threads touch only their own job's work and a private
per-job metrics registry that is merged into the shared one back on
the loop thread.  Progress heartbeats cross from the evaluation thread
via ``loop.call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..errors import CancelledError, ReproError
from .admission import AdmissionController

__all__ = ["Job", "JobManager", "TERMINAL_STATUSES"]

#: Statuses a job can never leave.
TERMINAL_STATUSES = ("done", "failed", "cancelled")


@dataclass
class Job:
    """One accepted job and its lifecycle state."""

    id: str
    kind: str
    spec: dict
    status: str = "queued"
    submitted: float = 0.0
    started: Optional[float] = None
    finished: Optional[float] = None
    result: Optional[dict] = None
    error: Optional[str] = None
    cancel_requested: bool = False
    restored: bool = False
    token: Any = None

    def to_dict(self, include_result: bool = True) -> dict:
        document = {
            "id": self.id,
            "kind": self.kind,
            "status": self.status,
            "spec": self.spec,
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "cancel_requested": self.cancel_requested,
            "error": self.error,
        }
        if include_result:
            result = self.result
            # The profile document (flamegraph + attribution) can dwarf
            # the rest of the result; the job document carries a link
            # and GET /v1/jobs/{id}/profile serves the real thing.
            if isinstance(result, dict) and "profile" in result:
                result = dict(result)
                result["profile"] = {"href": f"/v1/jobs/{self.id}/profile"}
            document["result"] = result
        return document


class JobManager:
    """The server's job table, queue, and worker pool.

    Parameters
    ----------
    runner:
        ``runner(kind, spec, token, progress, metrics) -> dict`` — the
        synchronous evaluation, run on a worker thread.
    slots:
        Concurrent evaluations ``c``.
    capacity:
        Admission capacity ``K`` (running + queued).
    journal:
        Optional path; submissions/results are journaled and a restart
        against the same path restores them.
    metrics:
        Optional shared :class:`~repro.obs.MetricsRegistry` for the
        ``server_*`` families and merged per-job engine metrics.
    """

    def __init__(
        self,
        runner: Callable[..., dict],
        slots: int,
        capacity: int,
        journal=None,
        metrics=None,
        clock=time.monotonic,
    ):
        self.admission = AdmissionController(slots, capacity, clock)
        self._runner = runner
        self._metrics = metrics
        self._clock = clock
        self._jobs: Dict[str, Job] = {}
        self._counter = 0
        self._queue: Optional[asyncio.Queue] = None
        self._workers: List[asyncio.Task] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._subscribers: List[asyncio.Queue] = []
        self._pending_restore: List[str] = []
        self._journal = None
        if journal is not None:
            from ..runtime import Journal

            # Opening repairs any torn tail; then restore the durable
            # records and continue appending to the same file.
            self._journal = Journal(journal)
            try:
                self._restore(journal)
            except BaseException:
                self._journal.close()
                raise

    # -- journal restore ------------------------------------------------
    def _restore(self, path) -> None:
        """Rebuild the jobs *path* records, checking every field read.

        The journal is outside input here: a missing or mistyped field,
        a spec its kind no longer accepts, or a non-terminal result
        raises a one-line :class:`~repro.errors.ResumeError` naming it.
        """
        from ..errors import ResumeError, ValidationError
        from ..runtime.journal import read_journal, record_field
        from .work import parse_spec

        for record in read_journal(path, missing_ok=True):
            kind = record.get("kind")
            if kind == "job_submitted":
                job_kind = record_field(record, "job_kind", str, path)
                try:
                    spec = parse_spec(
                        job_kind, record_field(record, "spec", dict, path)
                    )
                except ValidationError as exc:
                    raise ResumeError(
                        f"journal {path} job_submitted record field 'spec' "
                        f"is not a valid {job_kind} spec: {exc}"
                    ) from None
                job = Job(
                    id=record_field(record, "id", str, path),
                    kind=job_kind,
                    spec=spec,
                    submitted=record_field(record, "submitted", float, path),
                    restored=True,
                    token=self._new_token(),
                )
                self._jobs[job.id] = job
                suffix = job.id.rsplit("-", 1)[-1]
                if suffix.isdigit():
                    self._counter = max(self._counter, int(suffix))
            elif kind == "job_result":
                job = self._jobs.get(record_field(record, "id", str, path))
                if job is None:
                    continue
                status = record_field(record, "status", str, path)
                if status not in TERMINAL_STATUSES:
                    raise ResumeError(
                        f"journal {path} job_result record field 'status' "
                        f"must be one of {list(TERMINAL_STATUSES)}, got "
                        f"{status!r}"
                    )
                job.status = status
                job.result = record.get("result")
                job.error = record.get("error")
        for job in self._jobs.values():
            if job.status not in TERMINAL_STATUSES:
                # Interrupted last time: occupy a slot again and re-run.
                self.admission.occupy()
                self._pending_restore.append(job.id)

    @staticmethod
    def _new_token():
        from ..runtime import CancellationToken

        return CancellationToken()

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Spawn the worker tasks and re-enqueue restored jobs."""
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        for job_id in self._pending_restore:
            self._queue.put_nowait(job_id)
        self._pending_restore = []
        self._set_depth()
        self._workers = [
            asyncio.create_task(
                self._worker(), name=f"repro-server-worker-{index}"
            )
            for index in range(self.admission.slots)
        ]

    async def stop(self) -> None:
        """Stop the workers; interrupted jobs stay journal-resumable.

        Running evaluations are asked to stop through their tokens (so
        their threads unwind at the next cooperation point), but no
        terminal record is written for them — a restart against the
        same journal re-runs them.
        """
        for job in self._jobs.values():
            if job.status == "running":
                job.token.cancel("server shutdown")
        for task in self._workers:
            task.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        if self._journal is not None:
            self._journal.close()

    # -- submission and cancellation (event-loop thread only) -----------
    def submit(self, kind: str, spec: dict) -> Optional[Job]:
        """Admit and enqueue a job; None when the system is full (503)."""
        if not self.admission.try_admit():
            if self._metrics is not None:
                self._metrics.counter(
                    "server_admission_rejections",
                    help=(
                        "Submissions rejected by the M/M/c/K admission "
                        "controller (503s)."
                    ),
                    kind=kind,
                ).inc()
            self._emit("rejected", {
                "kind": kind,
                "in_system": self.admission.in_system,
                "capacity": self.admission.capacity,
            })
            return None
        self._counter += 1
        job = Job(
            id=f"job-{self._counter:06d}",
            kind=kind,
            spec=spec,
            submitted=time.time(),
            token=self._new_token(),
        )
        self._jobs[job.id] = job
        if self._journal is not None:
            self._journal.append(
                "job_submitted",
                id=job.id,
                job_kind=job.kind,
                spec=job.spec,
                submitted=job.submitted,
            )
        assert self._queue is not None, "JobManager.start() was not awaited"
        self._queue.put_nowait(job.id)
        self._emit("job", job.to_dict(include_result=False))
        self._set_depth()
        return job

    def get(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise KeyError(f"no such job: {job_id}") from None

    def jobs(self) -> List[Job]:
        """All known jobs, in submission order."""
        return list(self._jobs.values())

    def cancel(self, job_id: str) -> Job:
        """Request cancellation; returns the job in its settled state.

        Queued jobs resolve to ``cancelled`` immediately; running jobs
        get a cooperative stop request; terminal jobs are untouched
        (cancelling twice, or after completion, is a no-op).
        """
        job = self.get(job_id)
        if job.status in TERMINAL_STATUSES:
            return job
        job.cancel_requested = True
        if job.status == "queued":
            job.token.cancel("cancelled while queued")
            self.admission.release()
            self._finish(job, "cancelled", error="cancelled while queued")
            return job
        job.token.cancel(f"job {job.id} cancelled via DELETE")
        self._emit("job", job.to_dict(include_result=False))
        return job

    # -- the worker loop ------------------------------------------------
    async def _worker(self) -> None:
        assert self._queue is not None
        while True:
            job_id = await self._queue.get()
            job = self._jobs.get(job_id)
            if job is None or job.status != "queued":
                continue  # cancelled while queued; already settled
            job.status = "running"
            job.started = time.time()
            self._emit("job", job.to_dict(include_result=False))
            started = self._clock()
            outcome, payload = await asyncio.to_thread(self._run, job)
            self.admission.complete(self._clock() - started)
            if outcome == "done":
                result, job_metrics = payload
                if self._metrics is not None and job_metrics is not None:
                    self._metrics.merge(job_metrics)
                self._finish(job, "done", result=result)
            elif outcome == "cancelled":
                self._finish(job, "cancelled", error=payload)
            else:
                self._finish(job, "failed", error=payload)

    def _run(self, job: Job):
        """The thread half: run the evaluation, never raise."""
        from ..obs import MetricsRegistry

        job_metrics = MetricsRegistry() if self._metrics is not None else None
        try:
            result = self._runner(
                job.kind,
                job.spec,
                job.token,
                self._progress_callback(job),
                job_metrics,
            )
            return ("done", (result, job_metrics))
        except CancelledError as exc:
            return ("cancelled", str(exc))
        except ReproError as exc:
            return ("failed", str(exc))
        except Exception as exc:  # job bugs must not kill the worker
            return ("failed", f"{type(exc).__name__}: {exc}")

    def _finish(
        self,
        job: Job,
        status: str,
        result: Optional[dict] = None,
        error: Optional[str] = None,
    ) -> None:
        if job.status in TERMINAL_STATUSES:
            return  # exactly one terminal transition (and journal record)
        job.status = status
        job.finished = time.time()
        job.result = result
        job.error = error
        if self._journal is not None:
            self._journal.append(
                "job_result",
                id=job.id,
                status=status,
                result=result,
                error=error,
            )
        if self._metrics is not None:
            self._metrics.counter(
                "server_jobs",
                help="Jobs resolved, by kind and terminal status.",
                kind=job.kind,
                status=status,
            ).inc()
        self._emit("job", job.to_dict(include_result=False))
        self._set_depth()

    # -- events ---------------------------------------------------------
    def subscribe(self) -> asyncio.Queue:
        """A queue of ``(event, data)`` pairs for one SSE consumer."""
        queue: asyncio.Queue = asyncio.Queue(maxsize=256)
        self._subscribers.append(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        if queue in self._subscribers:
            self._subscribers.remove(queue)

    def _emit(self, event: str, data: dict) -> None:
        for queue in self._subscribers:
            try:
                queue.put_nowait((event, data))
            except asyncio.QueueFull:
                pass  # a stalled consumer loses events, not the server

    def _progress_callback(self, job: Job):
        """A heartbeat callback safe to invoke from the worker thread."""
        loop = self._loop

        def progress(event) -> None:
            data = {
                "job": job.id,
                "phase": event.phase,
                "completed": event.completed,
                "total": event.total,
            }
            try:
                loop.call_soon_threadsafe(self._emit, "progress", data)
            except RuntimeError:
                pass  # loop already closed (shutdown race)

        return progress

    def _set_depth(self) -> None:
        if self._metrics is not None:
            self._metrics.gauge(
                "server_queue_depth",
                help="Jobs in the system (running + queued).",
            ).set(self.admission.in_system)
