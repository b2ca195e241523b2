"""The service facade: submit / status / result / cancel / drain.

:class:`ReconstructionService` wires the queue, scheduler, and result cache
together behind the five-call API the CLI and the directory intake expose:

>>> svc = ReconstructionService(n_workers=2)
>>> job_id = svc.submit(JobSpec(driver="icd", scan=scan,
...                             params={"max_equits": 3.0}))
>>> svc.status(job_id)["state"]
'PENDING'
>>> image = svc.result(job_id).image      # blocks until DONE
>>> svc.close()

Construction with ``start=False`` leaves the workers parked so a batch of
submissions can be enqueued first — with one worker this makes the
execution order exactly the queue's (-priority, submission) order, which
the priority acceptance test pins down deterministically.
"""

from __future__ import annotations

import itertools
import tempfile
import threading
import time
import uuid
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable

from repro.observability import MetricsRecorder
from repro.service.cache import ResultCache
from repro.service.jobs import (
    EvictedJobError,
    Job,
    JobCancelledError,
    JobFailedError,
    JobSpec,
    JobState,
    JobStateError,
    UnknownJobError,
)
from repro.service.progress import ProgressEvent
from repro.service.queue import JobQueue
from repro.service.reaper import JobReaper
from repro.service.runner import job_key
from repro.service.scheduler import Scheduler

__all__ = ["ReconstructionService"]

#: Upper bound on remembered evicted ids: tombstones answer 410 instead of
#: 404, but an unbounded tombstone book would just move the leak.
_MAX_TOMBSTONES = 10_000


class ReconstructionService:
    """A multi-job reconstruction service over the three ICD drivers.

    Parameters
    ----------
    n_workers:
        Concurrently running jobs.  Each runs in its own worker
        subprocess (see :class:`~repro.service.scheduler.Scheduler`), so
        CPU-bound jobs scale with cores instead of serialising on the
        GIL, and a SIGKILL'd worker resumes its job from checkpoints
        without the service going down.
    max_restarts:
        Crashed-worker respawns per job before FAILED.
    heartbeat_timeout_s:
        SIGKILL a worker subprocess whose pipe stays silent this long
        while alive (hung, SIGSTOPped) and resume its job from
        checkpoints.  ``None`` disables.
    job_deadline_s:
        Wall-clock budget per job across worker lives; an over-deadline
        worker is killed and the job fails with
        :class:`~repro.service.jobs.JobDeadlineError`.  ``None``
        disables.
    job_ttl_s:
        TTL for *terminal* jobs in the registry: once a job has been DONE
        / FAILED / CANCELLED for this long, the
        :class:`~repro.service.reaper.JobReaper` evicts it; its id then
        raises :class:`~repro.service.jobs.EvictedJobError` (HTTP 410)
        instead of growing the registry forever.  ``None`` (default)
        disables eviction.
    reap_interval_s:
        Reaper sweep cadence (default: ``job_ttl_s / 4``, clamped).
    max_queue_depth:
        Admission-control bound on *pending* jobs (None = unbounded);
        :meth:`submit` raises
        :class:`~repro.service.queue.AdmissionError` past it.
    checkpoint_root:
        Root for per-job checkpoint directories.  Defaults to a private
        temporary directory removed on :meth:`close`; pass a real path to
        make jobs survive process restarts.
    cache_dir:
        Optional persistence directory for the result cache.
    checkpoint_every:
        Snapshot cadence (iterations) for every job.
    start:
        When False, workers stay parked until :meth:`start` — submissions
        queue up and then execute strictly in priority order.
    """

    def __init__(
        self,
        *,
        n_workers: int = 2,
        max_restarts: int = 2,
        heartbeat_timeout_s: float | None = None,
        job_deadline_s: float | None = None,
        job_ttl_s: float | None = None,
        reap_interval_s: float | None = None,
        max_queue_depth: int | None = None,
        checkpoint_root: str | Path | None = None,
        cache_dir: str | Path | None = None,
        cache_memory_entries: int | None = None,
        checkpoint_every: int = 1,
        metrics: MetricsRecorder | None = None,
        on_progress: Callable[[ProgressEvent], None] | None = None,
        start: bool = True,
        clock: Callable[[], float] = time.time,
    ) -> None:
        #: stamps every job the service registers (a fake one drives TTL tests)
        self.clock = clock
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        if checkpoint_root is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-service-")
            checkpoint_root = self._tmpdir.name
        self.checkpoint_root = Path(checkpoint_root)

        self.rec = metrics if metrics is not None else MetricsRecorder()
        self.queue = JobQueue(max_depth=max_queue_depth)
        self.cache = ResultCache(cache_dir, max_memory_entries=cache_memory_entries)
        self._jobs: dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        #: evicted-id tombstones (insertion-ordered; oldest dropped first)
        self._evicted: OrderedDict[str, None] = OrderedDict()
        self._seq = itertools.count()
        self._subscribers: dict[str, Callable[[ProgressEvent], None]] = {}
        self._on_progress = on_progress
        self.scheduler = Scheduler(
            self.queue,
            self.cache,
            checkpoint_root=self.checkpoint_root,
            n_workers=n_workers,
            max_restarts=max_restarts,
            heartbeat_timeout_s=heartbeat_timeout_s,
            job_deadline_s=job_deadline_s,
            checkpoint_every=checkpoint_every,
            metrics=self.rec,
            on_progress=self._dispatch_progress,
            clock=clock,
        )
        self.reaper = JobReaper(
            self, job_ttl_s=job_ttl_s, interval_s=reap_interval_s
        )
        self._closed = False
        if start:
            self.start()

    # -- progress fan-out -----------------------------------------------
    def _dispatch_progress(self, event: ProgressEvent) -> None:
        subscriber = self._subscribers.get(event.job_id)
        if subscriber is not None:
            subscriber(event)
        if self._on_progress is not None:
            self._on_progress(event)

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Start (or restart) the worker pool and, when enabled, the reaper."""
        if self._closed:
            raise RuntimeError("service is closed")
        self.scheduler.start()
        self.reaper.start()

    def close(self) -> None:
        """Stop the workers, close the queue, release the temp checkpoint root."""
        if self._closed:
            return
        self._closed = True
        self.reaper.stop()
        self.scheduler.stop(wait=True, close=True)
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def __enter__(self) -> "ReconstructionService":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- the five calls --------------------------------------------------
    def submit(
        self,
        spec: JobSpec,
        *,
        on_progress: Callable[[ProgressEvent], None] | None = None,
    ) -> str:
        """Enqueue a reconstruction; returns its job id.

        Raises ``ValueError`` naming a param the driver cannot take,
        :class:`JobStateError` when an active job holds the id, and
        :class:`~repro.service.queue.AdmissionError` when the pending
        queue is at capacity (the job is *not* registered either way).
        """
        job_id = spec.job_id if spec.job_id is not None else uuid.uuid4().hex[:12]
        # The key covers everything that determines iterates: the spec,
        # plus the defaults run_job resolves for what it omits.
        job = Job(job_id, spec, cache_key=job_key(spec), clock=self.clock)
        self.register(job, enqueue=True)
        if on_progress is not None:
            self._subscribers[job_id] = on_progress
        self.rec.count("service.jobs_submitted")
        self.rec.count_max("service.queue_depth_peak", self.queue.depth)
        return job_id

    def register(self, job: Job, *, enqueue: bool = False) -> None:
        """Claim ``job.job_id`` for ``job``: the service's one id rule.

        An id is free when no job holds it or its holder is terminal; an
        active holder raises :class:`JobStateError`.  The id is checked,
        enqueued and claimed under one hold of the registry lock, so two
        claims of one id cannot both pass; ``put`` never blocks (it raises
        at capacity or after close, before anything is claimed).
        :meth:`submit` registers its jobs enqueued for a worker; a shard
        group (:mod:`repro.multires.shards`) registers itself un-queued
        and files its own terminal state.
        """
        with self._jobs_lock:
            if self._closed:
                raise RuntimeError("service is closed")
            held = self._jobs.get(job.job_id)
            if held is not None and not held.terminal:
                raise JobStateError(f"job id {job.job_id!r} is already active")
            job.seq = next(self._seq)
            if enqueue:
                self.queue.put(job)
            self._jobs[job.job_id] = job
            # A resubmitted id supersedes its tombstone: the fresh job owns
            # the id again (stable-id crash recovery relies on this).
            self._evicted.pop(job.job_id, None)

    def withdraw(self, job: Job) -> None:
        """Forget a job refused after :meth:`register`; its id answers 404.

        A later holder of the id is left alone.
        """
        with self._jobs_lock:
            if self._jobs.get(job.job_id) is job:
                del self._jobs[job.job_id]

    def job(self, job_id: str) -> Job:
        """The live :class:`Job` for ``job_id``.

        Raises :class:`EvictedJobError` for an id the TTL reaper evicted
        (a tombstone remains — HTTP 410) and plain
        :class:`UnknownJobError` for an id never seen (HTTP 404).
        """
        with self._jobs_lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                if job_id in self._evicted:
                    raise EvictedJobError(
                        f"job {job_id!r} finished and was evicted after its TTL"
                    ) from None
                raise UnknownJobError(f"unknown job id {job_id!r}") from None

    def status(self, job_id: str) -> dict[str, Any]:
        """JSON-ready status snapshot of one job."""
        return self.job(job_id).snapshot()

    def result(self, job_id: str, timeout: float | None = None):
        """Block until the job finishes; return its result object.

        Raises :class:`JobFailedError` / :class:`JobCancelledError` for the
        failure states and :class:`TimeoutError` when ``timeout`` expires
        first.
        """
        job = self.job(job_id)
        if not job.wait(timeout):
            raise TimeoutError(f"job {job_id} still {job.state.value} after {timeout}s")
        if job.state is JobState.FAILED:
            raise JobFailedError(f"job {job_id} failed: {job.error}")
        if job.state is JobState.CANCELLED:
            raise JobCancelledError(f"job {job_id} was cancelled")
        return job.result

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; False if the job already finished.

        Pending jobs are dropped when a worker reaches them; running jobs
        stop cooperatively at the next iteration boundary.
        """
        return self.job(job_id).request_cancel()

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every registered job (groups too) is terminal; False on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._jobs_lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                return False
            if not job.wait(remaining):
                return False
        return True

    # -- eviction (driven by the JobReaper) ------------------------------
    def evict_terminal(self, *, older_than_s: float) -> list[str]:
        """Evict terminal jobs finished at least ``older_than_s`` ago.

        Non-terminal jobs are never evicted regardless of age.  Evicted
        ids leave a bounded tombstone (so :meth:`job` raises
        :class:`EvictedJobError`, not plain unknown), their progress
        subscribers are dropped, their checkpoints (a FAILED job's) and
        emptied job directories are deleted, and ``service.jobs_evicted``
        counts the evictions.  Returns the evicted ids.

        The files go under the registry lock, so a resubmission of an
        evicted id registers only after they are gone and never loses its
        own.
        """
        now = self.clock()
        evicted: list[str] = []
        with self._jobs_lock:
            for job_id, job in list(self._jobs.items()):
                if not job.terminal or job.finished_at is None:
                    continue
                if now - job.finished_at < older_than_s:
                    continue
                del self._jobs[job_id]
                self.scheduler.discard_checkpoints(job_id)
                self._evicted[job_id] = None
                self._evicted.move_to_end(job_id)
                evicted.append(job_id)
                self._subscribers.pop(job_id, None)
            while len(self._evicted) > _MAX_TOMBSTONES:
                self._evicted.popitem(last=False)
        if evicted:
            self.rec.count("service.jobs_evicted", len(evicted))
        return evicted

    @property
    def tombstone_count(self) -> int:
        """Evicted ids currently remembered (answering 410 instead of 404)."""
        with self._jobs_lock:
            return len(self._evicted)

    # -- introspection ---------------------------------------------------
    @property
    def jobs(self) -> list[Job]:
        """All jobs the service knows about, in submission order."""
        with self._jobs_lock:
            return sorted(self._jobs.values(), key=lambda j: j.seq)

    def health(self) -> dict[str, Any]:
        """Liveness/degradation snapshot — the ``GET /healthz`` body.

        ``status`` is ``"degraded"`` (with human-readable ``reasons``)
        while any running job's checkpoint write path is degraded or any
        worker has been killed for hanging; ``"ok"`` otherwise.  Degraded
        is an *advisory* state: the service still accepts and completes
        jobs, so load balancers should keep routing — the flag is for
        operators and autoscalers watching disk pressure and hang rates.
        """
        degraded_jobs = sorted(self.scheduler.degraded_job_ids)
        workers_hung = int(self.rec.counters.get("service.workers_hung", 0))
        reasons: list[str] = []
        if degraded_jobs:
            reasons.append(
                f"checkpoint writes degraded for {len(degraded_jobs)} running job(s)"
            )
        if workers_hung:
            reasons.append(f"{workers_hung} hung worker(s) killed and resumed")
        return {
            "status": "degraded" if reasons else "ok",
            "degraded": bool(reasons),
            "reasons": reasons,
            "checkpoint_degraded_jobs": degraded_jobs,
            "workers_hung": workers_hung,
        }

    def report(self) -> dict[str, Any]:
        """The service-level metrics report (``service.*`` counters).

        Counter snapshot plus the live queue depth, registry size,
        tombstone count, and the result cache's failed disk writes and
        reads; per-job counters stay with the jobs (``job.metrics``).
        """
        doc = self.rec.to_dict()
        doc["counters"]["service.queue_depth"] = self.queue.depth
        doc["counters"]["service.cache_disk_write_failures"] = self.cache.disk_write_failures
        doc["counters"]["service.cache_disk_read_failures"] = self.cache.disk_read_failures
        with self._jobs_lock:
            doc["counters"]["service.jobs_known"] = len(self._jobs)
            doc["counters"]["service.tombstones"] = len(self._evicted)
        return doc
