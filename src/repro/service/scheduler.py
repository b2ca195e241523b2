"""The scheduler: supervisor threads draining the job queue into worker processes.

Each supervisor thread loops: take the highest-priority pending job, then

1. honour a cancel that arrived while the job was queued (PENDING →
   CANCELLED without running anything);
2. delete checkpoints a FAILED job of another spec left under a reused
   id: unless the newest valid one carries the job's cache key (``run_job``
   stamps it), the job goes on as a fresh one;
3. consult the :class:`~repro.service.cache.ResultCache` — a duplicate of
   an already-finished reconstruction is served the cached volume (PENDING
   → DONE, ``from_cache=True``) without recomputation.  The check is
   *skipped* when the job already has checkpoints on disk: a mid-flight
   job whose worker died must resume, not be short-circuited by a result
   some other submission produced;
4. run the job in a worker *subprocess* (:mod:`repro.service.worker`)
   with a per-job checkpoint directory (``<root>/<job_id>/checkpoints``)
   and ``resume_from="latest"``.  Progress and cancel are relayed over a
   pipe / shared flag, the result comes back as the repo's npz container,
   and a crashed (SIGKILL'd) subprocess is respawned to resume
   bit-identically from the job's newest checkpoint;
5. file the outcome: DONE (result stored in the cache), CANCELLED (the
   cooperative :class:`JobCancelledError` surfaced at an iteration
   boundary), or FAILED (the exception message lands in ``job.error``).
   A DONE or CANCELLED job's checkpoint directory is deleted just before
   the filing, so a later job under the same id starts fresh; a FAILED
   job's stays for a resubmission to resume from, until TTL eviction.
   ``<root>/<job_id>/`` goes with it once nothing else is in it.
   Terminal filing is race-tolerant: if the job went terminal concurrently
   (a cancel filed elsewhere racing an induced failure), the losing
   transition is dropped instead of killing the supervisor thread with a
   :class:`JobStateError`.

Service-level ``service.*`` counters (queue wait, run time, completion /
failure / dedup / worker-crash tallies) accumulate into a shared
:class:`~repro.observability.MetricsRecorder`, whose counters are
thread-safe (internally locked), and merge into the run report alongside
the per-job metrics.
"""

from __future__ import annotations

import json
import shutil
import threading
import time
from pathlib import Path
from typing import Callable

from repro.core.kernels import load_c_kernel
from repro.observability import MetricsRecorder, as_recorder
from repro.resilience import CheckpointManager
from repro.service.cache import ResultCache
from repro.service.jobs import (
    Job,
    JobCancelledError,
    JobDeadlineError,
    JobState,
    JobStateError,
    ResultPersistError,
)
from repro.service.progress import ProgressEvent
from repro.service.queue import JobQueue
from repro.service.runner import system_for
from repro.service.worker import (
    load_worker_result,
    mp_context,
    process_worker_main,
    worker_result_path,
    worker_verdict_path,
)

__all__ = ["Scheduler"]

#: how long an idle supervisor blocks on the queue before re-checking shutdown.
_POLL_S = 0.1

#: how long a supervisor blocks on the progress pipe before re-checking the
#: cancel flag and the child's liveness.
_RELAY_POLL_S = 0.05


class Scheduler:
    """Runs queued jobs in worker subprocesses, ``n_workers`` at a time.

    Parameters
    ----------
    queue, cache:
        The shared pending queue and result cache.
    checkpoint_root:
        Directory under which each job gets its own
        ``<job_id>/checkpoints`` snapshot store.
    n_workers:
        Number of concurrently running jobs: one supervisor thread, and
        one worker subprocess at a time, per slot.
    max_restarts:
        How many times one job's crashed (no-verdict) or killed-for-hanging
        worker subprocess is respawned to resume from checkpoints before
        the job is filed FAILED.  Guards against a job that is itself the
        crash trigger (e.g. the OOM killer) looping forever.
    heartbeat_timeout_s:
        A worker subprocess whose pipe stays silent — no progress, fault,
        or heartbeat message of any kind — for this long while still alive
        is presumed hung (deadlocked, SIGSTOPped, wedged in native code)
        and SIGKILLed; the job resumes from its newest checkpoint, counted
        against ``max_restarts`` with a ``WORKER_HUNG`` event and the
        ``service.workers_hung`` counter.  ``None`` (default) disables the
        watchdog.  Children are told to heartbeat at a quarter of this
        interval.
    job_deadline_s:
        Wall-clock budget for one job across all of its worker lives.  At
        the deadline the worker is SIGKILLed and the job fails at once with
        :class:`~repro.service.jobs.JobDeadlineError` — one ``WORKER_HUNG``
        event (``reason: "deadline"``), no respawn, and no
        ``service.workers_hung`` count (nothing hung).  ``None`` (default)
        disables deadlines.
    checkpoint_every:
        Snapshot cadence (iterations) for every job.
    metrics:
        Optional service-level recorder receiving ``service.*`` counters.
    on_progress:
        Optional callback invoked with every job's
        :class:`~repro.service.progress.ProgressEvent` (in addition to any
        per-job subscriber registered at submit time).
    """

    def __init__(
        self,
        queue: JobQueue,
        cache: ResultCache,
        *,
        checkpoint_root: str | Path,
        n_workers: int = 2,
        max_restarts: int = 2,
        heartbeat_timeout_s: float | None = None,
        job_deadline_s: float | None = None,
        checkpoint_every: int = 1,
        metrics: MetricsRecorder | None = None,
        on_progress: Callable[[ProgressEvent], None] | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        if heartbeat_timeout_s is not None and heartbeat_timeout_s <= 0:
            raise ValueError(
                f"heartbeat_timeout_s must be > 0 or None, got {heartbeat_timeout_s}"
            )
        if job_deadline_s is not None and job_deadline_s <= 0:
            raise ValueError(
                f"job_deadline_s must be > 0 or None, got {job_deadline_s}"
            )
        self.queue = queue
        self.cache = cache
        self.checkpoint_root = Path(checkpoint_root)
        self.n_workers = int(n_workers)
        self.max_restarts = int(max_restarts)
        self.heartbeat_timeout_s = (
            None if heartbeat_timeout_s is None else float(heartbeat_timeout_s)
        )
        self.job_deadline_s = None if job_deadline_s is None else float(job_deadline_s)
        self.checkpoint_every = int(checkpoint_every)
        self.rec = as_recorder(metrics)
        self.on_progress = on_progress
        self._clock = clock
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._degraded_lock = threading.Lock()
        #: job ids whose checkpoint write path is currently degraded
        #: (CHECKPOINT_DEGRADED seen without a later CHECKPOINT_RECOVERED).
        self._degraded_jobs: set[str] = set()

    # -- counters (shared recorder; its counters are internally locked) --
    def _count(self, name: str, n: float = 1) -> None:
        self.rec.count(name, n)

    # -- fault bookkeeping ----------------------------------------------
    def _note_job_fault(self, job: Job, kind: str, detail: dict) -> None:
        """File a relayed ``("fault", kind, detail)`` message on the job.

        Also keeps the degraded-set behind ``/healthz`` current.
        """
        job.record_event(kind, **detail)
        if kind == "CHECKPOINT_DEGRADED":
            self._count("service.checkpoint_writes_failed")
            with self._degraded_lock:
                self._degraded_jobs.add(job.job_id)
        elif kind == "CHECKPOINT_RECOVERED":
            self._count("service.checkpoint_writes_recovered")
            with self._degraded_lock:
                self._degraded_jobs.discard(job.job_id)

    @property
    def degraded_job_ids(self) -> set[str]:
        """Ids of running jobs whose checkpointing is currently degraded."""
        with self._degraded_lock:
            return set(self._degraded_jobs)

    def _forget_degraded(self, job_id: str) -> None:
        with self._degraded_lock:
            self._degraded_jobs.discard(job_id)

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Spawn the supervisor threads (idempotent while running).

        After a :meth:`stop` the pool restarts cleanly: the previous
        worker generation is joined first (so two generations never serve
        at once) and a fresh one is spawned against the still-open queue.
        A scheduler whose queue was *closed* (final shutdown) cannot be
        restarted — that raises instead of spawning workers that would
        spin on a queue no submission can ever reach again.
        """
        if self.queue.closed:
            raise RuntimeError("cannot start: the job queue is closed (final shutdown)")
        if self._stop.is_set():
            # A stopped generation may still be winding down; join it so
            # the restart never runs two generations side by side.
            for t in self._threads:
                t.join()
        self._threads = [t for t in self._threads if t.is_alive()]
        if self._threads:
            return
        self._stop.clear()
        for i in range(self.n_workers):
            t = threading.Thread(target=self._worker, name=f"recon-worker-{i}", daemon=True)
            t.start()
            self._threads.append(t)

    def stop(self, *, wait: bool = True, close: bool = False) -> None:
        """Stop the workers; optionally join them and close the queue.

        Jobs already running finish (or get cancelled by their owners).
        The queue stays **open** unless ``close=True`` (final shutdown):
        submissions keep queueing while the pool is parked, and a later
        :meth:`start` serves them — ``stop``/``start`` is pause/resume,
        not teardown.  With ``wait=False`` the supervisor threads keep
        winding down in the background; :attr:`running` stays True until
        they actually exit (the thread list is only pruned once joined),
        and a premature :meth:`start` joins them before spawning the next
        generation.
        """
        self._stop.set()
        if close:
            self.queue.close()  # also wakes getters blocked without timeout
        if wait:
            for t in self._threads:
                t.join()
            self._threads = []

    @property
    def running(self) -> bool:
        """Whether supervisor threads are active."""
        return any(t.is_alive() for t in self._threads)

    # -- worker loop ----------------------------------------------------
    def checkpoint_dir_for(self, job_id: str) -> Path:
        """Where a job's checkpoints live (stable across worker lives)."""
        return self.checkpoint_root / job_id / "checkpoints"

    def discard_checkpoints(self, job_id: str) -> None:
        """Delete ``<root>/<job_id>/checkpoints/``, then ``<root>/<job_id>/``
        if nothing else is in it (the queue directory keeps its files there).

        Callers hold the id while deleting, so no later job's files can be
        among them: the filing of a terminal state, or TTL eviction under
        the registry lock.
        """
        ckpt_dir = self.checkpoint_dir_for(job_id)
        shutil.rmtree(ckpt_dir, ignore_errors=True)
        try:
            ckpt_dir.parent.rmdir()
        except OSError:  # not empty, or never made
            pass

    def _keep_own_checkpoints(self, job: Job, ckpt_dir: Path) -> bool:
        """Whether ``ckpt_dir`` holds checkpoints of ``job``'s spec; if its
        newest valid checkpoint carries another ``meta["cache_key"]``, or
        none, its ``ckpt-*.ckpt`` files (only those) are deleted and counted
        in ``service.checkpoints_discarded``."""
        manager = CheckpointManager(ckpt_dir)
        paths = manager.paths()
        if not paths:
            return False
        newest = manager.load_latest()
        if newest is not None and newest.meta.get("cache_key") == job.cache_key:
            return True
        for path in paths:
            path.unlink(missing_ok=True)
        self._count("service.checkpoints_discarded")
        return False

    def _file_terminal(self, job: Job, state: JobState, **detail) -> bool:
        """Transition ``job`` terminal, tolerating a lost race.

        A DONE or CANCELLED job's checkpoints are deleted first
        (:meth:`discard_checkpoints`), while the job still holds its id: a
        later job under the id must start fresh, and its own files can only
        appear after this filing.  A FAILED job keeps its checkpoints for a
        resubmission to resume from until TTL eviction deletes them, and
        the intake's files beside the directory stay.

        A failure filing can race a concurrent cancel (or any other
        terminal transition filed outside this worker): ``transition``
        then raises :class:`JobStateError` because the job is already
        terminal.  That is a lost race, not a scheduler bug — swallow it
        (the job IS terminal, which is all the caller needs) and return
        False so the caller skips the loser's accounting.  A
        :class:`JobStateError` on a job that is *not* terminal is a real
        state-machine violation and propagates.
        """
        if state is not JobState.FAILED and not job.terminal:
            self.discard_checkpoints(job.job_id)
        try:
            job.transition(state, **detail)
            return True
        except JobStateError:
            if job.terminal:
                self._count("service.terminal_races")
                return False
            raise

    def _worker(self) -> None:
        while True:
            job = self.queue.get(timeout=_POLL_S)
            if job is None:
                if self._stop.is_set():
                    return
                continue
            try:
                self._execute(job)
            except Exception as exc:  # never let a supervisor thread die silently
                if self._file_terminal(job, JobState.FAILED, error=f"worker error: {exc}"):
                    self._count("service.jobs_failed")

    def _execute(self, job: Job) -> None:
        self._count("service.queue_wait_s", self._clock() - job.submitted_at)
        if job.cancel_requested:
            if self._file_terminal(job, JobState.CANCELLED):
                self._count("service.jobs_cancelled")
            return

        ckpt_dir = self.checkpoint_dir_for(job.job_id)
        has_checkpoints = self._keep_own_checkpoints(job, ckpt_dir)

        if job.cache_key is not None and not has_checkpoints:
            entry = self.cache.get(job.cache_key)
            if entry is not None:
                # A cancel can land between the check above and here (the
                # cancel-vs-dedup window): the cache hit is instantaneous
                # completion, so DONE wins — PENDING → DONE is valid even
                # with the cancel flag set, and the requester simply finds
                # the job finished.
                job.result = entry
                job.from_cache = True
                job.record_event("DEDUPED", cache_key=job.cache_key)
                if self._file_terminal(job, JobState.DONE, from_cache=True):
                    self._count("service.jobs_deduped")
                    self._count("service.jobs_completed")
                return

        job.transition(JobState.RUNNING, resumed=has_checkpoints)
        started = self._clock()
        try:
            result = self._supervise(job, ckpt_dir)
        except JobCancelledError:
            if self._file_terminal(job, JobState.CANCELLED, iteration=job.iteration):
                self._count("service.jobs_cancelled")
            return
        except Exception as exc:
            if self._file_terminal(job, JobState.FAILED, error=str(exc)):
                self._count("service.jobs_failed")
            return
        finally:
            self._count("service.run_s", self._clock() - started)
            # Whatever happened, a finished job no longer degrades health.
            self._forget_degraded(job.job_id)

        job.result = result
        if job.stop_reason is not None:
            # One counter per reason, so budget stops show on /metrics.
            self._count(f"service.stop_reason.{job.stop_reason}")
        if job.cache_key is not None:
            self.cache.put(
                job.cache_key,
                result,
                metadata={"job_id": job.job_id, "driver": job.spec.driver},
            )
        if self._file_terminal(job, JobState.DONE):
            self._count("service.jobs_completed")

    # -- worker supervision ---------------------------------------------
    def _relay(self, job: Job, message: tuple) -> None:
        """Mirror one child progress message onto the parent-side job."""
        kind, iteration, duration = message[0], int(message[1]), message[2]
        if kind == "iteration":
            job.note_iteration(iteration, duration)
        else:
            job.note_checkpoint(iteration)
        if self.on_progress is not None:
            self.on_progress(
                ProgressEvent(
                    job_id=job.job_id, kind=kind, iteration=iteration, duration_s=duration
                )
            )

    def _consume_verdict(self, job: Job, ckpt_dir: Path) -> tuple | None:
        """Read and clear a child-persisted fallback verdict of ``job``, if any.

        A worker whose pipe tore at the end writes ``verdict.json`` next
        to its result container; consuming it before (re)spawning keeps a
        finished job from being re-run.  An unreadable file, or one that
        names another job's cache key, is dropped with the container — the
        crash path (resume from checkpoints) is always safe.
        """
        path = worker_verdict_path(ckpt_dir)
        try:
            doc = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            doc = None
        path.unlink(missing_ok=True)
        ours = isinstance(doc, dict) and doc.get("cache_key") == job.cache_key
        if ours and isinstance(doc.get("kind"), str):
            self._count("service.worker_verdict_files")
            return (doc["kind"], doc.get("payload"))
        worker_result_path(ckpt_dir).unlink(missing_ok=True)
        return None

    def _supervise(self, job: Job, ckpt_dir: Path):
        """Run ``job`` through worker subprocess lives; return its result.

        Spawns a worker subprocess per life, relays its progress stream
        onto the job, mirrors ``request_cancel`` into the shared cancel
        flag, and turns its verdict into an outcome: ``JobCancelledError``
        for a cooperative cancel, an exception for FAILED, the loaded
        result container for DONE.  A life that dies with no verdict —
        SIGKILL, segfault, OOM — is respawned up to ``max_restarts``
        times; ``run_job`` in the fresh child resumes from the job's
        newest checkpoint bit-identically.

        The same restart budget covers the liveness watchdog: a child
        whose pipe stays silent past ``heartbeat_timeout_s`` while alive
        (hung, SIGSTOPped, wedged in native code) is SIGKILLed here —
        SIGKILL terminates even a stopped process — and handled exactly
        like a crash, except the event says ``WORKER_HUNG`` and the
        counter ``workers_hung``.  A child that outlives
        ``job_deadline_s`` is SIGKILLed too, but never respawned: a new
        life would start past the deadline.
        """
        # Build the (process-wide, read-only) system matrix and the compiled
        # kernel in the parent first: forked children inherit both instead
        # of each rebuilding the matrix and compiling the kernel.
        # ``system_for`` loads the kernel itself wherever it builds the
        # matrix in it; ``load_c_kernel`` covers a matrix built by the NumPy
        # loop (one too large for int32 indices).  A host that cannot build
        # the kernel runs the ``python`` oracle in every child.
        system_for(job.spec.scan.geometry)
        load_c_kernel()
        ctx = mp_context()
        restarts = 0
        deadline = (
            None
            if self.job_deadline_s is None
            else time.monotonic() + self.job_deadline_s
        )
        hb_timeout = self.heartbeat_timeout_s
        # Children beat at a quarter of the timeout: several beats must be
        # missed in a row before the watchdog fires, so one slow scheduler
        # tick never kills a healthy worker.
        hb_interval = None if hb_timeout is None else max(0.01, hb_timeout / 4.0)
        while True:
            # A previous life may have finished but lost its pipe: its
            # persisted verdict stands in for the send.
            verdict = self._consume_verdict(job, ckpt_dir)
            hung_reason = None
            exitcode = None
            if verdict is None:
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                cancel_event = ctx.Event()
                if job.cancel_requested:
                    cancel_event.set()
                proc = ctx.Process(
                    target=process_worker_main,
                    args=(
                        child_conn,
                        cancel_event,
                        job.spec,
                        str(ckpt_dir),
                        self.checkpoint_every,
                        hb_interval,
                        parent_conn,
                    ),
                    name=f"recon-job-{job.job_id}",
                    daemon=True,
                )
                proc.start()
                child_conn.close()  # parent keeps only the receiving end
                last_seen = time.monotonic()
                try:
                    while True:
                        # Liveness checks come first so a chatty child (its
                        # pipe never idle) still gets deadline-checked.
                        now = time.monotonic()
                        if deadline is not None and now >= deadline:
                            hung_reason = "deadline"
                        elif (
                            hb_timeout is not None
                            and now - last_seen >= hb_timeout
                            and proc.is_alive()
                        ):
                            # Alive but silent past the timeout: hung.  (A
                            # dead child goes the EOF/no-verdict crash path
                            # below instead.)
                            hung_reason = "heartbeat_timeout"
                        if hung_reason is not None:
                            proc.kill()
                            break
                        if job.cancel_requested and not cancel_event.is_set():
                            cancel_event.set()
                        if parent_conn.poll(_RELAY_POLL_S):
                            try:
                                message = parent_conn.recv()
                            except EOFError:  # child gone mid-message
                                break
                            last_seen = time.monotonic()
                            kind = message[0]
                            if kind in ("iteration", "checkpoint"):
                                self._relay(job, message)
                            elif kind == "heartbeat":
                                pass  # liveness only; last_seen just updated
                            elif kind == "fault":
                                self._note_job_fault(job, message[1], dict(message[2]))
                            else:
                                verdict = message
                                break
                        elif not proc.is_alive():
                            # Dead and the pipe is drained: no verdict is coming.
                            if not parent_conn.poll(0):
                                break
                finally:
                    parent_conn.close()
                proc.join()
                exitcode = proc.exitcode
                if verdict is None and hung_reason is None:
                    # The child may have finished but lost the pipe race:
                    # check for a persisted verdict before calling it a crash.
                    verdict = self._consume_verdict(job, ckpt_dir)

            if verdict is not None:
                kind, payload = verdict
                if kind == "done":
                    if isinstance(payload, dict):
                        # The child's counter snapshot is the job's metrics
                        # (span trees stay in the child; counters are what
                        # report consumers read).
                        job_rec = MetricsRecorder()
                        job_rec.merge_counters(payload)
                        job.metrics = job_rec
                    result = load_worker_result(ckpt_dir)
                    # The caller stores the result (cache or queue dir); the
                    # worker's copy would only duplicate it on disk.
                    worker_result_path(ckpt_dir).unlink(missing_ok=True)
                    return result
                if kind == "cancelled":
                    raise JobCancelledError(payload)
                # kind == "failed"
                if isinstance(payload, str) and payload.startswith(
                    "ResultPersistError"
                ):
                    raise ResultPersistError(payload)
                raise RuntimeError(payload)

            if hung_reason == "deadline":
                # Our kill, but not a hang: no respawn (it would start past
                # the deadline) and no workers_hung count.
                job.record_event("WORKER_HUNG", reason=hung_reason, exitcode=exitcode)
                raise JobDeadlineError(
                    f"job exceeded its {self.job_deadline_s:g}s deadline; "
                    f"worker killed"
                )

            # No verdict: the worker process died (or was killed) under the
            # job.  Hangs and crashes share the restart budget but are
            # tallied separately — a hang was *our* kill, and operators
            # tune heartbeat_timeout_s by watching workers_hung.
            restarts += 1
            if hung_reason is not None:
                self._count("service.workers_hung")
                job.record_event(
                    "WORKER_HUNG",
                    reason=hung_reason,
                    exitcode=exitcode,
                    restarts=restarts,
                )
            else:
                self._count("service.worker_crashes")
                job.record_event(
                    "WORKER_CRASHED", exitcode=exitcode, restarts=restarts
                )
            if restarts > self.max_restarts:
                raise RuntimeError(
                    f"worker process died {restarts} times without a verdict "
                    f"(last exitcode {exitcode}"
                    + (f", last kill: {hung_reason}" if hung_reason else "")
                    + f"); giving up after max_restarts={self.max_restarts}"
                )
