"""The worker subprocess every service job runs in.

Jobs run in worker *subprocesses* rather than on scheduler threads: the
per-voxel ICD sweep is NumPy-light, so threads serialise on the GIL, and a
separate process can be killed, respawned, and resumed without taking the
service down.  :func:`process_worker_main` is the
``multiprocessing.Process`` target, and the protocol back to the scheduler
is deliberately tiny:

* **progress** flows child → parent over a one-way pipe as small tuples
  (``("iteration", i, dur)`` / ``("checkpoint", i, dur)``), re-emitted by
  the parent as :class:`~repro.service.progress.ProgressEvent` objects;
* **liveness** is a periodic ``("heartbeat", ts)`` tuple from a daemon
  thread, sent even while an iteration grinds — the parent's supervisor
  treats a quiet pipe (no message of *any* kind within
  ``heartbeat_timeout_s``) as a hung worker and SIGKILLs it, making an
  alive-but-stuck child indistinguishable from a crashed one within one
  timeout;
* **faults** flow as ``("fault", kind, detail)`` tuples — the disk-fault
  degradation transitions (``CHECKPOINT_DEGRADED`` / ``_RECOVERED``) the
  parent mirrors onto the job's event log;
* **cancel** flows parent → child through a shared
  ``multiprocessing.Event`` checked at every iteration boundary, raising
  :class:`~repro.service.jobs.JobCancelledError` out of the driver loop;
* **the result** never crosses the pipe: the child persists it with the
  repo's npz reconstruction container (``result-worker.npz`` next to the
  job's ``checkpoints/`` dir, through :func:`repro.io.atomic_write` like
  every durable write) and sends a one-line verdict; the parent loads
  the container back and deletes it.  Volumes can be large; verdicts are
  not.  A result write that still fails after 3 attempts
  (:func:`~repro.service.faults.retry_oserror`) is the one disk fault
  that is terminal: the verdict is a ``ResultPersistError`` failure with
  the errno;
* **crashes need no protocol at all**: a SIGKILL'd child simply never
  sends a verdict.  The parent notices the dead process and respawns it —
  ``run_job`` resumes from the job's newest checkpoint bit-identically,
  exactly like the service-restart kill drill, except the service never
  went down;
* **a lost pipe is not a lost verdict**: if the verdict send fails after
  one retry, the child persists it as ``verdict.json`` next to the result
  container (best-effort: a disk fault there drops it).  The parent
  consumes the file before (re)spawning, so a finished job is never
  re-run just because its pipe tore at the end;
* **an orphan stops**: a child whose parent died (``os.getppid()``
  changed) stops sending, leaves the driver loop at the next iteration
  boundary, and returns with no verdict and no verdict file.  Its
  checkpoints make the work durable; the next service life resumes from
  them and decides the job's outcome itself.

Children are forked where the platform allows it, so the parent's
process-wide system-matrix cache (and any warmed-up JIT state) is
inherited copy-on-write instead of being rebuilt per job.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import threading
import time
from pathlib import Path

from repro.io import atomic_write, load_reconstruction, save_reconstruction
from repro.observability import MetricsRecorder, Span
from repro.service.cache import CachedResult
from repro.service.faults import retry_oserror
from repro.service.jobs import JobCancelledError, JobSpec

__all__ = [
    "mp_context",
    "worker_result_path",
    "worker_verdict_path",
    "load_worker_result",
    "process_worker_main",
]

#: Basename of the child-written result container (sibling of checkpoints/).
_RESULT_BASENAME = "result-worker.npz"
#: Basename of the fallback verdict file (written only when the pipe died).
_VERDICT_BASENAME = "verdict.json"
#: Pipe-send retry pause — long enough to ride out a transient EAGAIN-ish
#: hiccup, short enough not to stall the iteration cadence.
_SEND_RETRY_S = 0.05
#: Result-write attempts, and the backoff bounds (s) between them.
_RESULT_ATTEMPTS = 3
_RESULT_BACKOFF_S = (0.05, 0.5)


def mp_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context worker processes are spawned from.

    ``fork`` when the platform offers it: children inherit the parent's
    built system matrices copy-on-write, so per-job startup is a process
    clone, not a fresh interpreter.  Elsewhere the platform default
    (``spawn``) is used — job specs and results already travel by
    pickle/file, so only startup latency differs.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def worker_result_path(checkpoint_dir: str | Path) -> Path:
    """Where a worker process deposits its finished reconstruction."""
    return Path(checkpoint_dir).parent / _RESULT_BASENAME


def worker_verdict_path(checkpoint_dir: str | Path) -> Path:
    """Where a worker persists its verdict when the pipe is gone."""
    return Path(checkpoint_dir).parent / _VERDICT_BASENAME


def load_worker_result(checkpoint_dir: str | Path) -> CachedResult:
    """Load the child-written result container back into the parent.

    Raises :class:`~repro.io.CorruptFileError` for a torn file (the child
    writes atomically, so this indicates disk-level trouble, and the
    scheduler files the job FAILED with the error) and
    :class:`FileNotFoundError` if the child claimed success without
    writing — both are worker-side failures the parent must surface.
    """
    image, history, metadata = load_reconstruction(worker_result_path(checkpoint_dir))
    return CachedResult(image=image, history=history, metadata=metadata)


class _Orphaned(Exception):
    """The worker's parent died; raised out of the driver loop."""


class _RelayRecorder(MetricsRecorder):
    """Child-side recorder: pipes progress out, honours the cancel flag.

    The drivers' ``iteration`` / ``checkpoint_save`` span closes become
    pipe messages (the ``Job`` object lives in the parent), and the cancel
    check reads the shared event the parent sets when ``request_cancel``
    arrives.

    Sends are serialised through a lock — the heartbeat thread and the
    driver loop share the pipe, and ``Connection.send`` is not thread-safe.
    A send that fails is retried once after a short pause; a second failure
    marks the pipe dead so every later send is a cheap no-op.  No send is
    attempted once the parent is gone: a sibling worker forked later may
    still hold this pipe's read end, so writes would not fail — they would
    fill the pipe and block.
    """

    def __init__(self, conn, cancel_event) -> None:
        super().__init__()
        self._conn = conn
        self._cancel = cancel_event
        self._send_lock = threading.Lock()
        self._pipe_dead = False
        # The pid recorded at spawn time, not a getppid() here: the parent
        # may already be gone by the time the child gets this far.
        parent = multiprocessing.parent_process()
        self._parent_pid = os.getppid() if parent is None else parent.pid

    @property
    def orphaned(self) -> bool:
        """Whether the parent that spawned this worker has died."""
        return os.getppid() != self._parent_pid

    def send(self, message: tuple, *, retries: int = 1) -> bool:
        """Send ``message``; False if the pipe is (now) dead."""
        if self._pipe_dead or self.orphaned:
            return False
        with self._send_lock:
            if self._pipe_dead:
                return False
            for attempt in range(retries + 1):
                try:
                    self._conn.send(message)
                    return True
                except (BrokenPipeError, OSError):
                    if attempt < retries:
                        time.sleep(_SEND_RETRY_S)
            self._pipe_dead = True
            return False

    def note_fault(self, kind: str, **detail) -> None:
        """Relay a fault transition (CHECKPOINT_DEGRADED/...) to the parent."""
        self.send(("fault", kind, detail))

    def _pop(self, span: Span) -> None:
        super()._pop(span)
        meta = span.meta or {}
        if span.name == "iteration":
            iteration = int(meta.get("index", 0))
            if self.orphaned:
                raise _Orphaned(f"parent gone at iteration {iteration}")
            self.send(("iteration", iteration, span.duration))
            if self._cancel.is_set():
                raise JobCancelledError(f"cancelled at iteration {iteration}")
        elif span.name == "checkpoint_save" and not meta.get("suppressed"):
            self.send(("checkpoint", int(meta.get("iteration", 0)), span.duration))


def _heartbeat_loop(recorder: _RelayRecorder, stop: threading.Event, interval_s: float) -> None:
    """Send liveness beats until told to stop, the pipe dies or the parent does.

    No retry on a beat: the next one is due in ``interval_s`` anyway, and
    retrying here would serialise behind a driver-loop send holding the
    lock.
    """
    while not stop.wait(interval_s):
        if not recorder.send(("heartbeat", time.time()), retries=0):
            return


def _persist_verdict(checkpoint_dir: str, kind: str, payload) -> None:
    """Write the fallback verdict file atomically; best-effort.

    Called only after the pipe is torn, so there is nobody to tell about a
    failure here — the parent will classify a missing file as a crash and
    resume from checkpoints, which is safe (just slower) even for a
    finished job.
    """
    with contextlib.suppress(OSError):
        atomic_write(
            worker_verdict_path(checkpoint_dir),
            json.dumps({"kind": kind, "payload": payload}).encode(),
        )


def _deliver_verdict(
    recorder: _RelayRecorder, checkpoint_dir: str, kind: str, payload
) -> None:
    """Send the verdict over the pipe, falling back to the verdict file.

    An orphan delivers nothing: a persisted cancelled or failed verdict
    would end the job in the next service life, which should resume it.
    """
    if not recorder.send((kind, payload), retries=1) and not recorder.orphaned:
        _persist_verdict(checkpoint_dir, kind, payload)


def _save_result(result_path: Path, result, spec: JobSpec) -> None:
    """Persist the result container, retrying transient OSErrors.

    The one write that must not degrade: after the retry budget the final
    ``OSError`` propagates and becomes a ``ResultPersistError`` verdict.
    """
    retry_oserror(
        lambda: save_reconstruction(
            result_path,
            result.image,
            getattr(result, "history", None),
            metadata={"job_id": spec.job_id or "", "driver": spec.driver},
        ),
        attempts=_RESULT_ATTEMPTS,
        base_s=_RESULT_BACKOFF_S[0],
        cap_s=_RESULT_BACKOFF_S[1],
    )


def process_worker_main(
    conn,
    cancel_event,
    spec: JobSpec,
    checkpoint_dir: str,
    checkpoint_every: int,
    heartbeat_interval_s: float | None = None,
    parent_end=None,
) -> None:
    """Run one job in this worker process and report a verdict.

    The last message on ``conn`` is the verdict tuple —
    ``("done", counters)``, ``("cancelled", detail)``, or
    ``("failed", error)`` — after any number of progress/heartbeat/fault
    tuples.  A crash (SIGKILL, segfault, OOM kill) sends nothing; the
    parent treats pipe EOF without a verdict (and without a persisted
    ``verdict.json``) as "respawn and resume from checkpoints".  An
    orphaned worker returns with no verdict at all.

    ``parent_end`` is the pipe's receiving end, which a forked child
    inherits; it is closed here so that the child never holds its own
    pipe open.
    """
    from repro.service.runner import run_job  # deferred: keep fork startup lean

    if parent_end is not None:
        parent_end.close()
    recorder = _RelayRecorder(conn, cancel_event)
    hb_stop = threading.Event()
    hb_thread = None
    if heartbeat_interval_s is not None and heartbeat_interval_s > 0:
        hb_thread = threading.Thread(
            target=_heartbeat_loop,
            args=(recorder, hb_stop, float(heartbeat_interval_s)),
            name="worker-heartbeat",
            daemon=True,
        )
        hb_thread.start()
    try:
        try:
            result = run_job(
                spec,
                checkpoint_dir=checkpoint_dir,
                checkpoint_every=checkpoint_every,
                metrics=recorder,
            )
        except _Orphaned:
            return  # nobody to tell; the next service life resumes the job
        except JobCancelledError as exc:
            _deliver_verdict(recorder, checkpoint_dir, "cancelled", str(exc))
            return
        except BaseException as exc:  # the verdict IS the error channel
            _deliver_verdict(
                recorder, checkpoint_dir, "failed", f"{type(exc).__name__}: {exc}"
            )
            return
        try:
            _save_result(worker_result_path(checkpoint_dir), result, spec)
        except OSError as exc:
            # The terminal disk fault: the result is irreplaceable, so a
            # persistently unwritable container fails the job with the
            # errno in the detail (the parent raises the typed error).
            _deliver_verdict(
                recorder,
                checkpoint_dir,
                "failed",
                f"ResultPersistError[errno={exc.errno}]: {exc}",
            )
            return
        except BaseException as exc:
            # A non-disk save failure must still be a FAILED verdict, not a
            # silent clean exit.
            _deliver_verdict(
                recorder,
                checkpoint_dir,
                "failed",
                f"result save failed: {type(exc).__name__}: {exc}",
            )
            return
        _deliver_verdict(recorder, checkpoint_dir, "done", dict(recorder.counters))
    finally:
        hb_stop.set()
        if hb_thread is not None:
            hb_thread.join(timeout=1.0)
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
