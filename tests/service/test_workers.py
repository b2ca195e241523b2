"""Worker subprocesses + scheduler lifecycle/race regressions.

The acceptance paths:

* the service runs jobs in worker subprocesses and produces volumes
  bit-identical to a direct ``run_job``, with the ProgressEvent stream and
  cooperative cancel semantics relayed over the pipe / shared flag;
* a SIGKILL'd worker *subprocess* (the ``kill_at_iteration`` fault) is
  respawned and its job resumes from checkpoints bit-identically — the
  service never goes down;
* the scheduler regressions this PR fixes stay fixed: ``stop(wait=False)``
  no longer forgets live workers, ``stop``/``start`` is pause/resume
  against a still-open queue, and a terminal-filing race with a concurrent
  cancel no longer kills the supervisor thread with a ``JobStateError``.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.kernels import load_c_kernel, no_compiler
from repro.service import (
    Job,
    JobCancelledError,
    JobSpec,
    JobState,
    ReconstructionService,
    Scheduler,
)
from repro.service.runner import run_job
from repro.service.worker import worker_result_path


def icd_spec(scan, *, seed=0, priority=0, equits=1.0, job_id=None, fault=None):
    return JobSpec(
        driver="icd",
        scan=scan,
        params={"max_equits": equits, "seed": seed, "track_cost": False},
        priority=priority,
        job_id=job_id,
        fault=fault,
    )


def reference_image(scan, tmp_path, **kwargs):
    """Uninterrupted in-process ``run_job`` of the same spec."""
    result = run_job(icd_spec(scan, **kwargs), checkpoint_dir=tmp_path / "reference-ckpts")
    return np.array(result.image, copy=True)


# ----------------------------------------------------------------------
# Worker subprocesses
# ----------------------------------------------------------------------
class TestProcessModel:
    def test_process_job_runs_to_done_bit_identical(self, scan16, tmp_path):
        with ReconstructionService(n_workers=1) as svc:
            job_id = svc.submit(icd_spec(scan16))
            result = svc.result(job_id, timeout=120)
            assert svc.job(job_id).state is JobState.DONE
            # The parent loaded the worker's result container and removed it.
            ckpt_dir = svc.scheduler.checkpoint_dir_for(job_id)
            assert not worker_result_path(ckpt_dir).exists()
        assert np.array_equal(result.image, reference_image(scan16, tmp_path))

    def test_progress_events_relayed_from_child(self, scan16):
        events = []
        with ReconstructionService(n_workers=1) as svc:
            job_id = svc.submit(icd_spec(scan16, equits=2.0), on_progress=events.append)
            svc.result(job_id, timeout=120)
            job = svc.job(job_id)
        kinds = {e.kind for e in events}
        assert "iteration" in kinds and "checkpoint" in kinds
        assert all(e.job_id == job_id for e in events)
        # The relay mirrored progress onto the parent-side job too.
        assert job.iteration >= 1
        assert job.checkpoints >= 1
        assert any(e.kind == "CHECKPOINTED" for e in job.events)

    def test_child_counters_attached_as_job_metrics(self, scan16):
        with ReconstructionService(n_workers=1) as svc:
            job_id = svc.submit(icd_spec(scan16))
            svc.result(job_id, timeout=120)
            job = svc.job(job_id)
            service_counters = dict(svc.rec.counters)
        assert job.metrics is not None
        assert any(k.startswith("kernel.") for k in job.metrics.counters)
        # Per-job kernel counters must not leak into the service recorder.
        assert not any(k.startswith("kernel.") for k in service_counters)

    @pytest.mark.skipif(load_c_kernel() is not None, reason="the c kernel does not build here")
    def test_worker_runs_the_compiled_kernel_bit_identical(self, scan16):
        """The forked worker runs ``c`` and matches a worker forked without a compiler."""

        def served_image(kernel):
            with ReconstructionService(n_workers=1) as svc:
                job_id = svc.submit(icd_spec(scan16, equits=2.0))
                result = svc.result(job_id, timeout=120)
                assert svc.job(job_id).metrics.counters[f"kernel.{kernel}.updates"] > 0
            return result.image

        compiled = served_image("c")
        with no_compiler():  # in place before the service forks its worker
            oracle = served_image("python")
        assert np.array_equal(compiled, oracle)

    def test_cancel_mid_run_stops_child_cooperatively(self, scan16):
        cancelled = threading.Event()

        def on_progress(event):
            # Cancel as soon as the child reports its first iteration.
            if event.kind == "iteration" and not cancelled.is_set():
                cancelled.set()

        with ReconstructionService(n_workers=1) as svc:
            job_id = svc.submit(
                icd_spec(scan16, equits=20.0), on_progress=on_progress
            )
            assert cancelled.wait(timeout=120)
            svc.cancel(job_id)
            with pytest.raises(JobCancelledError):
                svc.result(job_id, timeout=120)
            assert svc.job(job_id).state is JobState.CANCELLED

    def test_sigkilled_worker_process_resumes_bit_identical(self, scan16, tmp_path):
        """The tentpole drill: SIGKILL the worker subprocess mid-job.

        The fault fires inside iteration 2's sentinel check, before that
        iteration's snapshot; the supervisor sees a dead child with no
        verdict, respawns it, and ``run_job`` resumes from iteration 1's
        checkpoint — finishing bit-identically to an uninterrupted run,
        with the crash on the job's event log and the service counter.
        """
        with ReconstructionService(n_workers=1) as svc:
            job_id = svc.submit(
                icd_spec(scan16, equits=3.0, fault={"kill_at_iteration": 2})
            )
            result = svc.result(job_id, timeout=240)
            job = svc.job(job_id)
            crashes = [e for e in job.events if e.kind == "WORKER_CRASHED"]
            assert len(crashes) == 1
            assert crashes[0].detail["exitcode"] == -9
            assert svc.report()["counters"]["service.worker_crashes"] == 1
            assert job.state is JobState.DONE

        assert np.array_equal(result.image, reference_image(scan16, tmp_path, equits=3.0))

    def test_repeatedly_crashing_job_fails_after_max_restarts(self, scan16, tmp_path):
        """A job that kills its worker before any checkpoint exists re-arms
        the fault every life; ``max_restarts`` turns that into FAILED
        instead of an infinite respawn loop."""
        with ReconstructionService(
            n_workers=1,
            max_restarts=1,
            checkpoint_root=tmp_path,
            checkpoint_every=100,  # no checkpoint survives the kill
        ) as svc:
            job_id = svc.submit(
                icd_spec(scan16, equits=3.0, fault={"kill_at_iteration": 1})
            )
            job = svc.job(job_id)
            assert job.wait(timeout=240)
            assert job.state is JobState.FAILED
            assert "worker process died" in job.error
            crashes = [e for e in job.events if e.kind == "WORKER_CRASHED"]
            assert len(crashes) == 2  # first life + one permitted restart


# ----------------------------------------------------------------------
# stop()/start() lifecycle regressions
# ----------------------------------------------------------------------
class TestStopStartLifecycle:
    def test_stop_without_wait_keeps_thread_list_until_joined(self, scan16):
        """PR-8 bugfix: ``stop(wait=False)`` used to clear ``_threads``
        immediately, so ``running`` lied (False with workers alive) and a
        prompt ``start()`` spawned a second generation alongside the
        winding-down first."""
        svc = ReconstructionService(n_workers=2, start=True)
        try:
            svc.scheduler.stop(wait=False)
            # The workers poll the queue at 0.1 s cadence; until they exit,
            # the scheduler must still report them.
            assert len(svc.scheduler._threads) == 2
            svc.scheduler.start()  # joins the old generation first
            alive = [t for t in svc.scheduler._threads if t.is_alive()]
            assert len(alive) == 2  # exactly one generation serving
            job_id = svc.submit(icd_spec(scan16))
            svc.result(job_id, timeout=120)
        finally:
            svc.close()

    def test_stop_start_is_pause_resume_submissions_queue_while_parked(self, scan16):
        """``stop()`` keeps the queue open: submissions land while the pool
        is parked and a later ``start()`` serves them (the idiom the HTTP
        and intake tests, and the load harness's restart phase, rely on)."""
        with ReconstructionService(n_workers=1) as svc:
            svc.scheduler.stop(wait=True)
            job_id = svc.submit(icd_spec(scan16))  # must not raise
            assert svc.job(job_id).state is JobState.PENDING
            svc.scheduler.start()
            svc.result(job_id, timeout=120)
            assert svc.job(job_id).state is JobState.DONE

    def test_start_after_final_close_raises(self, scan16):
        svc = ReconstructionService(n_workers=1)
        svc.scheduler.stop(wait=True, close=True)
        with pytest.raises(RuntimeError, match="closed"):
            svc.scheduler.start()
        svc.close()


# ----------------------------------------------------------------------
# Terminal-filing races
# ----------------------------------------------------------------------
class TestTerminalRaces:
    def test_failure_racing_concurrent_cancel_does_not_kill_worker(
        self, scan16, monkeypatch
    ):
        """PR-8 bugfix: a cancel filed concurrently with an induced failure
        used to raise ``JobStateError`` out of the worker's terminal filing
        (FAILED onto an already-CANCELLED job), silently killing the worker
        thread.  Post-fix the losing transition is dropped: the job stays
        CANCELLED, no failure is counted, and the race is tallied."""
        svc = ReconstructionService(n_workers=1, start=False)
        try:
            job_id = svc.submit(icd_spec(scan16))
            job = svc.job(job_id)

            def supervise_raced(job, ckpt_dir):
                # Deterministically reproduce the race: another party files
                # the job terminal while the worker is "running", then the
                # run errors out.
                job._cancel.set()
                job.transition(JobState.CANCELLED)
                raise RuntimeError("induced failure after concurrent cancel")

            monkeypatch.setattr(svc.scheduler, "_supervise", supervise_raced)
            svc.scheduler._execute(job)  # pre-fix: raises JobStateError
            assert job.state is JobState.CANCELLED
            counters = svc.report()["counters"]
            assert counters.get("service.jobs_failed", 0) == 0
            assert counters["service.terminal_races"] >= 1
        finally:
            svc.close()

    def test_worker_survives_terminal_race_and_serves_next_job(
        self, scan16, monkeypatch
    ):
        """End-to-end: the racing job must not take the supervisor thread
        down with it — the next submission still gets served."""
        real_supervise = Scheduler._supervise
        raced = threading.Event()

        def supervise_first_races(self, job, ckpt_dir):
            if not raced.is_set():
                raced.set()
                raise RuntimeError("induced failure")
            return real_supervise(self, job, ckpt_dir)

        monkeypatch.setattr(Scheduler, "_supervise", supervise_first_races)
        with ReconstructionService(n_workers=1) as svc:
            bad = svc.submit(icd_spec(scan16, seed=1))
            assert svc.job(bad).wait(timeout=120)
            good = svc.submit(icd_spec(scan16, seed=2))
            svc.result(good, timeout=120)
            assert svc.job(good).state is JobState.DONE

    def test_cancel_vs_dedup_window_done_wins(self, scan16, monkeypatch):
        """A cancel landing between the worker's cancel check and its cache
        hit loses to the dedup: the hit is instantaneous completion, so the
        job files DONE (PENDING → DONE is valid with the cancel flag set)."""
        with ReconstructionService(n_workers=1) as svc:
            first = svc.submit(icd_spec(scan16, seed=3))
            svc.result(first, timeout=120)

            svc.scheduler.stop(wait=True)
            dup = svc.submit(icd_spec(scan16, seed=3, job_id="dup"))
            job = svc.job(dup)

            real_get = svc.cache.get

            def cancel_then_get(key):
                job.request_cancel()  # lands inside the window
                return real_get(key)

            monkeypatch.setattr(svc.cache, "get", cancel_then_get)
            svc.scheduler._execute(job)
            assert job.state is JobState.DONE
            assert job.from_cache
            assert job.cancel_requested  # the flag was set, and DONE won
