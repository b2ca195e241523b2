"""ReconstructionService acceptance: priorities, dedup, lifecycle, progress.

``test_mixed_priority_queue_respects_priorities`` is the ISSUE's acceptance
demo: a queue of >= 8 mixed-priority jobs submitted against parked workers,
then executed on one worker — the observed start order must be exactly
(-priority, submission) order, duplicates must be served from the result
cache without recomputation, and every job must finish DONE.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.ct import ParallelBeamGeometry, shepp_logan, simulate_scan
from repro.io import arm_disk_fault, disarm_disk_fault, load_reconstruction, save_scan
from repro.multires import submit_volume
from repro.resilience import CheckpointManager
from repro.service import (
    DirectoryService,
    Job,
    JobFailedError,
    JobSpec,
    JobState,
    JobStateError,
    ReconstructionService,
    read_status,
    run_job,
    write_job_spec,
)
from repro.service.runner import system_for


def icd_spec(scan, *, seed=0, priority=0, equits=1.0, job_id=None, **params):
    return JobSpec(
        driver="icd",
        scan=scan,
        params={"max_equits": equits, "seed": seed, "track_cost": False, **params},
        priority=priority,
        job_id=job_id,
    )


class TestLifecycle:
    def test_job_runs_to_done(self, scan16):
        with ReconstructionService(n_workers=1) as svc:
            job_id = svc.submit(icd_spec(scan16))
            result = svc.result(job_id, timeout=120)
            assert result.image.shape == (16, 16)
            status = svc.status(job_id)
        assert status["state"] == "DONE"
        assert status["iteration"] >= 1
        assert status["checkpoints"] >= 1  # CHECKPOINTED events were recorded
        assert status["equits"] > 0

    def test_invalid_transitions_raise_typed_error(self, scan16):
        job = Job("j", JobSpec(driver="icd", scan=scan16))
        job.transition(JobState.DONE)  # cache-hit fast path is legal
        with pytest.raises(JobStateError):
            job.transition(JobState.RUNNING)

    def test_terminal_states_are_final(self, scan16):
        job = Job("j", JobSpec(driver="icd", scan=scan16))
        job.transition(JobState.RUNNING)
        job.transition(JobState.FAILED, error="boom")
        for state in JobState:
            with pytest.raises(JobStateError):
                job.transition(state)

    def test_unknown_job_id(self, scan16):
        from repro.service import UnknownJobError

        with ReconstructionService(n_workers=1, start=False) as svc:
            with pytest.raises(UnknownJobError):
                svc.status("nope")

    def test_duplicate_active_job_id_rejected(self, scan16):
        with ReconstructionService(n_workers=1, start=False) as svc:
            svc.submit(icd_spec(scan16, job_id="same"))
            with pytest.raises(JobStateError):
                svc.submit(icd_spec(scan16, seed=1, job_id="same"))

    def test_concurrent_submits_of_one_id_accept_one(self, scan16):
        """8 threads submitting one id to a parked service: one job is accepted."""
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads between check and register
        try:
            for trial in range(30):
                with ReconstructionService(n_workers=1, start=False) as svc:
                    barrier = threading.Barrier(8)
                    accepted, refused = [], []

                    def submit(seed):
                        spec = icd_spec(scan16, seed=seed, job_id="same")
                        barrier.wait()
                        try:
                            accepted.append(svc.submit(spec))
                        except JobStateError:
                            refused.append(seed)

                    threads = [threading.Thread(target=submit, args=(s,)) for s in range(8)]
                    for t in threads:
                        t.start()
                    for t in threads:
                        t.join()
                    assert (len(accepted), len(refused), svc.queue.depth) == (1, 7, 1), trial
        finally:
            sys.setswitchinterval(old)


class TestAcceptance:
    def test_mixed_priority_queue_respects_priorities(self, scan16):
        """>= 8 mixed-priority jobs: execution order == (-priority, seq)."""
        priorities = [0, 5, 2, 5, 1, 0, 3, 2, 4]
        svc = ReconstructionService(n_workers=1, start=False)
        try:
            submitted = []  # (priority, submission index, job_id)
            for i, prio in enumerate(priorities):
                job_id = svc.submit(icd_spec(scan16, seed=100 + i, priority=prio))
                submitted.append((prio, i, job_id))
            # one extra duplicate of the highest-priority job, lowest priority:
            # it runs last, after the original finished, and must be deduped.
            dup_of = submitted[1]
            dup_id = svc.submit(icd_spec(scan16, seed=101, priority=-1))

            svc.start()
            assert svc.drain(timeout=300)

            for _, _, job_id in submitted:
                assert svc.status(job_id)["state"] == "DONE"

            ran = [j for j in svc.jobs if not j.from_cache]
            observed = sorted(ran, key=lambda j: j.started_at)
            assert [j.job_id for j in observed] == [
                job_id
                for _, _, job_id in sorted(submitted, key=lambda t: (-t[0], t[1]))
            ]

            dup_status = svc.status(dup_id)
            assert dup_status["state"] == "DONE"
            assert dup_status["from_cache"] is True
            np.testing.assert_array_equal(
                svc.result(dup_id).image, svc.result(dup_of[2]).image
            )

            counters = svc.report()["counters"]
            assert counters["service.jobs_submitted"] == len(priorities) + 1
            assert counters["service.jobs_completed"] == len(priorities) + 1
            assert counters["service.jobs_deduped"] == 1
            assert counters["service.queue_depth_peak"] == len(priorities) + 1
            assert counters["service.queue_wait_s"] > 0
        finally:
            svc.close()

    def test_concurrent_workers_complete_all_jobs(self, scan16):
        with ReconstructionService(n_workers=3) as svc:
            ids = [svc.submit(icd_spec(scan16, seed=s)) for s in range(6)]
            assert svc.drain(timeout=300)
            assert all(svc.status(j)["state"] == "DONE" for j in ids)

    def test_all_three_drivers_accepted(self, scan16):
        specs = [
            JobSpec(driver="icd", scan=scan16,
                    params={"max_equits": 1.0, "track_cost": False}),
            JobSpec(driver="psv_icd", scan=scan16,
                    params={"max_equits": 1.0, "sv_side": 6, "track_cost": False}),
            JobSpec(driver="gpu_icd", scan=scan16,
                    params={"max_equits": 1.0, "sv_side": 8, "batch_size": 4,
                            "track_cost": False}),
        ]
        with ReconstructionService(n_workers=2) as svc:
            ids = [svc.submit(s) for s in specs]
            for job_id in ids:
                assert svc.result(job_id, timeout=300).image.shape == (16, 16)


class TestProgressStream:
    def test_iteration_and_checkpoint_events_fire(self, scan16):
        events = []
        lock = threading.Lock()

        def on_progress(event):
            with lock:
                events.append(event)

        with ReconstructionService(n_workers=1) as svc:
            job_id = svc.submit(icd_spec(scan16, equits=2.0), on_progress=on_progress)
            svc.result(job_id, timeout=120)

        kinds = {e.kind for e in events}
        assert kinds == {"iteration", "checkpoint"}
        iters = [e.iteration for e in events if e.kind == "iteration"]
        assert iters == sorted(iters) and iters[0] == 1
        assert all(e.job_id == job_id for e in events)
        assert all(e.duration_s > 0 for e in events if e.kind == "iteration")

    def test_service_wide_subscriber_sees_all_jobs(self, scan16):
        seen = set()
        svc = ReconstructionService(
            n_workers=1, on_progress=lambda e: seen.add(e.job_id)
        )
        try:
            ids = [svc.submit(icd_spec(scan16, seed=s)) for s in range(2)]
            assert svc.drain(timeout=120)
        finally:
            svc.close()
        assert seen == set(ids)

    def test_job_metrics_report_attached(self, scan16):
        with ReconstructionService(n_workers=1) as svc:
            job_id = svc.submit(icd_spec(scan16))
            svc.result(job_id, timeout=120)
            job = svc.job(job_id)
        # The worker's counters come back with the verdict; its span trees
        # stay in the worker process.
        assert job.metrics.counters["checkpoint.saves"] >= 1


class TestCheckpointsLeaveWithTheJob:
    """A DONE or CANCELLED job's checkpoints are deleted before it is filed,
    a FAILED job's when it is evicted, and an emptied job directory with them."""

    def test_a_reused_id_after_done_runs_fresh(self, scan16, tmp_path):
        """A new job under a finished job's id must not resume from the old
        job's checkpoints, nor file the wrong image under its own cache key."""
        second = dict(seed=1, equits=5.0, stop_delta_hu=None)
        with ReconstructionService(
            n_workers=1, checkpoint_root=tmp_path / "ckpts", cache_dir=tmp_path / "cache"
        ) as svc:
            svc.submit(icd_spec(scan16, seed=0, equits=3.0, stop_delta_hu=None, job_id="x"))
            svc.result("x", timeout=120)
            svc.submit(icd_spec(scan16, job_id="x", **second))
            image_x = svc.result("x", timeout=120).image
            running = [e for e in svc.job("x").events if e.kind == "RUNNING"]
            svc.submit(icd_spec(scan16, job_id="y", **second))
            image_y = svc.result("y", timeout=120).image
        assert running[0].detail["resumed"] is False
        fresh = run_job(icd_spec(scan16, **second), checkpoint_dir=tmp_path / "fresh").image
        assert np.array_equal(image_x, fresh)
        assert np.array_equal(image_y, fresh)

    def test_a_drain_leaves_only_failed_jobs_checkpoints(self, scan16, tmp_path):
        """... and evicting every job then leaves the root empty."""
        root = tmp_path / "ckpts"
        with ReconstructionService(n_workers=1, max_restarts=0, checkpoint_root=root) as svc:
            svc.submit(icd_spec(scan16, equits=2.0, job_id="done"))
            svc.submit(
                icd_spec(scan16, equits=1e4, stop_delta_hu=None, job_id="cancelled"),
                on_progress=lambda e: e.kind == "checkpoint" and svc.cancel("cancelled"),
            )
            svc.submit(_killed_at_iteration_2(scan16, "failed"))
            group = submit_volume(svc, [scan16, scan16], params={"max_equits": 1.0},
                                  group_id="vol")
            assert svc.drain(timeout=120)
            states = {j: svc.job(j).state for j in ("done", "cancelled", "failed", group)}
            with pytest.raises(JobFailedError):
                svc.result("failed", timeout=0)
            kept = {p.parent.parent.name for p in root.rglob("ckpt-*")}
            job_dirs = {p.name for p in root.iterdir()}
            evicted = svc.evict_terminal(older_than_s=0)
            left = list(root.iterdir())
        assert states == {"done": JobState.DONE, "cancelled": JobState.CANCELLED,
                          "failed": JobState.FAILED, "vol": JobState.DONE}
        assert kept == {"failed"}
        assert job_dirs == {"failed"}  # no empty directory of a finished job
        assert len(evicted) == 6  # four jobs and the group's two children
        assert left == []

    def test_a_resubmission_racing_eviction_runs_fresh(self, scan16, tmp_path):
        """An evicted FAILED job's checkpoints are deleted under the registry
        lock: a resubmission of its id waits, then starts fresh, not from
        them, and keeps its own files."""
        with ReconstructionService(
            n_workers=1, max_restarts=0, checkpoint_root=tmp_path / "ckpts"
        ) as svc:
            svc.submit(_killed_at_iteration_2(scan16, "f"))
            assert svc.drain(timeout=120) and svc.job("f").state is JobState.FAILED
            assert any(svc.scheduler.checkpoint_dir_for("f").glob("ckpt-*"))
            resubmit = threading.Thread(
                target=svc.submit, args=(icd_spec(scan16, equits=2.0, job_id="f"),)
            )
            discard = svc.scheduler.discard_checkpoints

            def racing_discard(job_id):
                del svc.scheduler.discard_checkpoints  # race the eviction only
                resubmit.start()
                resubmit.join(timeout=0.5)
                assert resubmit.is_alive()  # waiting for the registry lock
                discard(job_id)

            svc.scheduler.discard_checkpoints = racing_discard
            assert svc.evict_terminal(older_than_s=0) == ["f"]
            resubmit.join(timeout=30)
            assert not resubmit.is_alive()
            image = svc.result("f", timeout=120).image
            running = [e for e in svc.job("f").events if e.kind == "RUNNING"]
        assert running[0].detail["resumed"] is False
        fresh = run_job(icd_spec(scan16, equits=2.0), checkpoint_dir=tmp_path / "fresh")
        assert np.array_equal(image, fresh.image)


class TestAReusedIdResumesOnlyItsOwnSpec:
    """A FAILED job keeps its checkpoints for a resubmission of its spec;
    a job of another spec under the id discards them and runs fresh."""

    def test_every_checkpoint_carries_the_job_cache_key(self, tmp_path):
        geometry = ParallelBeamGeometry(n_pixels=32, n_views=48, n_channels=64)
        scan = simulate_scan(shepp_logan(32), system_for(geometry), seed=1)
        spec = JobSpec(driver="multires", scan=scan,
                       params={"levels": [16, 32], "max_equits": 2.0, "track_cost": False})
        with ReconstructionService(n_workers=1, start=False) as svc:
            key = svc.job(svc.submit(spec)).cache_key
        run_job(spec, checkpoint_dir=tmp_path)
        metas = [CheckpointManager(tmp_path).load(p).meta for p in sorted(tmp_path.iterdir())]
        assert {m["multires_level"] for m in metas} == {0, 1}
        assert {m["cache_key"] for m in metas} == {key}

    def test_a_reused_id_after_failed_runs_fresh(self, scan16, tmp_path):
        """Job ``x`` is killed at iteration 3 and FAILED; a new ``x`` of
        another spec neither resumes from its checkpoints nor files a wrong
        image under its own cache key, which a later ``y`` is served."""
        second = dict(seed=1, equits=5.0, stop_delta_hu=None)
        with ReconstructionService(
            n_workers=1, max_restarts=0, checkpoint_root=tmp_path / "ckpts",
            cache_dir=tmp_path / "cache",
        ) as svc:
            svc.submit(JobSpec(driver="icd", scan=scan16, job_id="x",
                               params={"max_equits": 4.0, "seed": 0, "track_cost": False,
                                       "stop_delta_hu": None},
                               fault={"kill_at_iteration": 3}))
            assert svc.drain(timeout=120) and svc.job("x").state is JobState.FAILED
            assert any(svc.scheduler.checkpoint_dir_for("x").glob("ckpt-*"))
            svc.submit(icd_spec(scan16, job_id="x", **second))
            image_x = svc.result("x", timeout=120).image
            running = [e for e in svc.job("x").events if e.kind == "RUNNING"]
            svc.submit(icd_spec(scan16, job_id="y", **second))
            image_y = svc.result("y", timeout=120).image
            from_cache = svc.job("y").from_cache
            counters = dict(svc.rec.counters)
        assert running[0].detail["resumed"] is False
        assert counters["service.checkpoints_discarded"] == 1
        assert from_cache
        fresh = run_job(icd_spec(scan16, **second), checkpoint_dir=tmp_path / "fresh").image
        assert np.array_equal(image_x, fresh)
        assert np.array_equal(image_y, fresh)

    def test_a_reused_group_id_with_other_params_runs_fresh_children(self, scan16, tmp_path):
        """Child ``g-s000`` of group ``g`` fails on its result write and keeps
        its checkpoints; group ``g`` resubmitted with other params runs both
        children fresh."""
        root = tmp_path / "ckpts"
        params = {"max_equits": 3.0, "seed": 2, "track_cost": False}
        with ReconstructionService(n_workers=1, checkpoint_root=root) as svc:
            arm_disk_fault(root / "g-s000")  # the result write fails: FAILED
            submit_volume(svc, [scan16, scan16], params={**params, "seed": 0}, group_id="g")
            assert svc.drain(timeout=120)
            assert svc.job("g-s000").state is JobState.FAILED
            assert any(svc.scheduler.checkpoint_dir_for("g-s000").glob("ckpt-*"))
            disarm_disk_fault(root / "g-s000")
            submit_volume(svc, [scan16, scan16], params=params, group_id="g")
            stack = svc.result("g", timeout=120).image
            running = [e for e in svc.job("g-s000").events if e.kind == "RUNNING"]
            discarded = svc.rec.counters["service.checkpoints_discarded"]
        assert discarded == 1
        assert running[0].detail["resumed"] is False
        # Both slices are one scan: g-s001 is served g-s000's fresh image.
        fresh = run_job(icd_spec(scan16, **params, equits=3.0), checkpoint_dir=tmp_path / "f")
        for image in stack:
            assert np.array_equal(image, fresh.image)

    def test_a_queue_directory_spec_reusing_a_failed_id_runs_fresh(self, scan16, tmp_path):
        save_scan(tmp_path / "scan.npz", scan16)
        first = {"max_equits": 3.0, "seed": 0, "track_cost": False}
        second = {"max_equits": 4.0, "seed": 1, "track_cost": False}
        job_dir = tmp_path / "jobs" / "j"
        with DirectoryService(tmp_path, n_workers=1) as intake:
            arm_disk_fault(job_dir)  # the result write fails: FAILED
            write_job_spec(tmp_path, "j", driver="icd", scan_path="scan.npz", params=first)
            assert intake.run(drain=True, max_seconds=120)
            assert intake.service.job("j").state is JobState.FAILED
            assert any((job_dir / "checkpoints").glob("ckpt-*"))
            disarm_disk_fault(job_dir)
            write_job_spec(tmp_path, "j", driver="icd", scan_path="scan.npz", params=second)
            assert intake.run(drain=True, max_seconds=120)
            counters = dict(intake.service.rec.counters)
        assert read_status(tmp_path, "j")["state"] == "DONE"
        assert counters["service.checkpoints_discarded"] == 1
        image, _, _ = load_reconstruction(job_dir / "result.npz")
        fresh = run_job(JobSpec(driver="icd", scan=scan16, params=second),
                        checkpoint_dir=tmp_path / "fresh")
        assert np.array_equal(image, fresh.image)


def _killed_at_iteration_2(scan, job_id):
    """A job whose worker is SIGKILLed at iteration 2, after checkpointing:
    FAILED, with its checkpoints kept, under ``max_restarts=0``."""
    return JobSpec(driver="icd", scan=scan, job_id=job_id,
                   params={"max_equits": 4.0, "track_cost": False},
                   fault={"kill_at_iteration": 2})
