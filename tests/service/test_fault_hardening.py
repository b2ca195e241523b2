"""Service fault-domain hardening (PR 9).

Three fault domains, each with its own recovery contract:

* **liveness** — a worker subprocess that goes *silent* (SIGSTOP, wedged)
  is detected within ``heartbeat_timeout_s``, SIGKILLed, and its job
  resumes from the newest checkpoint bit-identically; a job that outlives
  ``job_deadline_s`` is killed and fails typed at once;
* **disk faults** — every durable write honours the ``.disk-fault``
  sentinel; checkpoint writes degrade (retry, then one probe per save,
  recover) instead of failing an otherwise-healthy job; only the *result*
  write is terminal, and it fails typed with the errno;
* **verdict durability** — a worker whose pipe tore at the end persists
  its verdict to a file; the parent consumes it instead of re-running a
  finished job.

Fault injection is the ``.disk-fault`` sentinel file (root-proof: chmod is
a no-op for uid 0) plus the drivers' ``kill_at_iteration`` hook with an
optional signal override.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np
import pytest

from repro.core.convergence import RunHistory
from repro.ct import scaled_geometry, shepp_logan, simulate_scan
from repro.io import (
    DISK_FAULT_SENTINEL,
    arm_disk_fault,
    check_disk_fault,
    disarm_disk_fault,
    save_reconstruction,
    save_scan,
)
from repro.observability import MetricsRecorder
from repro.resilience import Checkpoint, CheckpointManager, FaultInjector, ResilienceHooks
from repro.service import (
    CachedResult,
    DirectoryService,
    JobFailedError,
    JobSpec,
    JobState,
    ReconstructionService,
    ResultCache,
    Scheduler,
    write_job_spec,
)
from repro.service import worker
from repro.service.faults import DegradingCheckpointManager, next_backoff
from repro.service.runner import job_key, run_job, system_for
from repro.service.worker import worker_result_path, worker_verdict_path


def icd_spec(scan, *, seed=0, equits=1.0, job_id=None, fault=None, **params):
    return JobSpec(
        driver="icd",
        scan=scan,
        params={"max_equits": equits, "seed": seed, "track_cost": False, **params},
        job_id=job_id,
        fault=fault,
    )


def multires_spec(scan):
    return JobSpec(
        driver="multires",
        scan=scan,
        params={"levels": [32, 64], "coarse_equits": 1.0, "max_equits": 2.0,
                "track_cost": False},
    )


@pytest.fixture(scope="module")
def scan64():
    """A 64^2 scan; its geometry allows a [32, 64] pyramid."""
    return simulate_scan(shepp_logan(64), system_for(scaled_geometry(64)), dose=1e5, seed=7)


def reference_image(scan, tmp_path, *, seed=0, equits=1.0):
    """Uninterrupted single-process reconstruction of the same spec."""
    result = run_job(
        icd_spec(scan, seed=seed, equits=equits),
        checkpoint_dir=tmp_path / "reference-ckpts",
    )
    return np.array(result.image, copy=True)


# ----------------------------------------------------------------------
# Backoff unit
# ----------------------------------------------------------------------
class TestBackoff:
    def test_backoff_stays_within_base_and_cap(self):
        import random

        rng = random.Random(0)
        delay = 0.05
        for _ in range(50):
            delay = next_backoff(delay, base_s=0.05, cap_s=1.0, rng=rng)
            assert 0.05 <= delay <= 1.0

    def test_backoff_is_decorrelated_not_fixed(self):
        import random

        rng = random.Random(7)
        delays = set()
        delay = 0.05
        for _ in range(20):
            delay = next_backoff(delay, base_s=0.05, cap_s=10.0, rng=rng)
            delays.add(round(delay, 6))
        # Jitter: successive delays spread out instead of repeating.
        assert len(delays) > 10

    def test_backoff_cap_below_base_clamps(self):
        assert next_backoff(5.0, base_s=1.0, cap_s=0.5) == 0.5


# ----------------------------------------------------------------------
# Sentinel-file fault injection + the degrading checkpoint manager
# ----------------------------------------------------------------------
class TestDiskFaultSentinel:
    def test_clean_directory_is_a_no_op(self, tmp_path):
        check_disk_fault(tmp_path)  # must not raise

    def test_armed_directory_raises_enospc_by_default(self, tmp_path):
        sentinel = arm_disk_fault(tmp_path)
        assert sentinel.name == DISK_FAULT_SENTINEL
        with pytest.raises(OSError) as exc_info:
            check_disk_fault(tmp_path)
        assert exc_info.value.errno == errno.ENOSPC
        disarm_disk_fault(tmp_path)
        check_disk_fault(tmp_path)

    def test_custom_errno_name(self, tmp_path):
        arm_disk_fault(tmp_path, errno_name="EIO")
        with pytest.raises(OSError) as exc_info:
            check_disk_fault(tmp_path)
        assert exc_info.value.errno == errno.EIO

    def test_disarm_is_idempotent(self, tmp_path):
        disarm_disk_fault(tmp_path / "never-armed")


class _FaultLog:
    """Duck-typed recorder capturing ``note_fault`` transitions."""

    def __init__(self):
        self.faults = []

    def note_fault(self, kind, **detail):
        self.faults.append((kind, detail))

    @property
    def kinds(self):
        return [kind for kind, _ in self.faults]


def _checkpoint(iteration=1):
    return Checkpoint(
        driver="icd",
        iteration=iteration,
        total_updates=10,
        x=np.zeros(4),
        e=np.zeros(4),
        rng_state={"state": 1},
        history=RunHistory(),
    )


class TestDegradingCheckpointManager:
    @pytest.fixture()
    def attempts(self, monkeypatch):
        """The iteration of every write attempt, as base-class saves."""
        calls = []
        save = CheckpointManager.save

        def counted(self, checkpoint):
            calls.append(checkpoint.iteration)
            return save(self, checkpoint)

        monkeypatch.setattr(CheckpointManager, "save", counted)
        return calls

    def test_healthy_save_returns_the_path(self, tmp_path, attempts):
        log = _FaultLog()
        manager = DegradingCheckpointManager(tmp_path / "ckpts", recorder=log)
        saved = manager.save(_checkpoint())
        assert saved == manager.path_for(1) and saved.exists()
        assert attempts == [1]
        assert not manager.degraded and log.faults == []

    def test_persistent_failure_retries_then_degrades(self, tmp_path, attempts):
        log = _FaultLog()
        manager = DegradingCheckpointManager(tmp_path / "ckpts", recorder=log)
        arm_disk_fault(manager.directory, errno_name="EIO")
        assert manager.save(_checkpoint()) is None
        assert attempts == [1, 1]  # both healthy attempts were spent
        assert manager.degraded
        assert log.kinds == ["CHECKPOINT_DEGRADED"]
        assert log.faults[0][1]["errno"] == errno.EIO
        assert [p.name for p in manager.directory.iterdir()] == [DISK_FAULT_SENTINEL]

    def test_degraded_saves_probe_once_each(self, tmp_path, attempts):
        log = _FaultLog()
        manager = DegradingCheckpointManager(tmp_path / "ckpts", recorder=log)
        arm_disk_fault(manager.directory)
        manager.save(_checkpoint(1))  # degrades
        attempts.clear()
        assert manager.save(_checkpoint(2)) is None
        assert manager.save(_checkpoint(3)) is None
        assert attempts == [2, 3]  # one probe per save, no retries
        assert log.kinds == ["CHECKPOINT_DEGRADED"]  # one event per transition
        disarm_disk_fault(manager.directory)
        saved = manager.save(_checkpoint(4))
        assert saved is not None and saved.exists()
        assert attempts == [2, 3, 4]
        assert not manager.degraded
        assert log.kinds == ["CHECKPOINT_DEGRADED", "CHECKPOINT_RECOVERED"]

    def test_a_transient_failure_retries_and_does_not_degrade(self, tmp_path, monkeypatch):
        log = _FaultLog()
        manager = DegradingCheckpointManager(tmp_path / "ckpts", recorder=log)
        save = CheckpointManager.save
        failures = [OSError(errno.EIO, "transient")]

        def flaky(self, checkpoint):
            if failures:
                raise failures.pop()
            return save(self, checkpoint)

        monkeypatch.setattr(CheckpointManager, "save", flaky)
        saved = manager.save(_checkpoint())
        assert saved is not None and saved.exists()
        assert not failures  # the first attempt failed, the retry landed
        assert not manager.degraded and log.faults == []

    def test_scoped_views_degrade_and_recover_as_one(self, tmp_path):
        log = _FaultLog()
        manager = DegradingCheckpointManager(tmp_path / "ckpts", recorder=log)
        coarse, fine = manager.scoped("L00-"), manager.scoped("L01-")
        arm_disk_fault(manager.directory)
        assert coarse.save(_checkpoint(1)) is None
        assert fine.save(_checkpoint(1)) is None
        assert fine.degraded and log.kinds == ["CHECKPOINT_DEGRADED"]
        disarm_disk_fault(manager.directory)
        assert fine.save(_checkpoint(2)) is not None
        assert not coarse.degraded
        assert log.kinds == ["CHECKPOINT_DEGRADED", "CHECKPOINT_RECOVERED"]

    def test_save_degrades_and_recovers(self, tmp_path, scan16):
        log = _FaultLog()
        manager = DegradingCheckpointManager(tmp_path / "ckpts", recorder=log)
        arm_disk_fault(manager.directory)
        assert manager.save(_checkpoint(1)) is None
        assert log.kinds == ["CHECKPOINT_DEGRADED"]
        assert log.faults[0][1]["errno"] == errno.ENOSPC
        # Fault clears: the next save probes, recovers, and persists.
        disarm_disk_fault(manager.directory)
        saved = manager.save(_checkpoint(2))
        assert saved is not None and saved.exists()
        assert log.kinds == ["CHECKPOINT_DEGRADED", "CHECKPOINT_RECOVERED"]

    def test_recorder_without_note_fault_gets_counters(self, tmp_path):
        rec = MetricsRecorder()
        manager = DegradingCheckpointManager(tmp_path / "ckpts", recorder=rec)
        arm_disk_fault(manager.directory)
        assert manager.save(_checkpoint()) is None
        assert rec.counters.get("checkpoint.degraded", 0) == 1


# ----------------------------------------------------------------------
# Every durable write honours the sentinel, each by its own policy
# ----------------------------------------------------------------------
_RESULT = CachedResult(image=np.full((4, 4), 2.0), history=None, metadata={})


@dataclass
class _Writer:
    """One durable write: the directory it writes into, the file it leaves."""

    directory: Path
    target: Path
    write: Callable[[], object]
    #: the caller's count of failed writes (the "count" policy)
    failures: Callable[[], int] = lambda: 0


@contextlib.contextmanager
def _checkpoint_writer(request):
    manager = DegradingCheckpointManager(request.getfixturevalue("tmp_path") / "ckpts")
    yield _Writer(manager.directory, manager.path_for(1), lambda: manager.save(_checkpoint()))


@contextlib.contextmanager
def _worker_result_writer(request):
    path = worker_result_path(request.getfixturevalue("tmp_path") / "job" / "checkpoints")
    spec = SimpleNamespace(job_id="j1", driver="icd")
    yield _Writer(path.parent, path, lambda: worker._save_result(path, _RESULT, spec))


@contextlib.contextmanager
def _cache_writer(request):
    cache = ResultCache(request.getfixturevalue("tmp_path") / "cache")
    yield _Writer(
        cache.directory,
        cache.directory / "key.npz",
        lambda: cache.put("key", _RESULT),
        lambda: cache.disk_write_failures,
    )


@contextlib.contextmanager
def _intake_status_writer(request):
    with DirectoryService(request.getfixturevalue("tmp_path") / "queue", n_workers=1) as intake:
        job_dir = intake.jobs_dir / "j1"
        yield _Writer(
            job_dir,
            job_dir / "status.json",
            lambda: intake._write_status("j1", {"job_id": "j1", "state": "DONE"}),
            lambda: intake.status_write_failures,
        )


@contextlib.contextmanager
def _intake_result_writer(request):
    # A DONE job without a worker: the supervised run is faked.
    request.getfixturevalue("monkeypatch").setattr(
        Scheduler, "_supervise", lambda self, job, ckpt_dir: _RESULT
    )
    queue = request.getfixturevalue("tmp_path") / "queue"
    save_scan(queue / "scan.npz", request.getfixturevalue("scan16"))
    write_job_spec(queue, "j1", driver="icd", scan_path="scan.npz")
    with DirectoryService(queue, n_workers=1) as intake:
        intake.poll_incoming()
        assert intake.service.drain(timeout=60)
        job_dir = intake.jobs_dir / "j1"
        yield _Writer(
            job_dir, job_dir / "result.npz", intake.publish, lambda: intake.result_write_failures
        )


@contextlib.contextmanager
def _job_spec_writer(request):
    queue = request.getfixturevalue("tmp_path") / "queue"
    yield _Writer(
        queue / "incoming",
        queue / "incoming" / "j1.json",
        lambda: write_job_spec(queue, "j1", driver="icd", scan_path="scan.npz"),
    )


@contextlib.contextmanager
def _verdict_writer(request):
    ckpt_dir = request.getfixturevalue("tmp_path") / "job" / "checkpoints"
    yield _Writer(
        ckpt_dir.parent,
        worker_verdict_path(ckpt_dir),
        lambda: worker._persist_verdict(str(ckpt_dir), "done", {}, "key"),
    )


#: Each durable writer and what an armed sentinel does to its write: the
#: error propagates ("raise"), the caller counts it ("count"), or it is
#: dropped ("suppress").
_DURABLE_WRITERS = {
    "checkpoint": ("suppress", _checkpoint_writer),
    "worker-result": ("raise", _worker_result_writer),
    "cache-put": ("count", _cache_writer),
    "intake-status": ("count", _intake_status_writer),
    "intake-result": ("count", _intake_result_writer),
    "job-spec": ("raise", _job_spec_writer),
    "verdict": ("suppress", _verdict_writer),
}


@pytest.mark.parametrize("name", list(_DURABLE_WRITERS))
def test_every_durable_write_honours_the_disk_fault_sentinel(name, request):
    policy, make_writer = _DURABLE_WRITERS[name]
    with make_writer(request) as writer:
        arm_disk_fault(writer.directory)
        if policy == "raise":
            with pytest.raises(OSError) as exc_info:
                writer.write()
            assert exc_info.value.errno == errno.ENOSPC
        else:
            writer.write()
        assert not writer.target.exists()
        assert writer.failures() == (1 if policy == "count" else 0)
        assert not [p.name for p in writer.directory.iterdir() if ".tmp-" in p.name]
        disarm_disk_fault(writer.directory)
        writer.write()
        assert writer.target.exists()


# ----------------------------------------------------------------------
# Service-level disk-fault degradation (the ENOSPC acceptance drill)
# ----------------------------------------------------------------------
class TestServiceCheckpointDegradation:
    def test_enospc_mid_job_degrades_then_recovers(self, tmp_path, scan16, monkeypatch):
        """ENOSPC on the checkpoint dir mid-job: the job still completes
        (bit-identically), the degradation is observable, and checkpointing
        resumes once the fault clears."""
        job_id = "enospc-drill"
        ckpt_root = tmp_path / "ckpts"
        ckpt_dir = ckpt_root / job_id / "checkpoints"
        arm_disk_fault(ckpt_dir)

        # The fault clears inside the worker (which inherits this patch by
        # fork) just before the iteration-2 checkpoint save, so the
        # iteration-1 save degrades and the iteration-2 save recovers.  A
        # disarm relayed back through ``on_progress`` races the worker: a
        # compiled-kernel job can finish all three iterations before it lands.
        after_iteration = ResilienceHooks.after_iteration

        def disarm_from_iteration_2(self, *, iteration, **kwargs):
            if iteration >= 2:
                disarm_disk_fault(ckpt_dir)
            return after_iteration(self, iteration=iteration, **kwargs)

        monkeypatch.setattr(ResilienceHooks, "after_iteration", disarm_from_iteration_2)
        with ReconstructionService(n_workers=1, checkpoint_root=ckpt_root) as svc:
            svc.submit(icd_spec(scan16, equits=3.0, job_id=job_id))
            result = svc.result(job_id, timeout=120)
            job = svc.job(job_id)
            counters = dict(svc.rec.counters)
            health = svc.health()

        assert job.state is JobState.DONE
        kinds = [e.kind for e in job.events]
        assert "CHECKPOINT_DEGRADED" in kinds
        assert "CHECKPOINT_RECOVERED" in kinds
        assert counters["service.checkpoint_writes_failed"] >= 1
        # Recovery means real snapshots landed after the fault cleared (the
        # files themselves leave with the DONE job).
        recovered = kinds.index("CHECKPOINT_RECOVERED")
        assert "CHECKPOINTED" in kinds[recovered:]
        # A finished job no longer degrades health.
        assert health["status"] == "ok"
        assert np.array_equal(
            np.asarray(result.image),
            reference_image(scan16, tmp_path, equits=3.0),
        )

    def test_degraded_event_carries_errno(self, tmp_path, scan16):
        job_id = "enospc-errno"
        ckpt_root = tmp_path / "ckpts"
        ckpt_dir = ckpt_root / job_id / "checkpoints"
        arm_disk_fault(ckpt_dir)

        def on_progress(event):
            if event.kind == "iteration" and event.iteration >= 2:
                disarm_disk_fault(ckpt_dir)

        with ReconstructionService(n_workers=1, checkpoint_root=ckpt_root) as svc:
            svc.submit(
                icd_spec(scan16, equits=3.0, job_id=job_id), on_progress=on_progress
            )
            svc.result(job_id, timeout=120)
            degraded = [
                e for e in svc.job(job_id).events if e.kind == "CHECKPOINT_DEGRADED"
            ]
        assert degraded and degraded[0].detail["errno"] == errno.ENOSPC

    def test_multires_levels_checkpoint_through_the_job_manager(self, tmp_path, scan64):
        """Every pyramid level saves through the job's degrading manager:
        a disk fault suppresses the level checkpoints and is reported once,
        as for a single-level job."""
        ckpt_dir = tmp_path / "job" / "checkpoints"
        arm_disk_fault(ckpt_dir)
        rec = MetricsRecorder()
        result = run_job(multires_spec(scan64), checkpoint_dir=ckpt_dir, metrics=rec)
        assert result.history.stop_reason is not None
        assert rec.counters.get("checkpoint.degraded", 0) == 1
        assert rec.counters.get("checkpoint.saves_suppressed", 0) >= 2
        assert not list(ckpt_dir.glob("ckpt-*.ckpt"))


# ----------------------------------------------------------------------
# Heartbeat supervision (the SIGSTOP regression) + deadlines
# ----------------------------------------------------------------------
class TestHeartbeatSupervision:
    def test_sigstopped_worker_is_killed_and_job_resumes(self, tmp_path, scan16):
        """The PR-9 tentpole regression: without heartbeat supervision a
        SIGSTOPped worker parks the job forever (this test hangs pre-fix);
        with it, the silent worker is killed within ``heartbeat_timeout_s``
        and the job resumes from its newest checkpoint bit-identically."""
        import signal

        with ReconstructionService(n_workers=1, heartbeat_timeout_s=1.0) as svc:
            job_id = svc.submit(
                icd_spec(
                    scan16,
                    equits=3.0,
                    fault={"kill_at_iteration": 2, "signal": int(signal.SIGSTOP)},
                )
            )
            result = svc.result(job_id, timeout=120)
            job = svc.job(job_id)
            counters = dict(svc.rec.counters)
        assert job.state is JobState.DONE
        hung = [e for e in job.events if e.kind == "WORKER_HUNG"]
        assert hung, [e.kind for e in job.events]
        assert hung[0].detail["reason"] == "heartbeat_timeout"
        assert counters["service.workers_hung"] == 1
        # No crash was recorded — the kill was the supervisor's, and it is
        # tallied separately so operators can tune the timeout.
        assert counters.get("service.worker_crashes", 0) == 0
        assert np.array_equal(
            np.asarray(result.image),
            reference_image(scan16, tmp_path, equits=3.0),
        )

    def test_healthy_worker_under_supervision_is_not_killed(self, scan16):
        """No false positives: a normally-beating worker finishes clean."""
        with ReconstructionService(n_workers=1, heartbeat_timeout_s=0.5) as svc:
            job_id = svc.submit(icd_spec(scan16, equits=2.0))
            svc.result(job_id, timeout=120)
            job = svc.job(job_id)
            counters = dict(svc.rec.counters)
        assert job.state is JobState.DONE
        assert not any(e.kind == "WORKER_HUNG" for e in job.events)
        assert counters.get("service.workers_hung", 0) == 0

    def test_supervision_knobs_validate(self):
        with pytest.raises(ValueError, match="heartbeat_timeout_s"):
            ReconstructionService(heartbeat_timeout_s=0.0, start=False)
        with pytest.raises(ValueError, match="job_deadline_s"):
            ReconstructionService(job_deadline_s=-1.0, start=False)


_ORPHAN_SERVER = """\
import sys, time
from repro.io import load_scan
from repro.service import JobSpec, ReconstructionService
svc = ReconstructionService(
    n_workers=1, heartbeat_timeout_s=1.0, checkpoint_root=sys.argv[2]
)
svc.submit(JobSpec(
    driver="icd", scan=load_scan(sys.argv[1]), job_id="orphan",
    params={"max_equits": 1e5, "seed": 0, "track_cost": False,
            "stop_delta_hu": None},
))
time.sleep(600)
"""


def _exited(pid: int) -> bool:
    """Whether ``pid`` is gone or a zombie (exited, not yet reaped)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


class TestOrphanedWorker:
    @pytest.mark.skipif(sys.platform != "linux", reason="finds the worker via /proc")
    def test_worker_stops_when_its_server_dies(self, tmp_path, scan32):
        """SIGKILL only the server: its worker must stop computing and exit,
        with no verdict file, instead of checkpointing on until its relay
        pipe fills and the send blocks forever."""
        save_scan(tmp_path / "scan.npz", scan32)
        ckpt_dir = tmp_path / "ckpts" / "orphan" / "checkpoints"
        server = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_SERVER,
             str(tmp_path / "scan.npz"), str(tmp_path / "ckpts")],
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src")},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 120
            while not any(ckpt_dir.glob("ckpt-*.ckpt")):
                assert server.poll() is None, "server exited before the first checkpoint"
                assert time.monotonic() < deadline, "no checkpoint within 120 s"
                time.sleep(0.02)
            tasks = Path(f"/proc/{server.pid}/task").iterdir()
            (worker_pid,) = {
                int(pid)
                for task in tasks
                for pid in (task / "children").read_text().split()
            }
            os.kill(server.pid, signal.SIGKILL)
            server.wait()

            deadline = time.monotonic() + 10
            while not _exited(worker_pid):
                assert time.monotonic() < deadline, "orphaned worker still running"
                time.sleep(0.05)
            snapshots = sorted(ckpt_dir.glob("ckpt-*.ckpt"))
            time.sleep(0.5)
            assert sorted(ckpt_dir.glob("ckpt-*.ckpt")) == snapshots
            assert not worker_verdict_path(ckpt_dir).exists()
        finally:
            try:
                os.killpg(server.pid, signal.SIGKILL)
            except ProcessLookupError:  # the whole group already exited
                pass
            server.wait()


class TestJobDeadline:
    def test_process_job_over_deadline_is_killed_and_fails(self, scan16):
        """The deadline kill fails the job at once: no respawn (a new life
        would start past the deadline), one WORKER_HUNG event, and no
        ``workers_hung`` count or degraded health — nothing hung."""
        with ReconstructionService(n_workers=1, job_deadline_s=0.3) as svc:
            # Opted out of the default stop rule, which would end the job
            # long before its deadline.
            job_id = svc.submit(icd_spec(scan16, equits=5000.0, stop_delta_hu=None))
            with pytest.raises(JobFailedError, match="deadline"):
                svc.result(job_id, timeout=120)
            job = svc.job(job_id)
            counters = dict(svc.rec.counters)
            health = svc.health()
        assert job.state is JobState.FAILED
        hung = [e for e in job.events if e.kind == "WORKER_HUNG"]
        assert len(hung) == 1
        assert hung[0].detail["reason"] == "deadline"
        assert "service.workers_hung" not in counters
        assert health["status"] == "ok"


# ----------------------------------------------------------------------
# Terminal result-persist faults
# ----------------------------------------------------------------------
class TestResultPersistFault:
    def test_unwritable_result_dir_fails_typed(self, tmp_path, scan16):
        """Checkpoint faults degrade; a result fault is the one terminal
        disk failure — FAILED with the errno, after the worker's retries."""
        job_id = "result-fault"
        ckpt_root = tmp_path / "ckpts"
        # The sentinel lives in the job dir (the result container's home),
        # NOT the checkpoints/ subdir — checkpointing stays healthy.
        arm_disk_fault(ckpt_root / job_id)
        with ReconstructionService(n_workers=1, checkpoint_root=ckpt_root) as svc:
            svc.submit(icd_spec(scan16, job_id=job_id))
            with pytest.raises(JobFailedError, match="ResultPersistError"):
                svc.result(job_id, timeout=120)
            job = svc.job(job_id)
            counters = dict(svc.rec.counters)
        assert job.state is JobState.FAILED
        assert f"errno={errno.ENOSPC}" in job.error
        # A typed failure verdict, not a crash: no restart was burned.
        assert counters.get("service.worker_crashes", 0) == 0


# ----------------------------------------------------------------------
# Verdict-file durability (pipe-loss fallback)
# ----------------------------------------------------------------------
class TestVerdictFile:
    def _scheduler(self, tmp_path):
        svc = ReconstructionService(n_workers=1, checkpoint_root=tmp_path, start=False)
        return svc, svc.scheduler

    def test_consume_round_trip_deletes_and_counts(self, tmp_path):
        svc, sched = self._scheduler(tmp_path)
        job = SimpleNamespace(cache_key="k1")
        with svc:
            ckpt_dir = sched.checkpoint_dir_for("j1")
            path = worker_verdict_path(ckpt_dir)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps({"kind": "done", "payload": {"a": 1}, "cache_key": "k1"}))
            assert sched._consume_verdict(job, ckpt_dir) == ("done", {"a": 1})
            assert not path.exists()
            assert svc.rec.counters["service.worker_verdict_files"] == 1
            assert sched._consume_verdict(job, ckpt_dir) is None

    def test_corrupt_verdict_is_dropped_and_deleted(self, tmp_path):
        svc, sched = self._scheduler(tmp_path)
        with svc:
            ckpt_dir = sched.checkpoint_dir_for("j2")
            path = worker_verdict_path(ckpt_dir)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("{not json")
            assert sched._consume_verdict(SimpleNamespace(cache_key="k2"), ckpt_dir) is None
            assert not path.exists()  # a torn file must not wedge respawns

    @pytest.mark.parametrize("text", [
        json.dumps({"kind": "done", "payload": {}}),
        json.dumps({"kind": "done", "payload": {}, "cache_key": "another spec"}),
    ], ids=["unkeyed", "other-key"])
    def test_a_verdict_not_of_the_job_is_dropped_with_its_result(self, tmp_path, text):
        svc, sched = self._scheduler(tmp_path)
        with svc:
            ckpt_dir = sched.checkpoint_dir_for("j2")
            path = worker_verdict_path(ckpt_dir)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            save_reconstruction(worker_result_path(ckpt_dir), np.zeros((4, 4)), None)
            assert sched._consume_verdict(SimpleNamespace(cache_key="k2"), ckpt_dir) is None
            assert not path.exists()
            assert not worker_result_path(ckpt_dir).exists()
            assert "service.worker_verdict_files" not in svc.rec.counters

    def test_preseeded_done_verdict_skips_the_run(self, tmp_path, scan16):
        """A finished-but-pipe-lost life's verdict file makes the next
        spawn loop load the persisted result instead of re-running."""
        job_id = "verdict-done"
        ckpt_root = tmp_path / "ckpts"
        job_dir = ckpt_root / job_id
        job_dir.mkdir(parents=True)
        image = np.full((16, 16), 7.0)
        save_reconstruction(
            worker_result_path(job_dir / "checkpoints"), image, None, metadata={}
        )
        worker_verdict_path(job_dir / "checkpoints").write_text(
            json.dumps({"kind": "done", "payload": {},
                        "cache_key": job_key(icd_spec(scan16))})
        )
        with ReconstructionService(n_workers=1, checkpoint_root=ckpt_root) as svc:
            svc.submit(icd_spec(scan16, job_id=job_id))
            result = svc.result(job_id, timeout=120)
            job = svc.job(job_id)
            counters = dict(svc.rec.counters)
        assert job.state is JobState.DONE
        assert np.array_equal(np.asarray(result.image), image)
        assert counters["service.worker_verdict_files"] == 1
        assert job.iteration == 0  # nothing actually ran
        # The parent loaded the worker's result container and removed it.
        assert not worker_result_path(job_dir / "checkpoints").exists()

    def test_a_lost_pipe_delivers_the_verdict_through_the_file(
        self, tmp_path, scan16, monkeypatch
    ):
        """The worker stamps its job's cache key into the verdict file, so
        the parent consumes it instead of counting a crash."""
        send = worker._RelayRecorder.send
        monkeypatch.setattr(  # the forked worker inherits the torn pipe
            worker._RelayRecorder, "send",
            lambda self, message, **kw: message[0] != "done" and send(self, message, **kw),
        )
        with ReconstructionService(n_workers=1, checkpoint_root=tmp_path / "ckpts") as svc:
            result = svc.result(svc.submit(icd_spec(scan16)), timeout=120)
            counters = dict(svc.rec.counters)
        assert counters["service.worker_verdict_files"] == 1
        assert "service.worker_crashes" not in counters
        assert np.array_equal(np.asarray(result.image), reference_image(scan16, tmp_path))

    def test_a_verdict_of_another_spec_does_not_become_the_result(self, tmp_path, scan16):
        """A verdict left under a reused id by a job of another spec is
        dropped with its result container: the new job runs, and neither
        its image nor its cache entry is the seeded one."""
        job_id = "verdict-other"
        ckpt_dir = tmp_path / "ckpts" / job_id / "checkpoints"
        ckpt_dir.parent.mkdir(parents=True)
        save_reconstruction(worker_result_path(ckpt_dir), np.full((16, 16), 7.0), None)
        worker_verdict_path(ckpt_dir).write_text(
            json.dumps({"kind": "done", "payload": {},
                        "cache_key": job_key(icd_spec(scan16, seed=5))})
        )
        with ReconstructionService(n_workers=1, checkpoint_root=tmp_path / "ckpts") as svc:
            svc.submit(icd_spec(scan16, job_id=job_id))
            result = svc.result(job_id, timeout=120)
            job = svc.job(job_id)
            cached = svc.cache.get(job.cache_key)
        assert job.iteration >= 1
        reference = reference_image(scan16, tmp_path)
        assert np.array_equal(np.asarray(result.image), reference)
        assert np.array_equal(cached.image, reference)
        assert not worker_verdict_path(ckpt_dir).exists()


# ----------------------------------------------------------------------
# Corrupt-checkpoint resume at the service level (satellite 3)
# ----------------------------------------------------------------------
class TestCorruptCheckpointResume:
    def test_truncated_newest_checkpoint_falls_back_bit_identical(
        self, tmp_path, scan16
    ):
        """Kill a worker, truncate its newest snapshot, restart the
        service: the job resumes from the next-newest checkpoint and still
        finishes bit-identically to an uninterrupted run."""
        job_id = "corrupt-resume"
        ckpt_root = tmp_path / "ckpts"
        ckpt_dir = ckpt_root / job_id / "checkpoints"

        # Life 1: SIGKILL at iteration 3 with no restart budget — the job
        # fails, leaving checkpoints for iterations 1 and 2 behind.
        with ReconstructionService(
            n_workers=1,
            max_restarts=0,
            checkpoint_root=ckpt_root,
        ) as svc:
            svc.submit(
                icd_spec(
                    scan16, equits=4.0, job_id=job_id, fault={"kill_at_iteration": 3}
                )
            )
            with pytest.raises(JobFailedError, match="worker process died"):
                svc.result(job_id, timeout=120)
        snapshots = sorted(ckpt_dir.glob("ckpt-*.ckpt"))
        assert len(snapshots) >= 2

        # The newest snapshot is torn (disk-level trouble mid-crash).
        FaultInjector.truncate_file(snapshots[-1])

        # Life 2: fresh service, same checkpoint root, clean resubmission.
        with ReconstructionService(n_workers=1, checkpoint_root=ckpt_root) as svc:
            svc.submit(icd_spec(scan16, equits=4.0, job_id=job_id))
            result = svc.result(job_id, timeout=120)
            job = svc.job(job_id)

        assert job.state is JobState.DONE
        # Resumed from the *next-newest* snapshot (iteration 1), so the
        # first checkpoint this life records is iteration 2 — not 1 (a
        # fresh start) and not 3 (the torn snapshot trusted blindly).
        checkpointed = [
            e.detail["iteration"] for e in job.events if e.kind == "CHECKPOINTED"
        ]
        assert checkpointed and min(checkpointed) == 2
        assert np.array_equal(
            np.asarray(result.image),
            reference_image(scan16, tmp_path, equits=4.0),
        )
