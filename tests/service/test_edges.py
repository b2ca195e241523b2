"""Service edge cases: cancel paths, queue-full rejection, failure capture."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.service import (
    AdmissionError,
    JobCancelledError,
    JobSpec,
    ReconstructionService,
)


def icd_spec(scan, *, seed=0, priority=0, equits=1.0):
    return JobSpec(
        driver="icd",
        scan=scan,
        params={"max_equits": equits, "seed": seed, "track_cost": False},
        priority=priority,
    )


class TestCancel:
    def test_cancel_while_running_stops_at_iteration_boundary(self, scan16):
        events = []
        with ReconstructionService(n_workers=1) as svc:
            # An effectively unbounded run: without the cancel it would spin
            # for 500 equits.
            job_id = svc.submit(
                icd_spec(scan16, equits=500.0),
                on_progress=lambda e: events.append(e),
            )
            deadline = time.monotonic() + 60
            while not events and time.monotonic() < deadline:
                time.sleep(0.005)
            assert events, "job produced no progress before the deadline"
            assert svc.cancel(job_id) is True
            with pytest.raises(JobCancelledError):
                svc.result(job_id, timeout=120)
            status = svc.status(job_id)
        assert status["state"] == "CANCELLED"
        assert 1 <= status["iteration"] < 500  # stopped long before equits ran out
        assert status["cancel_requested"] is True

    def test_cancel_pending_job_never_runs(self, scan16):
        with ReconstructionService(n_workers=1, start=False) as svc:
            job_id = svc.submit(icd_spec(scan16))
            assert svc.cancel(job_id) is True
            svc.start()
            with pytest.raises(JobCancelledError):
                svc.result(job_id, timeout=60)
            status = svc.status(job_id)
            assert status["state"] == "CANCELLED"
            assert status["iteration"] == 0  # no iteration ever ran
            counters = svc.report()["counters"]
            assert counters["service.jobs_cancelled"] == 1

    def test_cancel_finished_job_returns_false(self, scan16):
        with ReconstructionService(n_workers=1) as svc:
            job_id = svc.submit(icd_spec(scan16))
            svc.result(job_id, timeout=120)
            assert svc.cancel(job_id) is False


class TestAdmissionControl:
    def test_queue_full_rejects_submit_with_typed_error(self, scan16):
        with ReconstructionService(n_workers=1, max_queue_depth=2, start=False) as svc:
            svc.submit(icd_spec(scan16, seed=0))
            svc.submit(icd_spec(scan16, seed=1))
            with pytest.raises(AdmissionError):
                svc.submit(icd_spec(scan16, seed=2))
            # the rejected job was never registered
            assert len(svc.jobs) == 2
            svc.start()
            assert svc.drain(timeout=120)
            # backlog drained: admission is open again
            job_id = svc.submit(icd_spec(scan16, seed=2))
            svc.result(job_id, timeout=120)


def wrong_shape_spec(scan):
    """Params the job contract accepts and the driver rejects: the ``init``
    image does not match the 16² geometry."""
    return JobSpec(driver="icd", scan=scan,
                   params={"max_equits": 1.0, "init": np.zeros((3, 3))})


class TestFailure:
    def test_driver_error_marks_job_failed_with_message(self, scan16):
        from repro.service import JobFailedError

        with ReconstructionService(n_workers=1) as svc:
            job_id = svc.submit(wrong_shape_spec(scan16))
            with pytest.raises(JobFailedError):
                svc.result(job_id, timeout=60)
            status = svc.status(job_id)
            assert status["state"] == "FAILED"
            assert "init image shape" in status["error"]
            assert svc.report()["counters"]["service.jobs_failed"] == 1

    def test_failed_job_does_not_poison_the_service(self, scan16):
        with ReconstructionService(n_workers=1) as svc:
            svc.submit(wrong_shape_spec(scan16))
            good = svc.submit(icd_spec(scan16))
            assert svc.result(good, timeout=120).image.shape == (16, 16)

    def test_unknown_param_refused_at_submit(self, scan16):
        bad = JobSpec(driver="icd", scan=scan16, params={"no_such_kwarg": 1})
        with ReconstructionService(n_workers=1) as svc:
            with pytest.raises(ValueError, match="no_such_kwarg"):
                svc.submit(bad)
            assert svc.jobs == []


class TestSpecValidation:
    def test_unknown_driver_rejected_at_construction(self, scan16):
        with pytest.raises(ValueError):
            JobSpec(driver="warp", scan=scan16)

    def test_non_scan_rejected(self):
        with pytest.raises(TypeError):
            JobSpec(driver="icd", scan=object())
