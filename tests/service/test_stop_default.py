"""The service's default stopping rule: one default, keyed, replayed on resume.

* ``run_job`` runs a spec without ``stop_delta_hu`` under
  :data:`DEFAULT_STOP_DELTA_HU`; ``None`` turns the rule off.
* The resolved value is part of the result-cache key: an omitted
  ``stop_delta_hu`` and an explicit default share a key, ``None`` does not.
* With the default on, a SIGKILLed process worker resumes bit-identically
  to an uninterrupted run, and a worker restarted after the stopping
  iteration's checkpoint (before the result landed) stops there again.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.service import JobSpec, JobState, ReconstructionService
from repro.service.runner import DEFAULT_STOP_DELTA_HU, job_params, run_job

BUDGET = 30.0


def icd_spec(scan, *, fault=None, job_id=None, **params):
    return JobSpec(
        driver="icd",
        scan=scan,
        params={"max_equits": BUDGET, "seed": 7, **params},
        job_id=job_id,
        fault=fault,
    )


class TestDefault:
    def test_omitted_key_runs_the_default(self, scan32, tmp_path):
        result = run_job(icd_spec(scan32), checkpoint_dir=tmp_path / "a")
        explicit = run_job(
            icd_spec(scan32, stop_delta_hu=DEFAULT_STOP_DELTA_HU),
            checkpoint_dir=tmp_path / "b",
        )
        assert result.history.stop_reason == "converged"
        assert result.history.equits < BUDGET
        assert result.history.records == explicit.history.records
        assert np.array_equal(result.image, explicit.image)

    def test_none_turns_the_rule_off(self, scan16, tmp_path):
        result = run_job(
            icd_spec(scan16, stop_delta_hu=None, max_equits=12.0), checkpoint_dir=tmp_path
        )
        assert result.history.stop_reason == "budget"
        assert result.history.equits >= 12.0
        assert {r.delta_hu for r in result.history.records} == {None}


class TestCacheKey:
    def test_defaults_fold_the_resolved_value(self):
        assert job_params("icd", {}) == {"stop_delta_hu": DEFAULT_STOP_DELTA_HU}
        assert job_params("icd", {"stop_delta_hu": None}) == {"stop_delta_hu": None}
        assert job_params("multires", {})["stop_delta_hu"] == DEFAULT_STOP_DELTA_HU

    def test_omitted_and_explicit_share_a_key_and_null_does_not(self, scan16):
        with ReconstructionService(n_workers=1, start=False) as svc:
            keys = [
                svc.job(svc.submit(spec)).cache_key
                for spec in (
                    icd_spec(scan16),
                    icd_spec(scan16, stop_delta_hu=DEFAULT_STOP_DELTA_HU),
                    icd_spec(scan16, stop_delta_hu=None),
                )
            ]
        assert keys[0] == keys[1]
        assert keys[2] != keys[0]


class TestKillDrill:
    def test_sigkilled_worker_resumes_bit_identical_with_default_on(self, scan32, tmp_path):
        with ReconstructionService(n_workers=1) as svc:
            job_id = svc.submit(icd_spec(scan32, fault={"kill_at_iteration": 3}))
            result = svc.result(job_id, timeout=240)
            job = svc.job(job_id)
            assert [e.kind for e in job.events].count("WORKER_CRASHED") == 1
            assert job.state is JobState.DONE
            assert job.snapshot()["stop_reason"] == "converged"
            counters = dict(svc.rec.counters)
        assert counters["service.stop_reason.converged"] == 1

        reference = run_job(icd_spec(scan32), checkpoint_dir=tmp_path / "reference-ckpts")
        assert np.array_equal(result.image, reference.image)
        assert result.history.records == reference.history.records
        assert result.history.stop_reason == reference.history.stop_reason == "converged"

    # psv_icd/gpu_icd resume from the stopping checkpoint is pinned at the
    # driver level in tests/core/test_stop_rule.py.
    @pytest.mark.parametrize("driver", ["icd", "multires"])
    def test_restart_after_the_stopping_checkpoint_stops_there(self, driver, scan32, tmp_path):
        """A worker restarted before the result landed resumes from the
        stopping iteration's checkpoint and must not run another one."""
        spec = JobSpec(
            driver=driver,
            scan=scan32,
            params={"max_equits": BUDGET, "seed": 7},
        )
        first = run_job(spec, checkpoint_dir=tmp_path)
        again = run_job(spec, checkpoint_dir=tmp_path)
        assert first.history.stop_reason == "converged"
        assert again.history.records == first.history.records
        assert again.history.stop_reason == "converged"
        assert np.array_equal(again.image, first.image)
