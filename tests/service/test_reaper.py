"""JobReaper / TTL eviction: long-lived registries stay bounded (PR 8).

Driven deterministically: the service gets an injected clock and the tests
call ``reap_once()`` directly instead of sleeping against the sweep thread.
"""

from __future__ import annotations

import pytest

from repro.service import (
    EvictedJobError,
    JobReaper,
    JobSpec,
    JobState,
    ReconstructionService,
    UnknownJobError,
)


def icd_spec(scan, *, seed=0, job_id=None):
    return JobSpec(
        driver="icd",
        scan=scan,
        params={"max_equits": 1.0, "seed": seed, "track_cost": False},
        job_id=job_id,
    )


class FakeClock:
    def __init__(self, t=1000.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


@pytest.fixture()
def svc_and_clock():
    clock = FakeClock()
    svc = ReconstructionService(
        n_workers=1, job_ttl_s=10.0, start=False, clock=clock
    )
    yield svc, clock
    svc.close()


class TestEviction:
    def test_terminal_job_evicted_after_ttl(self, scan16, svc_and_clock):
        svc, clock = svc_and_clock
        svc.start()
        job_id = svc.submit(icd_spec(scan16))
        svc.result(job_id, timeout=120)
        svc.scheduler.stop(wait=True)

        clock.advance(9.0)
        assert svc.reaper.reap_once() == []  # not old enough yet
        clock.advance(2.0)
        assert svc.reaper.reap_once() == [job_id]

        with pytest.raises(EvictedJobError):
            svc.status(job_id)
        with pytest.raises(EvictedJobError):
            svc.result(job_id)
        with pytest.raises(EvictedJobError):
            svc.cancel(job_id)
        assert svc.tombstone_count == 1
        counters = svc.report()["counters"]
        assert counters["service.jobs_evicted"] == 1
        assert counters["service.tombstones"] == 1
        assert counters["service.jobs_known"] == 0

    def test_evicted_is_distinguishable_from_never_seen(self, scan16, svc_and_clock):
        svc, clock = svc_and_clock
        svc.start()
        job_id = svc.submit(icd_spec(scan16))
        svc.result(job_id, timeout=120)
        clock.advance(11.0)
        svc.reaper.reap_once()

        # EvictedJobError subclasses UnknownJobError, so code that only
        # handles "unknown" keeps working; never-seen ids raise the plain
        # base class.
        with pytest.raises(EvictedJobError):
            svc.job(job_id)
        with pytest.raises(UnknownJobError) as exc_info:
            svc.job("never-seen")
        assert not isinstance(exc_info.value, EvictedJobError)

    def test_never_evicts_non_terminal_jobs(self, scan16, svc_and_clock):
        svc, clock = svc_and_clock
        # Workers parked: the job stays PENDING no matter how old.
        job_id = svc.submit(icd_spec(scan16))
        clock.advance(1e6)
        assert svc.reaper.reap_once() == []
        assert svc.job(job_id).state is JobState.PENDING

    def test_ttl_none_disables_eviction(self, scan16):
        clock = FakeClock()
        with ReconstructionService(n_workers=1, clock=clock) as svc:
            job_id = svc.submit(icd_spec(scan16))
            svc.result(job_id, timeout=120)
            clock.advance(1e6)
            assert not svc.reaper.enabled
            assert not svc.reaper.running
            assert svc.reaper.reap_once() == []
            assert svc.job(job_id).state is JobState.DONE

    def test_resubmitted_id_supersedes_tombstone(self, scan16, svc_and_clock):
        svc, clock = svc_and_clock
        svc.start()
        job_id = svc.submit(icd_spec(scan16, job_id="stable"))
        svc.result(job_id, timeout=120)
        clock.advance(11.0)
        assert svc.reaper.reap_once() == ["stable"]
        assert svc.tombstone_count == 1

        # Resubmitting the evicted id must register a fresh job and clear
        # the tombstone (stable-id crash recovery owns the id again; its
        # surviving checkpoints make the rerun resume, not dedup).
        again = svc.submit(icd_spec(scan16, job_id="stable"))
        assert again == "stable"
        assert svc.tombstone_count == 0
        svc.result(again, timeout=120)
        assert svc.job("stable").state is JobState.DONE

    def test_reaper_thread_lifecycle(self, scan16):
        with ReconstructionService(n_workers=1, job_ttl_s=0.05) as svc:
            assert svc.reaper.enabled
            assert svc.reaper.running
            job_id = svc.submit(icd_spec(scan16))
            svc.result(job_id, timeout=120)
            # The sweep thread evicts it without any manual reap.
            job = svc.job  # bound method; loop until the id is gone
            deadline = 120
            import time as _time

            end = _time.monotonic() + deadline
            while _time.monotonic() < end:
                try:
                    job(job_id)
                except EvictedJobError:
                    break
                _time.sleep(0.02)
            else:
                pytest.fail("reaper thread never evicted the finished job")
        assert not svc.reaper.running  # close() stopped it

    def test_negative_ttl_rejected(self):
        with pytest.raises(ValueError, match="job_ttl_s"):
            JobReaper(service=None, job_ttl_s=-1.0)

    def test_tombstone_book_is_bounded(self, scan16, svc_and_clock, monkeypatch):
        import repro.service.service as service_mod

        svc, clock = svc_and_clock
        monkeypatch.setattr(service_mod, "_MAX_TOMBSTONES", 5)
        svc.start()
        ids = [svc.submit(icd_spec(scan16, job_id=f"job-{i}")) for i in range(8)]
        for job_id in ids:
            svc.result(job_id, timeout=120)
        clock.advance(11.0)
        evicted = svc.reaper.reap_once()
        assert sorted(evicted) == sorted(ids)
        assert svc.tombstone_count == 5  # oldest tombstones dropped first


class TestRegistryBound:
    def test_registry_holds_exactly_the_live_and_recent_jobs(self, scan16, svc_and_clock):
        """After every reap, wave after wave, the registry holds the jobs that
        are unfinished or finished less than a TTL ago, and nothing else."""
        svc, clock = svc_and_clock
        ttl, jobs, parked = svc.reaper.job_ttl_s, {}, []

        def reap_and_check():
            svc.reaper.reap_once()
            now = clock()
            live = {i for i, job in jobs.items() if not job.terminal or now - job.finished_at < ttl}
            assert {job.job_id for job in svc.jobs} == live

        for wave in range(3):
            svc.scheduler.start()
            ids = [svc.submit(icd_spec(scan16, seed=10 * wave + i)) for i in range(3)]
            for job_id in parked + ids:
                svc.result(job_id, timeout=120)
            svc.scheduler.stop(wait=True)
            # PENDING until the next wave starts the workers again.
            parked = [svc.submit(icd_spec(scan16, seed=10 * wave + 9))]
            jobs.update((job_id, svc.job(job_id)) for job_id in ids + parked)
            for dt in (ttl / 2, ttl / 2 + 0.01):  # the wave finished under, then over, a TTL ago
                clock.advance(dt)
                reap_and_check()

        svc.scheduler.start()
        svc.result(parked[0], timeout=120)
        clock.advance(ttl + 0.01)
        reap_and_check()
        counters = svc.report()["counters"]
        assert svc.jobs == [] and len(jobs) == 12
        assert counters["service.jobs_evicted"] == counters["service.tombstones"] == 12
