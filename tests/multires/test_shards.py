"""Shard scheduler: stripe planning, stitching, job groups on the service."""

from __future__ import annotations

import numpy as np
import pytest

from repro import rmse_hu
from repro.core.icd import icd_reconstruct
from repro.core.volume import ellipsoid_volume, simulate_volume_scan
from repro.multires.halo import (
    plan_stripes,
    stitch_stripes,
    stripe_voxel_indices,
)
from repro.multires.shards import submit_sharded, submit_volume
from repro.service import (
    JobCancelledError,
    JobFailedError,
    JobSpec,
    JobState,
    JobStateError,
    ReconstructionService,
)


class TestStripePlanning:
    def test_balanced_coverage_no_overlap_of_owned_rows(self):
        stripes = plan_stripes(32, 3, halo=2)
        assert [s.n_owned for s in stripes] == [11, 11, 10]
        covered = []
        for s in stripes:
            covered.extend(range(s.lo, s.hi))
        assert covered == list(range(32))

    def test_halo_clamped_at_volume_edges(self):
        stripes = plan_stripes(32, 2, halo=3)
        assert stripes[0].halo_lo == 0  # no rows above the top stripe
        assert stripes[0].halo_hi == stripes[0].hi + 3
        assert stripes[-1].halo_hi == 32

    @pytest.mark.parametrize(
        "n_rows, n_shards, halo, message",
        [
            (8, 9, 0, "cannot cut"),
            (8, 0, 0, "n_shards"),
            (8, 2, -1, "halo"),
            (8, 2, 5, "halo"),
        ],
    )
    def test_invalid_plans_rejected(self, n_rows, n_shards, halo, message):
        with pytest.raises(ValueError, match=message):
            plan_stripes(n_rows, n_shards, halo)

    def test_stripe_voxel_indices_cover_owned_plus_halo(self):
        stripes = plan_stripes(8, 2, halo=1)
        idx = stripe_voxel_indices(4, stripes[1])
        # Stripe 1 owns rows 4..7 with halo row 3: flat indices 12..31 at n=4.
        np.testing.assert_array_equal(idx, np.arange(12, 32))


class TestStitching:
    def test_stitch_keeps_only_owned_rows(self, rng):
        n = 16
        stripes = plan_stripes(n, 3, halo=2)
        truth = rng.standard_normal((n, n))
        # Each shard reports the truth inside its stripe and garbage outside.
        shard_images = []
        for s in stripes:
            img = rng.standard_normal((n, n))
            img[s.lo : s.hi] = truth[s.lo : s.hi]
            shard_images.append(img)
        np.testing.assert_array_equal(stitch_stripes(shard_images, stripes), truth)


@pytest.fixture()
def service():
    svc = ReconstructionService(n_workers=2)
    yield svc
    svc.close()


class TestSliceGroups:
    def test_stitched_stack_bit_identical_to_unsharded(
        self, service, mr_system, mr_geom
    ):
        vol = ellipsoid_volume(3, 32, seed=3)
        scans = simulate_volume_scan(vol, mr_system, dose=8e4, seed=5)
        gid = submit_volume(
            service, scans, params={"max_equits": 1.0, "track_cost": False, "seed": 0}
        )
        result = service.result(gid, timeout=300)
        assert result.image.shape == (3, 32, 32)
        for k, scan in enumerate(scans):
            ref = icd_reconstruct(
                scan, mr_system, max_equits=1.0, track_cost=False, seed=0
            )
            np.testing.assert_array_equal(result.image[k], ref.image)
        status = service.status(gid)
        assert status["state"] == "DONE"
        assert status["group"]["children_done"] == 3
        assert status["progress"] == 1.0

    def test_child_failure_fails_the_group(self, service, mr_scan):
        gid = submit_volume(
            service, [mr_scan], params={"init": np.zeros((3, 3))}  # rejected by the driver
        )
        with pytest.raises(JobFailedError, match="failed"):
            service.result(gid, timeout=120)
        assert service.status(gid)["state"] == "FAILED"

    def test_cancel_propagates_to_children(self, service, mr_system):
        vol = ellipsoid_volume(4, 32, seed=9)
        scans = simulate_volume_scan(vol, mr_system, dose=8e4, seed=5)
        gid = submit_volume(
            service, gid_scans := scans, params={"max_equits": 30.0, "track_cost": False}
        )
        assert service.cancel(gid)
        with pytest.raises(JobCancelledError):
            service.result(gid, timeout=120)
        assert service.status(gid)["state"] == "CANCELLED"

    def test_unknown_group_raises(self, service):
        with pytest.raises(KeyError):
            service.status("grp-nope")


class TestGroupIsAJob:
    """A group is a job of the service: one id rule, one result path."""

    def test_children_evicted_before_the_group_reads_them(self, mr_system):
        """With a zero TTL the reaper evicts each child as soon as it
        finishes; the group still stitches, because it waits on the child
        jobs it holds rather than looking them up by id."""
        scans = simulate_volume_scan(ellipsoid_volume(4, 32, seed=4), mr_system, seed=6)
        params = {"max_equits": 15.0, "track_cost": False, "seed": 0, "stop_delta_hu": None}
        with ReconstructionService(n_workers=2, job_ttl_s=0) as svc:
            gid = submit_volume(svc, scans, params=params)
            image = svc.result(gid, timeout=600).image
            assert svc.job(gid).state is JobState.DONE
        for k, scan in enumerate(scans):
            ref = icd_reconstruct(scan, mr_system, max_equits=15.0, track_cost=False, seed=0)
            np.testing.assert_array_equal(image[k], ref.image)

    def test_a_running_group_id_refuses_a_job(self, service, mr_scan):
        gid = submit_volume(
            service, [mr_scan], params={"max_equits": 500.0, "stop_delta_hu": None}
        )
        try:
            with pytest.raises(JobStateError, match=gid):
                service.submit(JobSpec(driver="icd", scan=mr_scan, job_id=gid))
            assert service.job(gid).state is JobState.RUNNING
        finally:
            service.cancel(gid)

    def test_a_terminal_group_id_is_reusable(self, service, mr_scan):
        params = {"max_equits": 1.0, "track_cost": False, "seed": 0}
        submit_volume(service, [mr_scan], params=params, group_id="g")
        first = service.job("g")
        service.result("g", timeout=120)
        submit_volume(service, [mr_scan], params=params, group_id="g")
        assert service.job("g") is not first
        np.testing.assert_array_equal(
            service.result("g", timeout=120).image, first.result.image
        )
        assert first.snapshot()["group"]["children"] == ["g-s000"]
        assert first._children == []  # a terminal group keeps ids, not jobs


class TestRowGroups:
    def test_stitched_result_within_tolerance_of_unsharded(
        self, service, mr_scan, mr_system
    ):
        """Block-Jacobi rounds with halo exchange land close to the
        monolithic reconstruction — the pinned quality contract."""
        gid = submit_sharded(
            service, mr_scan, n_shards=2, halo=2, rounds=3, seed=0, params={}
        )
        result = service.result(gid, timeout=600)
        ref = icd_reconstruct(
            mr_scan, mr_system, max_iterations=3, track_cost=False, seed=0
        )
        # Empirically ~3.8 HU at this size/dose; pinned with margin.  A
        # regression in halo exchange or re-seeding blows well past this.
        assert rmse_hu(result.image, ref.image) < 6.0
        status = service.status(gid)
        assert status["group"]["rounds_done"] == 3
        assert status["group"]["n_children"] == 6

    def test_rounds_reduce_disagreement(self, service, mr_scan, mr_system):
        """More halo-exchange rounds bring shards closer to the monolith."""
        errs = {}
        for rounds in (1, 3):
            gid = submit_sharded(
                service, mr_scan, n_shards=2, halo=2, rounds=rounds, seed=0, params={}
            )
            img = service.result(gid, timeout=600).image
            ref = icd_reconstruct(
                mr_scan, mr_system, max_iterations=rounds, track_cost=False,
                seed=0,
            )
            errs[rounds] = rmse_hu(img, ref.image)
        assert errs[3] < errs[1]

    def test_reserved_params_rejected(self, service, mr_scan):
        with pytest.raises(ValueError, match="voxel_subset"):
            submit_sharded(service, mr_scan, params={"voxel_subset": [1, 2]})
        with pytest.raises(ValueError, match="cannot cut"):
            submit_sharded(service, mr_scan, n_shards=64)

    def test_deterministic_across_coordinators(self, service, mr_scan):
        images = []
        for _ in range(2):
            gid = submit_sharded(
                service, mr_scan, n_shards=2, halo=1, rounds=2, seed=0, params={}
            )
            images.append(service.result(gid, timeout=600).image)
        np.testing.assert_array_equal(images[0], images[1])
