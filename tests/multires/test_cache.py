"""Result-cache partitioning for multires and shard params.

The cache key must separate jobs whose iterates differ (different
pyramids, different base drivers, different ndarray-valued params) and
must NOT separate jobs that run identically (explicit ``base_driver=
"icd"`` versus the omitted default).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.service import JobSpec, ReconstructionService
from repro.service.cache import cache_key
from repro.service.runner import job_params

PARAMS = {"max_equits": 1.0, "coarse_equits": 1.0, "seed": 0, "track_cost": False}


def multires_spec(scan, *, levels=(16, 32), **extra):
    return JobSpec(
        driver="multires",
        scan=scan,
        params={**PARAMS, "levels": list(levels), **extra},
    )


class TestCacheKey:
    def test_levels_partition_the_key(self, mr_scan):
        a = cache_key("multires", mr_scan, {**PARAMS, "levels": [16, 32]})
        b = cache_key("multires", mr_scan, {**PARAMS, "levels": [32]})
        assert a != b

    def test_explicit_default_base_driver_shares_the_key(self, mr_scan):
        """Omitted and explicit ``base_driver="icd"`` run the identical
        pyramid, so with the resolved default folded in the keys match."""
        params = {**PARAMS, "levels": [16, 32]}
        omitted = cache_key("multires", mr_scan, job_params("multires", params))
        explicit_params = {**params, "base_driver": "icd"}
        explicit = cache_key(
            "multires", mr_scan, job_params("multires", explicit_params)
        )
        assert omitted == explicit

    def test_non_default_base_driver_partitions_the_key(self, mr_scan):
        params = {**PARAMS, "levels": [16, 32]}
        icd = cache_key("multires", mr_scan, job_params("multires", params))
        psv_params = {**params, "base_driver": "psv_icd", "sv_side": 8}
        psv = cache_key("multires", mr_scan, job_params("multires", psv_params))
        assert icd != psv

    def test_ndarray_params_keyed_by_content(self, mr_scan):
        """Shard children differ only in ``voxel_subset``/``init`` arrays —
        those must partition the key by content, not identity."""
        rows_a = np.arange(0, 512)
        rows_b = np.arange(512, 1024)
        a = cache_key("icd", mr_scan, {**PARAMS, "voxel_subset": rows_a})
        b = cache_key("icd", mr_scan, {**PARAMS, "voxel_subset": rows_b})
        same = cache_key("icd", mr_scan, {**PARAMS, "voxel_subset": rows_a.copy()})
        assert a != b
        assert a == same

    def test_ndarray_init_seed_partitions_the_key(self, mr_scan, rng):
        init_a = rng.standard_normal((32, 32))
        init_b = init_a + 1e-9
        a = cache_key("icd", mr_scan, {**PARAMS, "init": init_a})
        b = cache_key("icd", mr_scan, {**PARAMS, "init": init_b})
        assert a != b


class TestPersistentCachePartition:
    def test_pyramids_partition_and_default_base_driver_dedupes(
        self, mr_scan, tmp_path
    ):
        """Across a service restart against the same ``cache_dir``:
        a different pyramid recomputes, the identical pyramid (with the
        base driver now explicit) is served from the persistent cache."""
        cache_dir = tmp_path / "cache"
        with ReconstructionService(n_workers=1, cache_dir=cache_dir) as svc:
            first = svc.submit(multires_spec(mr_scan))
            image = svc.result(first, timeout=300).image
        with ReconstructionService(n_workers=1, cache_dir=cache_dir) as svc:
            other = svc.submit(multires_spec(mr_scan, levels=(32,)))
            same = svc.submit(multires_spec(mr_scan, base_driver="icd"))
            svc.result(other, timeout=300)
            svc.result(same, timeout=300)
            assert not svc.job(other).from_cache  # different pyramid: recomputed
            assert svc.job(same).from_cache  # same pyramid: cache hit
            np.testing.assert_array_equal(svc.result(same).image, image)

    def test_service_matches_direct_call(self, mr_scan, mr_system):
        from repro.multires import multires_reconstruct

        direct = multires_reconstruct(
            mr_scan, mr_system, levels=[16, 32], **PARAMS
        )
        with ReconstructionService(n_workers=1) as svc:
            job_id = svc.submit(multires_spec(mr_scan))
            via_service = svc.result(job_id, timeout=300)
        np.testing.assert_array_equal(via_service.image, direct.image)

    def test_gpu_icd_base_takes_gpu_params_fields(self, mr_scan, mr_system):
        """GPUICDParams fields fold into ``params=`` under multires over
        gpu_icd exactly as they do for a plain gpu_icd job."""
        from repro.core.gpu_icd import GPUICDParams
        from repro.multires import multires_reconstruct
        from repro.service.runner import DEFAULT_STOP_DELTA_HU

        direct = multires_reconstruct(
            mr_scan, mr_system, levels=[16, 32], base_driver="gpu_icd",
            params=GPUICDParams(sv_side=8, batch_size=8),
            stop_delta_hu=DEFAULT_STOP_DELTA_HU, **PARAMS,
        )
        with ReconstructionService(n_workers=1) as svc:
            job_id = svc.submit(
                multires_spec(mr_scan, base_driver="gpu_icd", sv_side=8, batch_size=8)
            )
            via_service = svc.result(job_id, timeout=300)
            assert svc.status(job_id)["state"] == "DONE"
        assert np.array_equal(via_service.image, direct.image)
