"""Pinned result-cache keys: a persistent ``--cache-dir`` keeps serving hits.

The service stores finished volumes under the sha256 key that
:meth:`ReconstructionService.submit` computes from the driver, its params
(plus the resolved ``stop_delta_hu`` and multires ``base_driver``
defaults) and the scan.  Any change to that key orphans every entry a
running deployment has on disk, so each key here is a literal: the scan is
built from fixed arrays (no RNG, stable across NumPy versions), and a
refactor of the service or the drivers must leave all of them unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ct import ParallelBeamGeometry
from repro.ct.sinogram import ScanData
from repro.service import JobSpec, ReconstructionService

GEOMETRY = ParallelBeamGeometry(n_pixels=8, n_views=6, n_channels=12, channel_spacing=1.0)


def fixed_scan() -> ScanData:
    n_views, n_channels = GEOMETRY.sinogram_shape
    ramp = np.arange(n_views * n_channels, dtype=np.float64).reshape(n_views, n_channels)
    return ScanData(geometry=GEOMETRY, sinogram=ramp * 0.25, weights=1.0 + ramp % 5)


CASES = [
    ("icd", {"max_equits": 5.0, "seed": 3},
     "6a1e16dbe07e2aa356e7743ed21be635995908f87535a492fbcc46a31dd0c609"),
    ("icd", {"max_equits": 5.0, "seed": 3, "stop_delta_hu": 0.5},
     "6398b58e24c9393c84c9676d0f8c03b5c25f2fdd1e4cb2d4831aec17482d120a"),
    ("psv_icd", {"max_equits": 5.0, "sv_side": 4, "n_cores": 4},
     "799feea9aae3d8fe913bb606d394b02ee5490d9d59e1f701a09e0f5f09ec652f"),
    ("psv_icd", {"max_equits": 5.0, "sv_side": 4, "n_cores": 4, "stop_delta_hu": None},
     "9b72a2ba6eba01bd593934c960e076a258133a7b1234563cdc6cd2879b1b1dbb"),
    ("gpu_icd", {"max_equits": 5.0, "sv_side": 4, "batch_size": 8},
     "0add55b6fccd0f90b027f6bfb5e12f1ef0b23013488630cabdcd9bae38b5620c"),
    ("gpu_icd", {"max_equits": 5.0, "sv_side": 4, "batch_size": 8, "stop_delta_hu": 0.5},
     "74a573d33f5286d78a115f326fa085d2b71a16844cd0f4089bfc2fe5d1828ccb"),
    ("multires", {"max_equits": 5.0, "levels": [4, 8]},
     "b82268cefd5065e7af9a478bdbaf04efa5ce13d105b8e0404965005b8d881837"),
    ("multires", {"max_equits": 5.0, "levels": [4, 8], "base_driver": "psv_icd",
                  "sv_side": 4, "stop_delta_hu": 0.5},
     "8dc38f393d76925fd9c146410533d2857804beaaf552dcfdfa2052eec17f8366"),
]


@pytest.mark.parametrize(
    "driver,params,expected",
    CASES,
    ids=[f"{d}-{i}" for i, (d, _, _) in enumerate(CASES)],
)
def test_submit_key_is_pinned(driver, params, expected):
    with ReconstructionService(n_workers=1, start=False) as svc:
        job_id = svc.submit(JobSpec(driver=driver, scan=fixed_scan(), params=params))
        assert svc.job(job_id).cache_key == expected
