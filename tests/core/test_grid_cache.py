"""SuperVoxel grids are built once per system matrix and die with it.

A grid depends only on the system matrix, ``sv_side`` and ``overlap``, so
the SV drivers share one per key through :func:`shared_grid`, which keeps
it on the matrix (:meth:`SystemMatrix.derived`).  The counts go through
the drivers' own ``SuperVoxelGrid`` globals, where a tracer wraps them.
"""

from __future__ import annotations

import dataclasses
import gc
import sys
import threading
import weakref

import numpy as np
import pytest

import repro.core.gpu_icd as gpu_mod
import repro.core.psv_icd as psv_mod
from repro.core import (
    GPUICDParams,
    SuperVoxelGrid,
    gpu_icd_reconstruct,
    psv_icd_reconstruct,
    shared_grid,
)
from repro.core.volume import reconstruct_volume, simulate_volume_scan
from repro.ct import build_system_matrix, shepp_logan, simulate_scan
from repro.ct.system_matrix import DERIVED_LIMIT

KW = dict(max_equits=0.5, seed=0, track_cost=False)


class CountingBuild:
    """A ``SuperVoxelGrid`` stand-in that counts builds by ``(sv_side, overlap)``."""

    def __init__(self):
        self.calls: list[tuple[int, int]] = []

    def __call__(self, system, sv_side, *, overlap=1):
        self.calls.append((sv_side, overlap))
        return SuperVoxelGrid(system, sv_side, overlap=overlap)


@pytest.fixture()
def fresh_system(geom16):
    """A matrix no other test has built a grid on."""
    return build_system_matrix(geom16)


@pytest.fixture()
def counted(monkeypatch):
    """Count the builds each SV driver makes through its module global."""
    builds = {"psv_icd": CountingBuild(), "gpu_icd": CountingBuild()}
    monkeypatch.setattr(psv_mod, "SuperVoxelGrid", builds["psv_icd"])
    monkeypatch.setattr(gpu_mod, "SuperVoxelGrid", builds["gpu_icd"])
    return builds


def test_each_grid_is_built_once_per_matrix(fresh_system, counted):
    scan = simulate_scan(shepp_logan(16), fresh_system, dose=1e5, seed=1)
    params = GPUICDParams(sv_side=6, threadblocks_per_sv=2, batch_size=4)
    psv = [psv_icd_reconstruct(scan, fresh_system, sv_side=5, **KW) for _ in range(2)]
    gpu = [gpu_icd_reconstruct(scan, fresh_system, params=params, **KW) for _ in range(2)]
    assert counted["psv_icd"].calls == [(5, 1)]
    assert counted["gpu_icd"].calls == [(6, 1)]
    assert psv[0].grid is psv[1].grid is shared_grid(fresh_system, 5)
    assert gpu[0].grid is gpu[1].grid is shared_grid(fresh_system, 6)


def test_a_second_matrix_gets_its_own_grid(geom16, fresh_system):
    other = build_system_matrix(geom16)
    grid = shared_grid(fresh_system, 5)
    assert shared_grid(fresh_system, 5) is grid
    assert shared_grid(other, 5) is not grid
    assert shared_grid(other, 5).matrix is other.matrix


def test_a_grid_dies_with_its_matrix(geom16):
    system = build_system_matrix(geom16)
    ref = weakref.ref(shared_grid(system, 5))
    gc.collect()
    assert ref() is not None
    del system
    gc.collect()
    assert ref() is None


def test_the_least_recently_used_key_is_evicted(fresh_system):
    build = CountingBuild()
    sides = list(range(3, 3 + DERIVED_LIMIT + 1))
    for side in sides[:DERIVED_LIMIT]:
        shared_grid(fresh_system, side, build=build)
    shared_grid(fresh_system, sides[0], build=build)  # now the most recent
    shared_grid(fresh_system, sides[-1], build=build)  # evicts sides[1]
    assert len(build.calls) == DERIVED_LIMIT + 1
    shared_grid(fresh_system, sides[0], build=build)
    assert len(build.calls) == DERIVED_LIMIT + 1
    shared_grid(fresh_system, sides[1], build=build)
    assert build.calls[-1] == (sides[1], 1)
    assert len(build.calls) == DERIVED_LIMIT + 2


def test_concurrent_callers_build_a_key_once(fresh_system):
    """More threads than cores race for two keys; each is built once and
    every caller gets that one grid."""
    build = CountingBuild()
    got: list[tuple[int, SuperVoxelGrid]] = []
    start = threading.Barrier(8)

    def call(side):
        start.wait(timeout=30)
        got.append((side, shared_grid(fresh_system, side, build=build)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(4 + k % 2,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(build.calls) == [(4, 1), (5, 1)]
    assert len(got) == 8
    for side, grid in got:
        assert grid is shared_grid(fresh_system, side)


def test_a_cached_grid_refuses_writes(fresh_system):
    grid = shared_grid(fresh_system, 5)
    for sv in grid.svs:
        for name in ("voxels", "band_lo", "band_width", "gather_idx", "view_shift"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(sv, name)[...] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            sv.view_shift = sv.view_shift.copy()


def test_a_volume_shares_one_grid_across_slices(fresh_system, counted):
    scans = simulate_volume_scan(np.stack([shepp_logan(16)] * 3), fresh_system, seed=2)
    params = GPUICDParams(sv_side=6, threadblocks_per_sv=2, batch_size=4)
    vol = reconstruct_volume(scans, fresh_system, method="gpu", params=params, **KW)
    assert counted["gpu_icd"].calls == [(6, 1)]
    assert len({id(r.grid) for r in vol.slice_results}) == 1
