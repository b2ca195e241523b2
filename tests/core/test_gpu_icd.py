"""Tests for the GPU-ICD driver (Alg. 3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GPUICDParams, SuperVoxelGrid, gpu_icd_reconstruct


@pytest.fixture(scope="module")
def small_params():
    return GPUICDParams(sv_side=8, threadblocks_per_sv=4, batch_size=4)


class TestGPUICDParams:
    def test_defaults_match_table1(self):
        p = GPUICDParams()
        assert p.sv_side == 33
        assert p.threadblocks_per_sv == 40
        assert p.batch_size == 32
        assert p.chunk_width == 32
        assert p.fraction == 0.25

    def test_threshold_is_quarter_batch(self):
        assert GPUICDParams(batch_size=32).threshold == 8
        assert GPUICDParams(batch_size=32, use_threshold=False).threshold == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            GPUICDParams(sv_side=0)
        with pytest.raises(ValueError):
            GPUICDParams(batch_size=-1)


class TestGPUICD:
    def test_grid_geometry_mismatch(self, scan32, system32, system16, small_params):
        with pytest.raises(ValueError, match="n_pixels=16.*n_pixels=32"):
            gpu_icd_reconstruct(
                scan32, system32, params=small_params, grid=SuperVoxelGrid(system16, 8),
                max_equits=1, track_cost=False,
            )

    def test_cost_monotone(self, scan32, system32, small_params):
        res = gpu_icd_reconstruct(scan32, system32, params=small_params, max_equits=4, seed=0)
        assert np.all(np.diff(res.history.costs) <= 1e-9)

    def test_error_sinogram_consistent(self, scan32, system32, small_params):
        """Deferred batch merges must still keep e == y - Ax exactly."""
        res = gpu_icd_reconstruct(
            scan32, system32, params=small_params, max_equits=3, seed=0, track_cost=False
        )
        e_true = scan32.sinogram - system32.forward(res.image)
        np.testing.assert_allclose(res.error_sinogram, e_true, atol=1e-8)

    def test_trace_kernels_respect_batch_size(self, scan32, system32, small_params):
        res = gpu_icd_reconstruct(
            scan32, system32, params=small_params, max_equits=2, seed=0, track_cost=False
        )
        assert res.trace is not None
        assert all(k.n_svs <= small_params.batch_size for k in res.trace.kernels)
        assert res.trace.n_kernels > 0

    def test_checkerboard_groups_in_trace(self, scan32, system32, small_params):
        res = gpu_icd_reconstruct(
            scan32, system32, params=small_params, max_equits=2, seed=0, track_cost=False
        )
        groups = {k.group for k in res.trace.kernels}
        assert groups <= {0, 1, 2, 3}
        assert len(groups) == 4  # iteration 1 launches every group

    def test_kernel_svs_mutually_nonadjacent(self, scan32, system32, small_params):
        """All SVs inside one kernel batch belong to one checkerboard group."""
        res = gpu_icd_reconstruct(
            scan32, system32, params=small_params, max_equits=2, seed=0, track_cost=False
        )
        grid = res.grid
        cb = grid.checkerboard_groups()
        membership = {}
        for g, ids in enumerate(cb):
            for i in ids:
                membership[i] = g
        for k in res.trace.kernels:
            gset = {membership[s.sv_index] for s in k.sv_stats}
            assert len(gset) == 1
            assert gset == {k.group}

    def test_threshold_suppresses_trailing_small_launches(self, scan32, system32):
        # 64 SVs (side 4), 90% selection => ~14 SVs per checkerboard group;
        # batch 12 leaves trailing remainders of ~2 < threshold 3.
        p = GPUICDParams(
            sv_side=4, threadblocks_per_sv=2, batch_size=12, fraction=0.9,
            use_threshold=True,
        )
        res = gpu_icd_reconstruct(
            scan32, system32, params=p, max_equits=6, seed=0, track_cost=False
        )
        assert res.trace.skipped_launches > 0
        # Any launched kernel after iteration 1 that is NOT a group's first
        # launch meets the threshold; and no group ever fully starves.
        updated = {s.sv_index for k in res.trace.kernels for s in k.sv_stats}
        assert len(updated) == res.grid.n_svs

    def test_no_starvation_with_batch_larger_than_group(self, scan32, system32):
        """A batch size above the per-group selection must not stall the run
        (the first launch of a group is threshold-exempt)."""
        p = GPUICDParams(sv_side=8, threadblocks_per_sv=2, batch_size=64)
        res = gpu_icd_reconstruct(
            scan32, system32, params=p, max_equits=4, seed=0, track_cost=False
        )
        # Updates continue past iteration 1.
        assert any(k.iteration > 1 and k.updates > 0 for k in res.trace.kernels)

    def test_intra_sv_staleness_slows_convergence(self, scan32, system32, golden32):
        """More threadblocks per SV (stale waves) => no faster convergence."""
        equits = {}
        for tb in (1, 16):
            p = GPUICDParams(sv_side=8, threadblocks_per_sv=tb, batch_size=4)
            res = gpu_icd_reconstruct(
                scan32, system32, params=p, max_equits=20, golden=golden32,
                stop_rmse=20.0, seed=0, track_cost=False,
            )
            eq = res.history.converged_equits
            assert eq is not None
            equits[tb] = eq
        assert equits[16] >= equits[1] * 0.95  # staleness never helps much

    def test_deterministic(self, scan32, system32, small_params):
        a = gpu_icd_reconstruct(scan32, system32, params=small_params, max_equits=2,
                                seed=3, track_cost=False)
        b = gpu_icd_reconstruct(scan32, system32, params=small_params, max_equits=2,
                                seed=3, track_cost=False)
        np.testing.assert_array_equal(a.image, b.image)

    def test_converges_to_golden(self, scan32, system32, golden32, small_params):
        res = gpu_icd_reconstruct(
            scan32, system32, params=small_params, max_equits=20, golden=golden32,
            stop_rmse=15.0, seed=0, track_cost=False,
        )
        assert res.history.converged_equits is not None
