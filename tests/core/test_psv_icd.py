"""Tests for the PSV-ICD driver (Alg. 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import psv_icd_reconstruct


class TestPSVICD:
    def test_cost_monotone(self, scan32, system32):
        res = psv_icd_reconstruct(scan32, system32, sv_side=8, max_equits=4, seed=0)
        assert np.all(np.diff(res.history.costs) <= 1e-9)

    def test_error_sinogram_consistent(self, scan32, system32):
        """e == y - Ax must hold after every run despite wave-deferred merges."""
        res = psv_icd_reconstruct(
            scan32, system32, sv_side=8, max_equits=3, seed=0, track_cost=False
        )
        e_true = scan32.sinogram - system32.forward(res.image)
        np.testing.assert_allclose(res.error_sinogram, e_true, atol=1e-8)

    def test_trace_structure(self, scan32, system32):
        res = psv_icd_reconstruct(
            scan32, system32, sv_side=8, n_cores=4, max_equits=2, seed=0, track_cost=False
        )
        assert res.trace is not None
        assert res.trace.n_cores == 4
        # No wave exceeds the core count.
        assert all(len(w.sv_stats) <= 4 for w in res.trace.waves)
        assert res.trace.total_updates == sum(r.updates for r in res.history.records)

    def test_selection_schedule(self, scan32, system32):
        res = psv_icd_reconstruct(
            scan32, system32, sv_side=8, fraction=0.25, max_equits=3, seed=0, track_cost=False
        )
        recs = res.history.records
        # Iteration 1 touches all 16 SVs; later iterations 25% = 4.
        assert recs[0].svs_updated == 16
        assert all(r.svs_updated == 4 for r in recs[1:])

    def test_converges_to_golden(self, scan32, system32, golden32):
        res = psv_icd_reconstruct(
            scan32, system32, sv_side=8, max_equits=20, golden=golden32,
            stop_rmse=15.0, seed=0, track_cost=False,
        )
        assert res.history.converged_equits is not None

    def test_deterministic(self, scan32, system32):
        a = psv_icd_reconstruct(scan32, system32, sv_side=8, max_equits=2, seed=5,
                                track_cost=False)
        b = psv_icd_reconstruct(scan32, system32, sv_side=8, max_equits=2, seed=5,
                                track_cost=False)
        np.testing.assert_array_equal(a.image, b.image)

    def test_core_count_changes_schedule_not_consistency(self, scan32, system32):
        for cores in (1, 16):
            res = psv_icd_reconstruct(
                scan32, system32, sv_side=8, n_cores=cores, max_equits=2, seed=0,
                track_cost=False,
            )
            e_true = scan32.sinogram - system32.forward(res.image)
            np.testing.assert_allclose(res.error_sinogram, e_true, atol=1e-8)

    def test_grid_reuse(self, scan32, system32):
        from repro.core import SuperVoxelGrid

        grid = SuperVoxelGrid(system32, 8)
        res = psv_icd_reconstruct(
            scan32, system32, grid=grid, max_equits=2, seed=0, track_cost=False
        )
        assert res.grid is grid

    def test_trace_records_grid_sv_side(self, scan32, system32):
        """The CPU timing model prices updates by the grid actually used."""
        from repro.core import SuperVoxelGrid

        res = psv_icd_reconstruct(
            scan32, system32, grid=SuperVoxelGrid(system32, 8), sv_side=13,
            max_equits=1, seed=0, track_cost=False,
        )
        assert res.trace.sv_side == 8

    def test_grid_geometry_mismatch(self, scan32, system32, system16):
        from repro.core import SuperVoxelGrid

        with pytest.raises(ValueError, match="n_pixels=16.*n_pixels=32"):
            psv_icd_reconstruct(
                scan32, system32, grid=SuperVoxelGrid(system16, 8), max_equits=1,
                track_cost=False,
            )

    def test_positivity(self, scan32, system32):
        res = psv_icd_reconstruct(scan32, system32, sv_side=8, max_equits=2, seed=0,
                                  track_cost=False)
        assert np.all(res.image >= 0)
