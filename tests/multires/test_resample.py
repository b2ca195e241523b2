"""Grid-transfer operators: exactness, adjointness, unit-consistency."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ct.geometry import ParallelBeamGeometry
from repro.ct.phantoms import MU_WATER, from_hounsfield, shepp_logan, to_hounsfield
from repro.ct.sinogram import simulate_scan
from repro.ct.system_matrix import clear_system_cache
from repro.multires.resample import (
    coarse_system_for,
    coarsen_geometry,
    prolong_image,
    restrict_image,
    restrict_image_adjoint,
    restrict_scan,
    restrict_sinogram,
)


class TestCoarsenGeometry:
    def test_halves_raster_and_keeps_field_of_view(self, mr_geom):
        coarse = coarsen_geometry(mr_geom, 2)
        assert coarse.n_pixels == 16
        assert coarse.n_views == 24
        assert coarse.n_channels == 32
        # Field of view is preserved: side length and detector extent.
        assert coarse.n_pixels * coarse.pixel_size == pytest.approx(
            mr_geom.n_pixels * mr_geom.pixel_size
        )
        assert coarse.n_channels * coarse.channel_spacing == pytest.approx(
            mr_geom.n_channels * mr_geom.channel_spacing
        )

    def test_factor_one_is_identity(self, mr_geom):
        assert coarsen_geometry(mr_geom, 1) is mr_geom

    @pytest.mark.parametrize("factor", [0, -2])
    def test_nonpositive_factor_rejected(self, mr_geom, factor):
        with pytest.raises(ValueError, match="factor"):
            coarsen_geometry(mr_geom, factor)

    def test_indivisible_factor_rejected(self):
        geom = ParallelBeamGeometry(n_pixels=32, n_views=45, n_channels=64)
        with pytest.raises(ValueError, match="n_views"):
            coarsen_geometry(geom, 2)

    def test_coarse_angles_are_a_subset_of_fine_angles(self, mr_geom):
        """Every coarse view angle equals a fine angle exactly (stride f)."""
        f = 2
        coarse = coarsen_geometry(mr_geom, f)
        fine_angles = np.linspace(0, np.pi, mr_geom.n_views, endpoint=False)
        coarse_angles = np.linspace(0, np.pi, coarse.n_views, endpoint=False)
        np.testing.assert_array_equal(coarse_angles, fine_angles[::f])

    def test_coarse_and_service_matrices_share_one_cache(self, mr_geom):
        from repro.service.runner import system_for

        coarse = coarsen_geometry(mr_geom, 2)
        system = coarse_system_for(coarse)
        # One matrix per geometry value, whoever asks for it.
        assert system_for(coarse) is coarse_system_for(coarsen_geometry(mr_geom, 2)) is system
        clear_system_cache()
        assert system_for(coarse) is not system

class TestRestrictSinogram:
    def test_shape_and_constant_preservation(self):
        sino = np.full((48, 64), 3.25)
        out = restrict_sinogram(sino, 2)
        assert out.shape == (24, 32)
        np.testing.assert_array_equal(out, np.full((24, 32), 3.25))

    def test_view_decimation_keeps_measured_rows(self):
        sino = np.arange(48 * 64, dtype=np.float64).reshape(48, 64)
        out = restrict_sinogram(sino, 2)
        # Coarse view j is fine view 2j with its channels pair-averaged.
        expected = sino[::2].reshape(24, 32, 2).mean(axis=2)
        np.testing.assert_array_equal(out, expected)

    def test_indivisible_shape_rejected(self):
        with pytest.raises(ValueError, match="does not divide"):
            restrict_sinogram(np.zeros((45, 64)), 2)


class TestRestrictScan:
    def test_restricts_all_fields(self, mr_scan):
        coarse = restrict_scan(mr_scan, 2)
        assert coarse.geometry.n_pixels == 16
        assert coarse.sinogram.shape == (24, 32)
        assert coarse.weights.shape == (24, 32)
        assert coarse.ground_truth is not None
        assert coarse.ground_truth.shape == (16, 16)
        np.testing.assert_array_equal(
            coarse.ground_truth, restrict_image(mr_scan.ground_truth, 2)
        )

    def test_is_deterministic(self, mr_scan):
        a = restrict_scan(mr_scan, 2)
        b = restrict_scan(mr_scan, 2)
        np.testing.assert_array_equal(a.sinogram, b.sinogram)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_non_raster_truth_dropped(self, mr_system):
        scan = simulate_scan(shepp_logan(32), mr_system, dose=1e5, seed=2)
        stacked = scan.__class__(
            geometry=scan.geometry,
            sinogram=scan.sinogram,
            weights=scan.weights,
            ground_truth=np.zeros((3, 32, 32)),
        )
        assert restrict_scan(stacked, 2).ground_truth is None


class TestImageRestriction:
    def test_block_mean_exact(self):
        img = np.arange(16, dtype=np.float64).reshape(4, 4)
        out = restrict_image(img, 2)
        expected = np.array([[2.5, 4.5], [10.5, 12.5]])
        np.testing.assert_array_equal(out, expected)

    def test_constants_preserved(self):
        np.testing.assert_array_equal(
            restrict_image(np.full((8, 8), MU_WATER), 4), np.full((2, 2), MU_WATER)
        )

    def test_adjoint_identity(self, rng):
        """<R x, y> == <x, R^T y> exactly (block mean vs scaled replication)."""
        f = 4
        x = rng.standard_normal((16, 16))
        y = rng.standard_normal((4, 4))
        lhs = float(np.vdot(restrict_image(x, f), y))
        rhs = float(np.vdot(x, restrict_image_adjoint(y, f)))
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_indivisible_side_rejected(self):
        with pytest.raises(ValueError, match="does not divide"):
            restrict_image(np.zeros((6, 6)), 4)


class TestProlongImage:
    def test_constants_exact(self):
        out = prolong_image(np.full((4, 4), 0.02), 8)
        np.testing.assert_allclose(out, np.full((8, 8), 0.02), rtol=0, atol=1e-16)

    def test_hounsfield_conversion_commutes(self, rng):
        """HU is affine in mu and prolongation rows sum to 1, so they commute."""
        coarse = MU_WATER * (1 + 0.2 * rng.standard_normal((8, 8)))
        a = to_hounsfield(prolong_image(coarse, 16))
        b = prolong_image(to_hounsfield(coarse), 16)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)
        # And back down through restriction (also a row-sum-1 average).
        c = from_hounsfield(restrict_image(to_hounsfield(coarse), 2))
        d = restrict_image(coarse, 2)
        np.testing.assert_allclose(c, d, rtol=0, atol=1e-15)

    def test_odd_and_non_integer_ratios(self):
        out = prolong_image(np.full((5, 5), 1.5), 9)
        assert out.shape == (9, 9)
        np.testing.assert_allclose(out, 1.5, rtol=0, atol=1e-15)

    def test_downsampling_target_rejected(self):
        with pytest.raises(ValueError, match="smaller than the source"):
            prolong_image(np.zeros((8, 8)), 4)

    def test_round_trip_recovers_smooth_structure(self):
        """restrict then prolong preserves a smooth phantom within tolerance."""
        img = shepp_logan(32)
        round_tripped = prolong_image(restrict_image(img, 2), 32)
        # Smooth regions survive; the bound is loose only at sharp edges.
        err = np.abs(round_tripped - img)
        assert np.median(err) < 0.05 * MU_WATER
        assert err.max() < 1.2 * MU_WATER

    def test_bit_reproducible(self, rng):
        coarse = rng.standard_normal((8, 8))
        np.testing.assert_array_equal(
            prolong_image(coarse, 32), prolong_image(coarse.copy(), 32)
        )
