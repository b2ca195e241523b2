"""Tests for the filtered-backprojection baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kernels import load_c_kernel, no_compiler
from repro.ct import (
    ParallelBeamGeometry,
    fbp_reconstruct,
    ramp_filter,
    scaled_geometry,
    shepp_logan,
)
from repro.ct.fbp import fbp_flop_estimate, mbir_flop_estimate
from repro.ct.phantoms import disk_phantom

#: Whether the compiled kernel builds and loads on this host.
C_LOADS = load_c_kernel() is None


class TestRampFilter:
    def test_dc_suppressed(self):
        # The band-limited ramp has a small (not exactly zero) DC term.
        resp = ramp_filter(64, 1.0)
        assert abs(resp[0]) < 0.01 * abs(resp).max()

    def test_high_frequencies_amplified(self):
        resp = ramp_filter(64, 1.0)
        assert abs(resp[64]) > abs(resp[4])

    def test_hamming_tapers_highs(self):
        ramp = ramp_filter(64, 1.0, window="ramp")
        ham = ramp_filter(64, 1.0, window="hamming")
        assert abs(ham[64]) < abs(ramp[64])

    def test_unknown_window(self):
        with pytest.raises(ValueError):
            ramp_filter(64, 1.0, window="blackman")


class TestFBPReconstruct:
    def test_recovers_disk_value(self):
        g = scaled_geometry(64)
        img = disk_phantom(64, radius=0.6, value=1.0)
        from repro.ct import forward_project

        recon = fbp_reconstruct(forward_project(img, g), g)
        # Interior of the disk should reconstruct near 1.0.
        assert recon[32, 32] == pytest.approx(1.0, abs=0.15)

    def test_shepp_logan_quality(self, geom32, system32, phantom32):
        recon = fbp_reconstruct(system32.forward(phantom32), geom32)
        rel_rmse = np.sqrt(np.mean((recon - phantom32) ** 2)) / phantom32.max()
        assert rel_rmse < 0.3  # coarse resolution, but clearly a reconstruction

    def test_clipping(self, geom32, system32, phantom32):
        recon = fbp_reconstruct(system32.forward(phantom32), geom32)
        assert np.all(recon >= 0)
        unclipped = fbp_reconstruct(
            system32.forward(phantom32), geom32, clip_negative=False
        )
        assert unclipped.min() < 0  # streaks exist before clipping

    def test_shape_check(self, geom32):
        with pytest.raises(ValueError):
            fbp_reconstruct(np.zeros((3, 3)), geom32)


@pytest.mark.skipif(not C_LOADS, reason="the c kernel does not build on this host")
class TestCompiledBackprojection:
    """The ``c`` kernel's backprojection equals the NumPy loop bit for bit."""

    @pytest.mark.parametrize("window", ["ramp", "hamming"])
    @pytest.mark.parametrize("clip_negative", [True, False])
    def test_matches_numpy_path(self, system32, phantom32, window, clip_negative):
        sino = system32.forward(phantom32)
        kwargs = dict(window=window, clip_negative=clip_negative)
        got = fbp_reconstruct(sino, system32.geometry, **kwargs)
        with no_compiler():
            want = fbp_reconstruct(sino, system32.geometry, **kwargs)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("window", ["ramp", "hamming"])
    @pytest.mark.parametrize("clip_negative", [True, False])
    def test_detector_edges(self, rng, window, clip_negative):
        """An odd channel count, and pixels off both ends of the detector and
        exactly on its channels, the last one included."""
        geom = ParallelBeamGeometry(n_pixels=9, n_views=12, n_channels=7, channel_spacing=1.0)
        x, _ = geom.pixel_centers()
        # At view 0 (cos 1, sin 0) pixel column k lands on channel k - 1.
        channels = x[0] / geom.channel_spacing + (geom.n_channels - 1) / 2.0
        assert channels.tolist() == list(range(-1, 8))
        sino = rng.standard_normal(geom.sinogram_shape)
        kwargs = dict(window=window, clip_negative=clip_negative)
        got = fbp_reconstruct(sino, geom, **kwargs)
        with no_compiler():
            want = fbp_reconstruct(sino, geom, **kwargs)
        assert np.array_equal(got, want)


class TestFlopEstimates:
    def test_mbir_orders_of_magnitude_more_than_fbp(self):
        """The paper's motivation: MBIR needs up to ~100x FBP's compute."""
        from repro.ct import paper_geometry

        g = paper_geometry()
        ratio = mbir_flop_estimate(g, equits=40.0) / fbp_flop_estimate(g)
        assert 20 < ratio < 500
