"""Kernel-layer tests: cross-kernel bit-equality, selection, float32 storage.

The kernel layer's contract is strong — ``vectorized`` and ``numba`` must
reproduce the ``python`` oracle's iterates *bit-for-bit* (same visit order,
same zero-skip decisions, same IEEE-754 operation sequence) — so these
tests assert exact ``np.array_equal``, never ``allclose``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    GPUICDParams,
    Neighborhood,
    QGGMRFPrior,
    QuadraticPrior,
    SliceUpdater,
    SuperVoxelGrid,
    gpu_icd_reconstruct,
    icd_reconstruct,
    psv_icd_reconstruct,
    rmse_hu,
    shared_neighborhood,
)
from repro.core.kernels import (
    HAVE_NUMBA,
    KERNELS,
    numba_supports_prior,
    resolve_kernel,
)
from repro.ct import SystemMatrix, simulate_scan

needs_numba = pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")

#: Kernels to test against the oracle; numba rides along when importable.
FAST_KERNELS = ["vectorized"] + (["numba"] if HAVE_NUMBA else [])


class TestResolveKernel:
    def test_auto_without_numba(self):
        prior = QGGMRFPrior(sigma=1.0)
        expected = "numba" if HAVE_NUMBA else "vectorized"
        assert resolve_kernel("auto", prior) == expected
        assert resolve_kernel(None, prior) == expected

    def test_auto_generic_prior_falls_back(self):
        class Custom(QGGMRFPrior):
            pass

        prior = Custom(sigma=1.0)
        assert not numba_supports_prior(prior)
        assert resolve_kernel("auto", prior) == "vectorized"

    def test_explicit_names_pass_through(self):
        prior = QuadraticPrior(sigma=1.0)
        assert resolve_kernel("python", prior) == "python"
        assert resolve_kernel("vectorized", prior) == "vectorized"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            resolve_kernel("cuda", QuadraticPrior(sigma=1.0))

    @pytest.mark.skipif(HAVE_NUMBA, reason="exercises the numba-absent error")
    def test_numba_missing_raises(self):
        with pytest.raises(RuntimeError, match="repro\\[fast\\]"):
            resolve_kernel("numba", QGGMRFPrior(sigma=1.0))

    @needs_numba
    def test_numba_generic_prior_rejected(self):
        class Custom(QGGMRFPrior):
            pass

        with pytest.raises(ValueError, match="vectorized"):
            resolve_kernel("numba", Custom(sigma=1.0))

    def test_kernel_names(self):
        assert KERNELS == ("python", "vectorized", "numba")


class TestSharedNeighborhood:
    def test_cached_by_size(self):
        assert shared_neighborhood(32) is shared_neighborhood(32)
        assert shared_neighborhood(32) is not shared_neighborhood(16)

    def test_matches_fresh_instance(self):
        fresh = Neighborhood(16)
        shared = shared_neighborhood(16)
        np.testing.assert_array_equal(shared.indices, fresh.indices)
        np.testing.assert_array_equal(shared.weights, fresh.weights)


# ----------------------------------------------------------------------
# Driver-level bit-equality: every kernel, every driver, both stale modes.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel", FAST_KERNELS)
class TestKernelEquivalence:
    def test_sequential_icd(self, scan32, system32, kernel):
        ref = icd_reconstruct(
            scan32, system32, max_equits=2, seed=0, track_cost=False, kernel="python"
        )
        res = icd_reconstruct(
            scan32, system32, max_equits=2, seed=0, track_cost=False, kernel=kernel
        )
        assert np.array_equal(res.image, ref.image)
        assert np.array_equal(res.error_sinogram, ref.error_sinogram)
        assert [r.updates for r in res.history.records] == [
            r.updates for r in ref.history.records
        ]

    def test_sequential_icd_zero_init(self, scan32, system32, kernel):
        """Zero init exercises the zero-skip path hard (mostly-skipped sweeps)."""
        ref = icd_reconstruct(
            scan32, system32, max_equits=2, seed=3, init="zero",
            track_cost=False, kernel="python",
        )
        res = icd_reconstruct(
            scan32, system32, max_equits=2, seed=3, init="zero",
            track_cost=False, kernel=kernel,
        )
        assert np.array_equal(res.image, ref.image)
        assert np.array_equal(res.error_sinogram, ref.error_sinogram)

    def test_psv_icd(self, scan32, system32, kernel):
        kwargs = dict(max_equits=2, seed=0, track_cost=False, sv_side=8, n_cores=4)
        ref = psv_icd_reconstruct(scan32, system32, kernel="python", **kwargs)
        res = psv_icd_reconstruct(scan32, system32, kernel=kernel, **kwargs)
        assert np.array_equal(res.image, ref.image)
        assert np.array_equal(res.error_sinogram, ref.error_sinogram)

    def test_gpu_icd_stale_waves(self, scan32, system32, kernel):
        """stale_width > 1 runs the bulk-synchronous wave variant."""
        params = GPUICDParams(sv_side=8, threadblocks_per_sv=4, batch_size=4)
        kwargs = dict(max_equits=2, seed=0, track_cost=False, params=params)
        ref = gpu_icd_reconstruct(scan32, system32, kernel="python", **kwargs)
        res = gpu_icd_reconstruct(scan32, system32, kernel=kernel, **kwargs)
        assert np.array_equal(res.image, ref.image)
        assert np.array_equal(res.error_sinogram, ref.error_sinogram)
        assert res.trace.total_updates == ref.trace.total_updates


# ----------------------------------------------------------------------
# Property-based equivalence on small random scans.
# ----------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    dose=st.sampled_from([1e4, 1e5, 1e6]),
    init=st.sampled_from(["fbp", "zero"]),
)
@settings(max_examples=6, deadline=None)
def test_kernels_identical_on_random_scans(system16, phantom16, seed, dose, init):
    """All kernels produce identical images + error sinograms after 2 equits."""
    scan = simulate_scan(phantom16, system16, dose=dose, seed=seed)
    results = {
        kernel: icd_reconstruct(
            scan, system16, max_equits=2, seed=seed, init=init,
            track_cost=False, kernel=kernel,
        )
        for kernel in ["python", *FAST_KERNELS]
    }
    ref = results["python"]
    for kernel in FAST_KERNELS:
        res = results[kernel]
        assert np.array_equal(res.image, ref.image), kernel
        assert np.array_equal(res.error_sinogram, ref.error_sinogram), kernel


# ----------------------------------------------------------------------
# float32 hot-path storage.
# ----------------------------------------------------------------------
class TestFloat32Storage:
    def test_storage_follows_matrix_dtype(self, scan32, system32):
        prior = QGGMRFPrior(sigma=1.0)
        nb = shared_neighborhood(32)
        upd32 = SliceUpdater(system32, scan32, prior, nb)
        assert system32.matrix.data.dtype == np.float32
        assert upd32.wa.dtype == np.float32
        assert upd32.a_data.dtype == np.float32
        # theta2 always accumulates (and stays) in float64.
        assert upd32.theta2.dtype == np.float64

        system64 = SystemMatrix(system32.geometry, system32.matrix.astype(np.float64))
        upd64 = SliceUpdater(system64, scan32, prior, nb)
        assert upd64.wa.dtype == np.float64
        assert upd64.a_data.dtype == np.float64

    def test_rmse_vs_golden_unchanged(self, scan32, system32, golden32):
        """float32 wa/a_data storage moves RMSE vs golden by far under 0.1 HU."""
        system64 = SystemMatrix(system32.geometry, system32.matrix.astype(np.float64))
        kwargs = dict(max_equits=4, seed=0, track_cost=False)
        res32 = icd_reconstruct(scan32, system32, **kwargs)
        res64 = icd_reconstruct(scan32, system64, **kwargs)
        r32 = rmse_hu(res32.image, golden32)
        r64 = rmse_hu(res64.image, golden32)
        assert abs(r32 - r64) < 0.1
        # And the two images themselves agree to well under 0.1 HU RMSE.
        assert rmse_hu(res32.image, res64.image) < 0.1


# ----------------------------------------------------------------------
# Per-SV padded theta1 tables.
# ----------------------------------------------------------------------
class TestSVPrepPads:
    @pytest.mark.parametrize("sv_side, overlap", [(8, 1), (7, 0)])
    def test_build_pads_matches_per_member_loop(self, scan32, system32, sv_side, overlap):
        """The masked fill equals filling the tables one member row at a time."""
        updater = SliceUpdater(system32, scan32, QGGMRFPrior(sigma=1.0), shared_neighborhood(32))
        ctx = updater.context()
        grid = SuperVoxelGrid(system32, sv_side, overlap=overlap)
        for sv in grid.svs:
            prep = ctx.sv_prep(sv)
            prep.build_pads(ctx)
            lens = np.diff(sv.member_offsets)
            idx_ref = np.zeros((sv.n_voxels, max(int(lens.max()), 1)), dtype=np.int64)
            wa_ref = np.zeros(idx_ref.shape, dtype=np.float64)
            for m, j in enumerate(sv.voxels):
                idx_ref[m, : lens[m]] = sv.member_footprint(m)
                wa_ref[m, : lens[m]] = ctx.fast.wa_views[int(j)]
            assert prep.idx_pad.dtype == idx_ref.dtype
            assert prep.wa_pad.dtype == wa_ref.dtype
            np.testing.assert_array_equal(prep.idx_pad, idx_ref)
            np.testing.assert_array_equal(prep.wa_pad, wa_ref)
