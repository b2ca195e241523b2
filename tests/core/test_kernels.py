"""Kernel-layer tests: cross-kernel bit-equality, selection, float32 storage.

The kernel layer's contract is strong — ``vectorized`` must reproduce the
``python`` oracle's iterates *bit-for-bit* (same visit order, same zero-skip
decisions, same IEEE-754 operation sequence) — so these tests assert exact
``np.array_equal``, never ``allclose``.
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
    default_prior,
    gpu_icd_reconstruct,
    icd_reconstruct,
    psv_icd_reconstruct,
    rmse_hu,
    shared_neighborhood,
)
from repro.core.kernels import KERNELS, resolve_kernel
from repro.ct import SystemMatrix, simulate_scan


class TestResolveKernel:
    def test_auto_resolves_to_vectorized(self):
        assert resolve_kernel("auto") == "vectorized"
        assert resolve_kernel(None) == "vectorized"

    def test_explicit_names_pass_through(self):
        assert resolve_kernel("python") == "python"
        assert resolve_kernel("vectorized") == "vectorized"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            resolve_kernel("cuda")

    def test_removed_kernel_name_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            resolve_kernel("numba")

    def test_kernel_names(self):
        assert KERNELS == ("python", "vectorized")


class TestSharedNeighborhood:
    def test_cached_by_size(self):
        assert shared_neighborhood(32) is shared_neighborhood(32)
        assert shared_neighborhood(32) is not shared_neighborhood(16)

    def test_matches_fresh_instance(self):
        fresh = Neighborhood(16)
        shared = shared_neighborhood(16)
        np.testing.assert_array_equal(shared.indices, fresh.indices)
        np.testing.assert_array_equal(shared.weights, fresh.weights)


class _SubclassedQGGMRF(QGGMRFPrior):
    """Exact-type prior dispatch sends a subclass down the generic path."""


#: (kernel, prior) pairs checked against the oracle: the default q-GGMRF
#: prior (``None``) and one prior for each other branch of the inline
#: surrogate solves.
EQUIVALENCE_CASES = [
    pytest.param("vectorized", None, id="vectorized"),
    pytest.param("vectorized", QuadraticPrior(sigma=1.0), id="vectorized-quadratic"),
    pytest.param(
        "vectorized", _SubclassedQGGMRF(sigma=default_prior().sigma), id="vectorized-generic"
    ),
]


# ----------------------------------------------------------------------
# Driver-level bit-equality: every driver, both stale modes, every prior branch.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel, prior", EQUIVALENCE_CASES)
class TestKernelEquivalence:
    def test_sequential_icd(self, scan32, system32, kernel, prior):
        kwargs = dict(max_equits=2, seed=0, track_cost=False, prior=prior)
        ref = icd_reconstruct(scan32, system32, kernel="python", **kwargs)
        res = icd_reconstruct(scan32, system32, kernel=kernel, **kwargs)
        assert np.array_equal(res.image, ref.image)
        assert np.array_equal(res.error_sinogram, ref.error_sinogram)
        assert [r.updates for r in res.history.records] == [
            r.updates for r in ref.history.records
        ]

    def test_sequential_icd_zero_init(self, scan32, system32, kernel, prior):
        """Zero init exercises the zero-skip path hard (mostly-skipped sweeps)."""
        kwargs = dict(max_equits=2, seed=3, init="zero", track_cost=False, prior=prior)
        ref = icd_reconstruct(scan32, system32, kernel="python", **kwargs)
        res = icd_reconstruct(scan32, system32, kernel=kernel, **kwargs)
        assert np.array_equal(res.image, ref.image)
        assert np.array_equal(res.error_sinogram, ref.error_sinogram)

    def test_psv_icd(self, scan32, system32, kernel, prior):
        kwargs = dict(
            max_equits=2, seed=0, track_cost=False, sv_side=8, n_cores=4, prior=prior
        )
        ref = psv_icd_reconstruct(scan32, system32, kernel="python", **kwargs)
        res = psv_icd_reconstruct(scan32, system32, kernel=kernel, **kwargs)
        assert np.array_equal(res.image, ref.image)
        assert np.array_equal(res.error_sinogram, ref.error_sinogram)

    def test_gpu_icd_stale_waves(self, scan32, system32, kernel, prior):
        """stale_width > 1 runs the bulk-synchronous wave variant."""
        params = GPUICDParams(sv_side=8, threadblocks_per_sv=4, batch_size=4)
        kwargs = dict(max_equits=2, seed=0, track_cost=False, params=params, prior=prior)
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
    """Both kernels produce identical images + error sinograms after 2 equits."""
    scan = simulate_scan(phantom16, system16, dose=dose, seed=seed)
    ref, res = (
        icd_reconstruct(
            scan, system16, max_equits=2, seed=seed, init=init,
            track_cost=False, kernel=kernel,
        )
        for kernel in ("python", "vectorized")
    )
    assert np.array_equal(res.image, ref.image)
    assert np.array_equal(res.error_sinogram, ref.error_sinogram)


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
