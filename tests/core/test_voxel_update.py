"""Tests for the Alg. 1 voxel update and the SliceUpdater."""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import importlib
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import (
    GPUICDParams,
    Neighborhood,
    QuadraticPrior,
    SliceUpdater,
    compute_thetas,
    map_cost,
    solve_surrogate,
)
from repro.core import voxel_update
from repro.core.icd import default_prior
from repro.core.kernels import no_compiler
from repro.ct import SystemMatrix, noiseless_scan, shepp_logan, simulate_scan


@pytest.fixture(scope="module")
def updater(system32, scan32):
    nb = Neighborhood(system32.geometry.n_pixels)
    return SliceUpdater(system32, scan32, default_prior(), nb)


class TestComputeThetas:
    def test_matches_definition(self, rng):
        e = rng.random(10)
        w = rng.random(10)
        a = rng.random(10)
        t1, t2 = compute_thetas(e, w, a)
        assert t1 == pytest.approx(-np.sum(w * a * e))
        assert t2 == pytest.approx(np.sum(w * a * a))

    def test_theta2_nonnegative(self, rng):
        for _ in range(5):
            _, t2 = compute_thetas(rng.standard_normal(8), rng.random(8), rng.standard_normal(8))
            assert t2 >= 0


class TestSolveSurrogate:
    def test_no_prior_is_newton_step(self):
        """With no neighbors the update is v - theta1/theta2."""
        u = solve_surrogate(2.0, -1.5, 3.0, np.array([]), np.array([]), QuadraticPrior(1.0))
        assert u == pytest.approx(2.0 + 1.5 / 3.0)

    def test_positivity_clips(self):
        u = solve_surrogate(0.5, 10.0, 1.0, np.array([]), np.array([]), QuadraticPrior(1.0))
        assert u == 0.0

    def test_positivity_off(self):
        u = solve_surrogate(
            0.5, 10.0, 1.0, np.array([]), np.array([]), QuadraticPrior(1.0), positivity=False
        )
        assert u < 0

    def test_pure_prior_pulls_to_neighbor_mean(self):
        """theta1 = theta2 = 0: the minimiser is the weighted neighbor mean."""
        nbv = np.array([1.0, 3.0])
        wts = np.array([0.5, 0.5])
        u = solve_surrogate(10.0, 0.0, 0.0, nbv, wts, QuadraticPrior(1.0))
        assert u == pytest.approx(2.0)

    def test_degenerate_returns_input(self):
        u = solve_surrogate(1.23, 0.0, 0.0, np.array([]), np.array([]), QuadraticPrior(1.0))
        assert u == 1.23


class TestSliceUpdater:
    def test_theta2_matches_bruteforce(self, updater, system32, scan32, geom32):
        w = scan32.weights.ravel()
        for j in [0, geom32.voxel_index(16, 16), geom32.n_voxels - 1]:
            rows, vals = system32.column(j)
            expected = np.sum(w[rows] * vals.astype(np.float64) ** 2)
            assert updater.theta2[j] == pytest.approx(expected, rel=1e-10)

    def test_update_voxel_reduces_cost(self, updater, system32, scan32, geom32):
        nb = updater.neighborhood
        prior = updater.prior
        x = np.full(geom32.n_voxels, 0.01)
        e = updater.initial_error(x)
        indices = system32.matrix.indices
        img0 = x.reshape(geom32.n_pixels, -1).copy()
        before = map_cost(img0, scan32, system32, prior, nb)
        for j in [5, 100, geom32.voxel_index(16, 16)]:
            sl = updater.column_slice(j)
            updater.update_voxel(j, x, e, indices[sl])
        after = map_cost(x.reshape(geom32.n_pixels, -1), scan32, system32, prior, nb)
        assert after <= before + 1e-12

    def test_error_maintained_exactly(self, updater, system32, scan32, geom32, rng):
        x = rng.random(geom32.n_voxels) * 0.02
        e = updater.initial_error(x)
        indices = system32.matrix.indices
        for j in rng.choice(geom32.n_voxels, 30, replace=False):
            sl = updater.column_slice(int(j))
            updater.update_voxel(int(j), x, e, indices[sl])
        e_true = (scan32.sinogram - system32.forward(x)).ravel()
        np.testing.assert_allclose(e, e_true, atol=1e-9)

    def test_propose_apply_equals_update(self, updater, system32, geom32, rng):
        x1 = rng.random(geom32.n_voxels) * 0.02
        x2 = x1.copy()
        e1 = updater.initial_error(x1)
        e2 = e1.copy()
        indices = system32.matrix.indices
        j = geom32.voxel_index(10, 10)
        sl = updater.column_slice(j)
        updater.update_voxel(j, x1, e1, indices[sl])
        u = updater.propose_update(j, x2, e2, indices[sl])
        updater.apply_update(j, u, x2, e2, indices[sl])
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(e1, e2)

    def test_zero_skip_detection(self, system32, geom32):
        scan = noiseless_scan(np.zeros((geom32.n_pixels, geom32.n_pixels)), system32)
        nb = Neighborhood(geom32.n_pixels)
        upd = SliceUpdater(system32, scan, default_prior(), nb)
        x = np.zeros(geom32.n_voxels)
        assert upd.should_skip(0, x)
        x[geom32.voxel_index(5, 5)] = 1.0
        assert not upd.should_skip(geom32.voxel_index(5, 5), x)
        # Neighbors of the hot voxel must not be skipped either.
        assert not upd.should_skip(geom32.voxel_index(5, 6), x)
        # A far-away voxel still skips.
        assert upd.should_skip(geom32.voxel_index(20, 20), x)

    def test_fixed_point_of_converged_image(self, system32, geom32):
        """On noiseless data with positivity off and the true image, updates barely move."""
        from repro.ct import shepp_logan

        img = shepp_logan(geom32.n_pixels)
        scan = noiseless_scan(img, system32)
        nb = Neighborhood(geom32.n_pixels)
        # Extremely weak prior: the data term fixes the image.
        upd = SliceUpdater(system32, scan, QuadraticPrior(sigma=1e6), nb)
        x = img.ravel().copy()
        e = upd.initial_error(x)
        indices = system32.matrix.indices
        j = geom32.voxel_index(16, 16)
        sl = upd.column_slice(j)
        u = upd.propose_update(j, x, e, indices[sl])
        assert u == pytest.approx(x[j], abs=1e-8)


def _with_dtypes(system, scan, matrix_dtype, weights_dtype):
    system = SystemMatrix(system.geometry, system.matrix.astype(matrix_dtype))
    return system, dataclasses.replace(scan, weights=scan.weights.astype(weights_dtype))


def _unfused_build(system, scan):
    """``(wa, theta2, a_data)`` by the formula that held four float64 temporaries.

    theta2 sums each nonempty column's segment with ``np.add.reduceat``
    over the whole matrix; an empty column's theta2 is 0.
    """
    A = system.matrix
    a64 = A.data.astype(np.float64)
    w_at_rows = scan.weights.ravel()[A.indices]
    wa64 = w_at_rows * a64
    store_dtype = A.data.dtype if A.data.dtype == np.float32 else np.float64
    nonempty = np.diff(A.indptr) > 0
    theta2 = np.zeros(A.shape[1])
    theta2[nonempty] = np.add.reduceat(wa64 * a64, A.indptr[:-1][nonempty])
    return wa64.astype(store_dtype), theta2, A.data if store_dtype == np.float32 else a64


@pytest.fixture(scope="module")
def scan64(system64):
    return simulate_scan(shepp_logan(64), system64, dose=1e5, seed=7)


#: Build block sizes: the default (one block at 32²), blocks of several
#: columns, and a block shorter than every column (one column per block).
_BLOCKS = [
    pytest.param(None, id="default-block"),
    pytest.param(1000, id="several-columns"),
    pytest.param(16, id="column-longer-than-block"),
]
_MATRIX_DTYPES = [pytest.param(np.float32, id="float32"), pytest.param(np.float64, id="float64")]


class TestUpdaterBuild:
    @pytest.mark.parametrize(
        "matrix_dtype, weights_dtype",
        [
            pytest.param(np.float32, np.float64, id="float32-matrix"),
            pytest.param(np.float64, np.float64, id="float64-matrix"),
            pytest.param(np.float32, np.float32, id="float32-weights"),
        ],
    )
    def test_matches_unfused_build(self, system32, scan32, matrix_dtype, weights_dtype):
        """wa, theta2 and a_data equal the unfused formula in value and dtype."""
        system, scan = _with_dtypes(system32, scan32, matrix_dtype, weights_dtype)
        upd = SliceUpdater(system, scan, default_prior(), Neighborhood(32))
        for got, want in zip((upd.wa, upd.theta2, upd.a_data), _unfused_build(system, scan)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("block", _BLOCKS[1:])
    @pytest.mark.parametrize("matrix_dtype", _MATRIX_DTYPES)
    def test_block_size_keeps_the_bits(self, monkeypatch, system32, scan32, matrix_dtype, block):
        """wa and theta2 do not depend on the block size, on the compiled
        pass (a float32 matrix, where it builds) or the NumPy one."""
        monkeypatch.setattr(voxel_update, "BUILD_BLOCK", block)
        system, scan = _with_dtypes(system32, scan32, matrix_dtype, np.float64)
        assert np.diff(system.matrix.indptr).min() > 16  # every column straddles 16
        upd = SliceUpdater(system, scan, default_prior(), Neighborhood(32))
        for got, want in zip((upd.wa, upd.theta2), _unfused_build(system, scan)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("block", _BLOCKS)
    @pytest.mark.parametrize("matrix_dtype", _MATRIX_DTYPES)
    def test_empty_columns(self, monkeypatch, system32, scan32, matrix_dtype, block):
        """Empty columns, the last two included, get theta2 0, and the column
        before them sums all its entries."""
        if block is not None:
            monkeypatch.setattr(voxel_update, "BUILD_BLOCK", block)
        A = system32.matrix.astype(matrix_dtype)
        empty = sp.csc_matrix((A.shape[0], 1), dtype=A.dtype)
        cut = sp.hstack([A[:, :500], empty, A[:, 501:-2], empty, empty], format="csc")
        system = SystemMatrix(system32.geometry, cut)
        upd = SliceUpdater(system, scan32, default_prior(), Neighborhood(32))
        assert np.flatnonzero(np.diff(cut.indptr) == 0).tolist() == [500, 1022, 1023]
        for got, want in zip((upd.wa, upd.theta2), _unfused_build(system, scan32)):
            assert np.array_equal(got, want)
        assert upd.theta2[[500, 1022, 1023]].tolist() == [0.0, 0.0, 0.0]
        rows, vals = system.column(1021)
        terms = scan32.weights.ravel()[rows] * vals.astype(np.float64) ** 2
        assert upd.theta2[1021] == pytest.approx(terms.sum(), rel=1e-12)

    @pytest.mark.parametrize("matrix_dtype", [np.float32, np.float64])
    def test_peak_is_one_float64_temporary(
        self, monkeypatch, system64, scan64, matrix_dtype
    ):
        """The build's traced peak is what it keeps plus one block of float64 terms."""
        monkeypatch.setattr(voxel_update, "BUILD_BLOCK", 2**14)
        system, scan = _with_dtypes(system64, scan64, matrix_dtype, np.float64)
        neighborhood = Neighborhood(64)
        prior = default_prior()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            upd = SliceUpdater(system, scan, prior, neighborhood)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        A = system.matrix
        kept = sum(
            value.nbytes
            for value in vars(upd).values()
            if isinstance(value, np.ndarray) and value is not A.data and value is not A.indptr
        )
        # A block holds BUILD_BLOCK entries, or one longer column.
        block = 8 * max(voxel_update.BUILD_BLOCK, int(np.diff(A.indptr).max()))
        assert 8 * A.nnz > 4 * (block + 2**20)  # the bound excludes a whole-matrix temporary
        assert peak <= kept + block + 2**20, (peak, kept, block)
        assert upd.a_data is A.data


#: Small-grid arguments of each driver whose updater the lifetime test follows.
_DRIVER_KWARGS = {
    "icd": {},
    "psv_icd": {"sv_side": 6},
    "gpu_icd": {"params": GPUICDParams(sv_side=8, batch_size=4)},
}


@pytest.mark.parametrize("kernel", ["auto", "python"])
@pytest.mark.parametrize("driver", sorted(_DRIVER_KWARGS))
def test_driver_call_frees_its_updater(monkeypatch, scan16, system16, driver, kernel):
    """No reference cycle keeps a driver call's SliceUpdater alive past its
    return, whichever kernel it picks (``python`` inside ``no_compiler``)."""
    module = importlib.import_module(f"repro.core.{driver}")
    built = []

    def traced_updater(*args, **kwargs):
        updater = SliceUpdater(*args, **kwargs)
        built.append(weakref.ref(updater))
        return updater

    # Wrapped where the driver looks it up, as perfbench's tracer does.
    monkeypatch.setattr(module, "SliceUpdater", traced_updater)
    reconstruct = getattr(module, f"{driver}_reconstruct")
    gc.collect()
    gc.disable()
    try:
        with no_compiler() if kernel == "python" else contextlib.nullcontext():
            reconstruct(
                scan16, system16, max_equits=1, seed=0, track_cost=False,
                **_DRIVER_KWARGS[driver],
            )
        alive = [ref() is not None for ref in built]
    finally:
        gc.enable()
    assert alive == [False]
