"""Kernel-layer tests: cross-kernel bit-equality, the kernel pick, float32 storage.

The kernel layer's contract is strong — ``c`` must reproduce the ``python``
oracle's iterates *bit-for-bit* (same visit order, same zero-skip
decisions, same IEEE-754 operation sequence) — so these tests assert exact
``np.array_equal``, never ``allclose``.  The oracle side of each comparison
runs inside :func:`~repro.core.kernels.no_compiler`, as on a host without a
compiler, so the preparation passes are compared too.  Cases that need the
compiled kernel skip when it does not build on the host; the fallback is
also tested in a subprocess with no compiler.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

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
from repro.core import kernels
from repro.core.kernels import (
    VIEW_BITS,
    load_c_kernel,
    no_compiler,
    run_sv_visit,
    run_sweep,
    view_reciprocal,
)
from repro.ct import (
    SystemMatrix,
    build_system_matrix,
    scaled_geometry,
    shepp_logan,
    simulate_scan,
)
from repro.multires import multires_reconstruct
from repro.observability import MetricsRecorder

#: Whether the compiled kernel builds and loads on this host.
C_LOADS = load_c_kernel() is None
NEEDS_C = pytest.mark.skipif(not C_LOADS, reason="the c kernel does not build on this host")


class _SubclassedQGGMRF(QGGMRFPrior):
    """Exact-type prior dispatch sends a subclass down the generic path."""


def _updater(scan, system, prior=None):
    n = system.geometry.n_pixels
    return SliceUpdater(system, scan, prior or default_prior(), shared_neighborhood(n))


def _float64(system):
    return SystemMatrix(system.geometry, system.matrix.astype(np.float64))


#: (prior, float64 matrix, failed library, the kernel the updater picks).
KERNEL_PICKS = [
    pytest.param(None, False, False, "c", id="qggmrf", marks=NEEDS_C),
    pytest.param(QuadraticPrior(sigma=1.0), False, False, "c", id="quadratic", marks=NEEDS_C),
    pytest.param(_SubclassedQGGMRF(sigma=1.0), False, False, "python", id="subclassed-prior"),
    pytest.param(None, True, False, "python", id="float64-matrix"),
    pytest.param(None, False, True, "python", id="failed-library"),
]


@pytest.mark.parametrize("prior, float64, failed, kernel", KERNEL_PICKS)
def test_the_updater_picks_the_kernel_its_solve_runs(
    scan32, system32, prior, float64, failed, kernel
):
    """``c`` for exactly QGGMRFPrior or QuadraticPrior over a float32 matrix
    with a loaded library, else ``python``; the driver then runs that kernel
    only, and its image is the no-compiler image."""
    system = _float64(system32) if float64 else system32
    kwargs = dict(prior=prior, max_equits=1, seed=0, track_cost=False)
    rec = MetricsRecorder()
    with no_compiler() if failed else contextlib.nullcontext():
        assert _updater(scan32, system, prior).kernel == kernel
        res = icd_reconstruct(scan32, system, metrics=rec, **kwargs)
    with no_compiler():
        ref = icd_reconstruct(scan32, system, **kwargs)
    flavors = {k.split(".")[1] for k in rec.counters if k.startswith("kernel.")}
    assert flavors == {kernel} and rec.counters[f"kernel.{kernel}.updates"] > 0
    assert np.array_equal(res.image, ref.image)


@pytest.mark.parametrize(
    "reconstruct",
    [icd_reconstruct, psv_icd_reconstruct, gpu_icd_reconstruct, multires_reconstruct],
)
def test_no_driver_takes_a_kernel(scan16, system16, reconstruct):
    with pytest.raises(TypeError, match="kernel"):
        reconstruct(scan16, system16, max_equits=1, kernel="c")


#: Run with no compiler; writes the solve's image and error sinogram to argv[1].
_NO_COMPILER_SCRIPT = textwrap.dedent(
    """
    import sys
    import numpy as np
    from repro import build_system_matrix, scaled_geometry, shepp_logan, simulate_scan
    from repro.core import SliceUpdater, default_prior, icd_reconstruct, shared_neighborhood
    from repro.core.kernels import load_c_kernel

    system = build_system_matrix(scaled_geometry(16))
    scan = simulate_scan(shepp_logan(16), system, dose=1e5, seed=7)
    updater = SliceUpdater(system, scan, default_prior(), shared_neighborhood(16))
    assert updater.kernel == "python", updater.kernel
    assert "exited with" in load_c_kernel()
    res = icd_reconstruct(scan, system, max_equits=2, seed=0, track_cost=False)
    np.savez(sys.argv[1], image=res.image, error=res.error_sinogram)
    print("ok")
    """
)


def test_auto_falls_back_without_a_compiler(tmp_path):
    """``CC=false`` fails the build: the solve runs the ``python`` oracle,
    and its image and error sinogram are this process's, bit for bit."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, CC="false", PYTHONPATH=src)
    out = tmp_path / "no-compiler.npz"
    proc = subprocess.run(
        [sys.executable, "-c", _NO_COMPILER_SCRIPT, str(out)],
        env=env, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
    system = build_system_matrix(scaled_geometry(16))
    scan = simulate_scan(shepp_logan(16), system, dose=1e5, seed=7)
    res = icd_reconstruct(scan, system, max_equits=2, seed=0, track_cost=False)
    with np.load(out) as got:
        assert np.array_equal(got["image"], res.image)
        assert np.array_equal(got["error"], res.error_sinogram)


class TestSharedNeighborhood:
    def test_cached_by_size(self):
        assert shared_neighborhood(32) is shared_neighborhood(32)
        assert shared_neighborhood(32) is not shared_neighborhood(16)

    def test_matches_fresh_instance(self):
        fresh = Neighborhood(16)
        shared = shared_neighborhood(16)
        np.testing.assert_array_equal(shared.indices, fresh.indices)
        np.testing.assert_array_equal(shared.weights, fresh.weights)


#: Priors checked against the oracle: the default q-GGMRF prior (``None``)
#: and the quadratic prior, the two surrogates the ``c`` kernel inlines (any
#: other prior runs the oracle itself).
EQUIVALENCE_CASES = [
    pytest.param(None, id="c", marks=NEEDS_C),
    pytest.param(QuadraticPrior(sigma=1.0), id="c-quadratic", marks=NEEDS_C),
]


# ----------------------------------------------------------------------
# Driver-level bit-equality: every driver, both stale modes, every prior branch.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("prior", EQUIVALENCE_CASES)
class TestKernelEquivalence:
    def test_sequential_icd(self, scan32, system32, prior):
        kwargs = dict(max_equits=2, seed=0, track_cost=False, prior=prior)
        with no_compiler():
            ref = icd_reconstruct(scan32, system32, **kwargs)
        res = icd_reconstruct(scan32, system32, **kwargs)
        assert np.array_equal(res.image, ref.image)
        assert np.array_equal(res.error_sinogram, ref.error_sinogram)
        assert [r.updates for r in res.history.records] == [
            r.updates for r in ref.history.records
        ]

    def test_sequential_icd_zero_init(self, scan32, system32, prior):
        """Zero init exercises the zero-skip path hard (mostly-skipped sweeps)."""
        kwargs = dict(max_equits=2, seed=3, init="zero", track_cost=False, prior=prior)
        with no_compiler():
            ref = icd_reconstruct(scan32, system32, **kwargs)
        res = icd_reconstruct(scan32, system32, **kwargs)
        assert np.array_equal(res.image, ref.image)
        assert np.array_equal(res.error_sinogram, ref.error_sinogram)

    def test_psv_icd(self, scan32, system32, prior):
        kwargs = dict(
            max_equits=2, seed=0, track_cost=False, sv_side=8, n_cores=4, prior=prior
        )
        with no_compiler():
            ref = psv_icd_reconstruct(scan32, system32, **kwargs)
        res = psv_icd_reconstruct(scan32, system32, **kwargs)
        assert np.array_equal(res.image, ref.image)
        assert np.array_equal(res.error_sinogram, ref.error_sinogram)

    def test_gpu_icd_stale_waves(self, scan32, system32, prior):
        """stale_width > 1 runs the bulk-synchronous wave variant."""
        params = GPUICDParams(sv_side=8, threadblocks_per_sv=4, batch_size=4)
        kwargs = dict(max_equits=2, seed=0, track_cost=False, params=params, prior=prior)
        with no_compiler():
            ref = gpu_icd_reconstruct(scan32, system32, **kwargs)
        res = gpu_icd_reconstruct(scan32, system32, **kwargs)
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
    """The solve gives the no-compiler images + error sinograms after 2 equits."""
    scan = simulate_scan(phantom16, system16, dose=dose, seed=seed)
    kwargs = dict(max_equits=2, seed=seed, init=init, track_cost=False)
    with no_compiler():
        ref = icd_reconstruct(scan, system16, **kwargs)
    res = icd_reconstruct(scan, system16, **kwargs)
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
# The C kernel's argument checks: bad input raises before any write.
# ----------------------------------------------------------------------
@NEEDS_C
class TestCKernelGuards:
    def _state(self, scan32, system32):
        updater = _updater(scan32, system32)
        x = np.full(32 * 32, 0.01)
        return updater, x, updater.initial_error(x)

    def test_sweep_rejects_out_of_range_order(self, scan32, system32):
        upd, x, e = self._state(scan32, system32)
        x0, e0 = x.copy(), e.copy()
        for bad in (32 * 32, -1):
            order = np.array([0, 1, bad])
            with pytest.raises(ValueError, match="out of range"):
                run_sweep(upd, order, x, e, zero_skip=False)
        assert np.array_equal(x, x0) and np.array_equal(e, e0)

    def test_sweep_rejects_wrong_buffers(self, scan32, system32):
        upd, x, e = self._state(scan32, system32)
        order = np.arange(4)
        with pytest.raises(TypeError, match="x must be"):
            run_sweep(upd, order, x.astype(np.float32), e, zero_skip=False)
        with pytest.raises(TypeError, match="e must be"):
            run_sweep(upd, order, x, e[:-1], zero_skip=False)
        with pytest.raises(TypeError, match="x must be"):
            run_sweep(upd, order, x[::-1], e, zero_skip=False)

    def test_sv_visit_rejects_bad_order_and_svb(self, scan32, system32):
        upd, x, e = self._state(scan32, system32)
        sv = SuperVoxelGrid(system32, 8).svs[0]
        svb = sv.extract(e)
        svb0 = svb.copy()
        kwargs = dict(zero_skip=False, stale_width=2)
        with pytest.raises(ValueError, match="out of range"):
            run_sv_visit(upd, sv, np.array([0, sv.n_voxels]), x, svb, **kwargs)
        assert np.array_equal(svb, svb0)
        with pytest.raises(TypeError, match="svb must be"):
            run_sv_visit(upd, sv, np.arange(2), x, svb[:-1], **kwargs)


@NEEDS_C
class TestMatrixChecks:
    """The checks that depend on the matrix alone run once per SystemMatrix."""

    def test_a_second_updater_does_not_recheck_the_matrix(self, scan32, system32, monkeypatch):
        calls = []
        check = kernels.check_c_matrix

        def spy(system):
            calls.append(system)
            return check(system)

        monkeypatch.setattr(kernels, "check_c_matrix", spy)
        system = SystemMatrix(system32.geometry, system32.matrix)  # nothing derived yet
        first = _updater(scan32, system).c_struct
        second = _updater(scan32, system).c_struct
        assert calls == [system]
        recip = view_reciprocal(system.geometry.n_channels)
        assert first.view_recip == second.view_recip == recip

    def test_a_matrix_with_an_out_of_range_row_is_refused(self, scan32, system32):
        bad = system32.matrix.copy()
        bad.indices[7] = bad.shape[0]
        updater = _updater(scan32, system32)
        # The build itself gathers the weights at every row, so the bad
        # matrix goes in after it.
        updater.system = SystemMatrix(system32.geometry, bad)
        for _ in range(2):  # a refusal is not kept: every call re-checks
            with pytest.raises(ValueError, match="row index is out of range"):
                updater.c_struct

    def test_an_updater_still_checks_its_own_arrays(self, scan32, system32):
        updater = _updater(scan32, system32)
        updater.nb_idx = updater.nb_idx.copy()
        updater.nb_idx[3] = 32 * 32
        with pytest.raises(ValueError, match="neighbour index is out of range"):
            updater.c_struct


# ----------------------------------------------------------------------
# SVB addressing: the view reciprocal and the SV's matrix.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_channels", [4, 16, 255, 256, 1023])
def test_view_reciprocal_is_floor_division_over_every_row(n_channels):
    rows = np.arange(2048 * n_channels, dtype=np.int64)
    views = (rows * view_reciprocal(n_channels)) >> VIEW_BITS
    np.testing.assert_array_equal(views, rows // n_channels)


@pytest.mark.parametrize("kernel", ["python", pytest.param("c", marks=NEEDS_C)])
def test_sv_visit_refuses_an_sv_over_another_matrix(scan32, system32, kernel):
    """An SV was checked against the matrix it was built over, so a visit
    through an updater of an equal but distinct matrix is refused."""
    with no_compiler() if kernel == "python" else contextlib.nullcontext():
        updater = _updater(scan32, system32)
    assert updater.kernel == kernel
    twin = SystemMatrix(system32.geometry, system32.matrix.copy())
    sv = SuperVoxelGrid(twin, 8).svs[0]
    x = np.full(32 * 32, 0.01)
    svb = sv.extract(updater.initial_error(x))
    with pytest.raises(ValueError, match="another system matrix"):
        run_sv_visit(
            updater, sv, np.arange(sv.n_voxels), x, svb, zero_skip=False, stale_width=2
        )
