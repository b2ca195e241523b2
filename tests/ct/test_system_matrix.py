"""Tests for the trapezoid-footprint system matrix."""

from __future__ import annotations

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.kernels import load_c_kernel, no_compiler
from repro.ct import (
    ParallelBeamGeometry,
    SystemMatrix,
    build_system_matrix,
    disk_phantom,
    scaled_geometry,
    trapezoid_cdf,
)
from repro.ct.system_matrix import _compiled_build_runs, _view_footprints

#: Whether the compiled kernel builds and loads on this host.
C_LOADS = load_c_kernel() is None
NEEDS_C = pytest.mark.skipif(not C_LOADS, reason="the c kernel does not build on this host")


class TestTrapezoidCDF:
    def test_total_mass_is_pixel_area(self):
        h = 1.0
        for w1, w2 in [(1.0, 0.0), (0.7, 0.7), (0.9, 0.3)]:
            lo = trapezoid_cdf(np.array([-10.0]), w1, w2, h)[0]
            hi = trapezoid_cdf(np.array([10.0]), w1, w2, h)[0]
            assert hi - lo == pytest.approx(h * h)

    def test_symmetry(self):
        t = np.linspace(-2, 2, 41)
        f = trapezoid_cdf(t, 0.8, 0.4, 1.0)
        # F(t) + F(-t) = total mass.
        assert np.allclose(f + f[::-1], 1.0)

    def test_degenerate_box(self):
        # theta = 0: a pure box of width h and height h.
        t = np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
        f = trapezoid_cdf(t, 1.0, 0.0, 1.0)
        expected = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        np.testing.assert_allclose(f, expected, atol=1e-12)

    def test_peak_at_45_degrees(self):
        # Chord through the centre at 45 deg has length sqrt(2) h.
        w = 1.0 / np.sqrt(2.0)
        eps = 1e-6
        density = (
            trapezoid_cdf(np.array([eps]), w, w, 1.0)[0]
            - trapezoid_cdf(np.array([-eps]), w, w, 1.0)[0]
        ) / (2 * eps)
        assert density == pytest.approx(np.sqrt(2.0), rel=1e-3)

    def test_zero_widths_raise(self):
        with pytest.raises(ValueError):
            trapezoid_cdf(np.array([0.0]), 0.0, 0.0, 1.0)

    @given(
        w1=st.floats(min_value=0.01, max_value=1.0),
        w2=st.floats(min_value=0.0, max_value=1.0),
        t=st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_nondecreasing(self, w1, w2, t):
        f1 = trapezoid_cdf(np.array([t]), w1, w2, 1.0)[0]
        f2 = trapezoid_cdf(np.array([t + 0.1]), w1, w2, 1.0)[0]
        assert f2 >= f1 - 1e-12


class TestSystemMatrix:
    def test_shape(self, system32, geom32):
        assert system32.matrix.shape == (
            geom32.n_views * geom32.n_channels,
            geom32.n_voxels,
        )

    def test_entries_nonnegative(self, system32):
        assert np.all(system32.matrix.data >= 0)

    def test_every_voxel_measured(self, system32):
        # The detector covers the image diagonal, so no empty columns.
        assert np.all(system32.column_nnz() > 0)

    def test_adjointness(self, system32, geom32, rng):
        x = rng.random(geom32.n_voxels)
        y = rng.random(geom32.n_views * geom32.n_channels)
        lhs = (system32.matrix @ x) @ y
        rhs = x @ (system32.matrix.T @ y)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_view_sum_preserves_mass(self, system32, geom32):
        """Each view's row block integrates the image: sum A x * spacing = sum x * h^2."""
        img = disk_phantom(geom32.n_pixels, radius=0.7, value=1.0)
        sino = system32.forward(img)
        mass = img.sum() * geom32.pixel_size**2
        view_sums = sino.sum(axis=1) * geom32.channel_spacing
        np.testing.assert_allclose(view_sums, mass, rtol=1e-6)

    def test_forward_shape_checks(self, system32):
        with pytest.raises(ValueError):
            system32.forward(np.zeros((5, 5)))
        with pytest.raises(ValueError):
            system32.back(np.zeros(7))

    def test_column_views_decomposition(self, system32, geom32):
        j = geom32.voxel_index(16, 16)
        views, chans, vals = system32.column_views(j)
        rows, vals2 = system32.column(j)
        np.testing.assert_array_equal(views * geom32.n_channels + chans, rows)
        np.testing.assert_array_equal(vals, vals2)
        # Sorted view-major.
        assert np.all(np.diff(views) >= 0)

    def test_per_view_ranges_contiguous(self, system32, geom32):
        j = geom32.voxel_index(10, 20)
        starts, counts = system32.per_view_ranges(j)
        views, chans, _ = system32.column_views(j)
        for v in range(geom32.n_views):
            mask = views == v
            assert counts[v] == mask.sum()
            if counts[v]:
                run = chans[mask]
                assert run[0] == starts[v]
                assert np.all(np.diff(run) == 1)  # contiguous run

    def test_center_voxel_footprint_center_channel(self, geom32, system32):
        # Centre-adjacent voxel's trace stays near the central channels.
        n = geom32.n_pixels
        j = geom32.voxel_index(n // 2, n // 2)
        _, chans, _ = system32.column_views(j)
        center = geom32.n_channels / 2
        assert np.all(np.abs(chans - center) < 4)

    def test_float32_storage(self, system32):
        assert system32.matrix.data.dtype == np.float32

    def test_nnz_matches_analytic_estimate(self, geom32, system32):
        analytic = geom32.n_views * geom32.mean_channels_per_view()
        measured = system32.nnz / geom32.n_voxels
        assert measured == pytest.approx(analytic, rel=0.1)

    def test_tolerance_drops_small_entries(self, geom32):
        loose = build_system_matrix(geom32, tol=1e-3)
        tight = build_system_matrix(geom32, tol=1e-12)
        assert loose.nnz <= tight.nnz


class TestForward:
    """``forward`` runs the ``c`` kernel's csc_matvec where it builds, and
    returns scipy's ``matrix @ x`` bit for bit either way."""

    def test_matches_scipy(self, system32, geom32, rng):
        x = rng.random(geom32.n_voxels) * (rng.random(geom32.n_voxels) > 0.3)
        sino = system32.forward(x.reshape(32, 32))
        assert sino.shape == geom32.sinogram_shape
        assert np.array_equal(sino.ravel(), system32.matrix @ x)

    def test_matches_scipy_with_empty_columns(self, rng):
        """A detector narrower than the image leaves whole columns empty."""
        geom = ParallelBeamGeometry(n_pixels=32, n_views=4, n_channels=8, channel_spacing=1.0)
        system = build_system_matrix(geom)
        assert np.any(system.column_nnz() == 0)
        x = rng.standard_normal(geom.n_voxels)
        assert np.array_equal(system.forward(x).ravel(), system.matrix @ x)

    def test_float64_matrix_runs_scipy(self, system32, geom32, rng):
        system = SystemMatrix(geom32, system32.matrix.astype(np.float64))
        x = rng.random(geom32.n_voxels)
        assert np.array_equal(system.forward(x).ravel(), system.matrix @ x)

    @pytest.mark.skipif(not C_LOADS, reason="the c kernel does not build on this host")
    def test_peak_is_the_output(self, system64, rng):
        """No copy of the matrix: the traced peak is the sinogram plus 1 MiB."""
        x = rng.random(system64.geometry.n_voxels)
        system64.forward(x)  # the library is loaded before tracing
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            sino = system64.forward(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert 8 * system64.nnz > 4 * 2**20  # scipy's float64 copy would break the bound
        assert peak <= sino.nbytes + 2**20, (peak, sino.nbytes)


# ----------------------------------------------------------------------
# The build: the c kernel's pass against the NumPy loop, its oracle
# ----------------------------------------------------------------------
#: Geometries the compiled build must reproduce bit for bit.
BATTERY = {
    **{f"scaled{n}": scaled_geometry(n) for n in (8, 16, 32, 64)},
    "odd_channels": ParallelBeamGeometry(n_pixels=12, n_views=10, n_channels=17),
    "non_unit_sizes": ParallelBeamGeometry(
        n_pixels=16, n_views=12, n_channels=29, pixel_size=0.37, channel_spacing=0.41
    ),
    "narrow_detector": ParallelBeamGeometry(
        n_pixels=32, n_views=4, n_channels=8, channel_spacing=1.0
    ),
    "right_angles": ParallelBeamGeometry(n_pixels=20, n_views=4, n_channels=40),
}


def _oracle_build(geometry, **kwargs) -> SystemMatrix:
    """``build_system_matrix`` on its NumPy loop: the library fails to load."""
    with no_compiler():
        return build_system_matrix(geometry, **kwargs)


@pytest.fixture
def compiled_builds(monkeypatch):
    """The calls ``build_system_matrix`` makes to the c kernel's pass."""
    calls = []
    build_csc = kernels.build_csc

    def spy(*args, **kwargs):
        calls.append(args)
        return build_csc(*args, **kwargs)

    monkeypatch.setattr(kernels, "build_csc", spy)
    return calls


def _assert_same_matrix(got, want) -> None:
    """Shape, the three arrays' dtypes and bytes, and the sorted flag."""
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.has_sorted_indices == want.has_sorted_indices


class TestCompiledBuild:
    """Where the library loads, the c kernel writes the float32 matrix
    straight to CSC, bit-identical to the NumPy loop's COO assembly."""

    @NEEDS_C
    @pytest.mark.parametrize("tol", [1e-9, 1e-3, 0.0])
    @pytest.mark.parametrize("name", sorted(BATTERY))
    def test_bit_identical_to_the_oracle(self, name, tol, compiled_builds):
        geometry = BATTERY[name]
        got = build_system_matrix(geometry, tol=tol).matrix
        assert len(compiled_builds) == 1
        want = _oracle_build(geometry, tol=tol).matrix
        assert len(compiled_builds) == 1
        assert want.indices.dtype == np.int32 and want.data.dtype == np.float32
        _assert_same_matrix(got, want)

    @NEEDS_C
    def test_bit_identical_at_128(self, compiled_builds):
        geometry = scaled_geometry(128)
        got = build_system_matrix(geometry).matrix
        assert compiled_builds
        _assert_same_matrix(got, _oracle_build(geometry).matrix)

    def test_battery_covers_its_edge_cases(self):
        """Empty columns, and views at exactly 0 and 90 degrees (a box
        width of 0, and one below 1e-12 of the other)."""
        narrow = BATTERY["narrow_detector"]
        assert np.any(build_system_matrix(narrow).column_nnz() == 0)
        _, _, w1, w2, _ = _view_footprints(BATTERY["right_angles"])
        assert w2[0] == 0.0 and w1[0] > 0.0
        assert 0.0 < w1[2] <= 1e-12 * w2[2]
        assert BATTERY["odd_channels"].n_channels % 2 == 1

    def test_a_tol_above_every_value_gives_an_empty_matrix(self):
        geometry = scaled_geometry(8)
        got = build_system_matrix(geometry, tol=1e9).matrix
        assert got.nnz == 0 and not np.any(got.indptr)
        _assert_same_matrix(got, _oracle_build(geometry, tol=1e9).matrix)

    def test_float64_takes_the_oracle(self, compiled_builds):
        geometry = BATTERY["odd_channels"]
        wide = build_system_matrix(geometry, dtype=np.float64).matrix
        assert not compiled_builds
        narrow = build_system_matrix(geometry).matrix
        assert wide.data.dtype == np.float64
        assert wide.indptr.tobytes() == narrow.indptr.tobytes()
        assert wide.indices.tobytes() == narrow.indices.tobytes()
        # The oracle rounds its float64 values to float32 for a float32 build.
        assert wide.data.astype(np.float32).tobytes() == narrow.data.tobytes()

    def test_a_library_that_fails_to_load_takes_the_oracle(self, compiled_builds):
        geometry = BATTERY["non_unit_sizes"]
        want = build_system_matrix(geometry).matrix
        compiled_builds.clear()
        got = _oracle_build(geometry).matrix
        assert not compiled_builds
        _assert_same_matrix(got, want)

    def test_the_int32_guard_picks_the_oracle_past_its_bound(self):
        """The pass allocates ``n_voxels * sum(spans)`` entries first; past
        int32 the predicate refuses it, without building anything."""
        limit = 2**31 - 1
        small = scaled_geometry(8)  # 64 voxels
        assert _compiled_build_runs(small, np.array([limit // 64]), np.float32) is C_LOADS
        assert not _compiled_build_runs(small, np.array([limit // 64 + 1]), np.float32)
        big = ParallelBeamGeometry(n_pixels=1024, n_views=1440, n_channels=2048)
        spans = _view_footprints(big)[4]
        assert big.n_voxels * int(spans.sum()) > 2**31
        assert not _compiled_build_runs(big, spans, np.float32)
        paper = ParallelBeamGeometry(n_pixels=512, n_views=720, n_channels=1024)
        assert _compiled_build_runs(paper, _view_footprints(paper)[4], np.float32) is C_LOADS
        many_rows = ParallelBeamGeometry(n_pixels=1, n_views=2**16, n_channels=2**15)
        assert not _compiled_build_runs(many_rows, np.ones(2**16, np.int64), np.float32)

    @NEEDS_C
    def test_build_peak_is_the_output(self):
        """The traced peak is the matrix plus its entry bound's slack: no COO
        parts, no float64 or int64 temporaries, no tocsc copy."""
        geometry = scaled_geometry(64)
        build_system_matrix(scaled_geometry(8))  # the library is loaded before tracing

        def traced_peak(build):
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                matrix = build(geometry).matrix
                return tracemalloc.get_traced_memory()[1] - base, matrix
            finally:
                tracemalloc.stop()

        peak, matrix = traced_peak(build_system_matrix)
        out = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
        assert peak <= 1.25 * out + 2**20, (peak, out)
        oracle_peak, _ = traced_peak(_oracle_build)
        assert oracle_peak > 2 * out + 2**20, (oracle_peak, out)

    def test_concurrent_builds_match_sequential_ones(self):
        """No static state: threads may build two geometries at once."""
        geometries = [BATTERY["scaled32"], BATTERY["non_unit_sizes"]] * 2
        want = [build_system_matrix(g).matrix for g in geometries]
        got = [None] * len(geometries)

        def build(i):
            got[i] = build_system_matrix(geometries[i]).matrix

        threads = [threading.Thread(target=build, args=(i,)) for i in range(len(geometries))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for g, w in zip(got, want):
            _assert_same_matrix(g, w)
