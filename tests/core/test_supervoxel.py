"""Tests for SuperVoxels, SVBs, and checkerboard grouping."""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro.core import (
    GPUICDParams,
    SuperVoxelGrid,
    gpu_icd_reconstruct,
    psv_icd_reconstruct,
)
from repro.core.kernels import load_c_kernel, no_compiler
from repro.core.supervoxel import SuperVoxel
from repro.ct import (
    ParallelBeamGeometry,
    build_system_matrix,
    scaled_geometry,
    shepp_logan,
    simulate_scan,
)

#: Whether the compiled kernel builds and loads on this host.
NEEDS_C = pytest.mark.skipif(
    load_c_kernel() is not None, reason="the c kernel does not build on this host"
)

#: Every array a grid hands its consumers.
SV_ARRAYS = ("voxels", "band_lo", "band_width", "gather_idx", "view_shift")


class ReferenceGrid(SuperVoxelGrid):
    """The original per-voxel band build: the oracle for the array build.

    It also keeps every member's SVB positions, ``v * W + (c - band_lo[v])``
    per stored entry ``(v, c)``, in ``footprints[sv_index][member]``: the
    table the compact grid no longer stores and must reproduce through
    ``member_footprint``.
    """

    def __init__(self, system, sv_side, *, overlap=1):
        self.footprints: list[list[np.ndarray]] = []
        super().__init__(system, sv_side, overlap=overlap)

    def _build_sv(self, index: int, bi: int, bj: int) -> SuperVoxel:
        n = self.geometry.n_pixels
        s = self.sv_side
        r0 = max(bi * s - self.overlap, 0)
        r1 = min((bi + 1) * s + self.overlap, n)
        c0 = max(bj * s - self.overlap, 0)
        c1 = min((bj + 1) * s + self.overlap, n)
        rows, cols = np.meshgrid(np.arange(r0, r1), np.arange(c0, c1), indexing="ij")
        voxels = (rows * n + cols).ravel().astype(np.int64)

        n_views = self.geometry.n_views
        n_chan = self.geometry.n_channels
        indptr = self.matrix.indptr
        all_rows = self.matrix.indices

        band_lo = np.full(n_views, n_chan, dtype=np.int64)
        band_hi = np.zeros(n_views, dtype=np.int64)
        member_rows: list[np.ndarray] = []
        for j in voxels:
            r = all_rows[indptr[j] : indptr[j + 1]]
            member_rows.append(r)
            v = r // n_chan
            c = r % n_chan
            np.minimum.at(band_lo, v, c)
            np.maximum.at(band_hi, v, c + 1)
        empty = band_lo > band_hi
        band_lo[empty] = 0
        band_hi[empty] = 0
        band_width = band_hi - band_lo
        width = int(band_width.max()) if band_width.size else 0
        width = max(width, 1)

        chan = band_lo[:, None] + np.arange(width)[None, :]
        valid = chan < n_chan
        gather = np.where(valid, np.arange(n_views)[:, None] * n_chan + chan, -1)
        gather_idx = gather.ravel().astype(np.int64)

        view_shift = np.empty(n_views, dtype=np.int64)
        for v in range(n_views):
            view_shift[v] = v * (n_chan - width) + band_lo[v]
        footprints = []
        for r in member_rows:
            v = r // n_chan
            c = r % n_chan
            footprints.append(v * width + (c - band_lo[v]))
        self.footprints.append(footprints)
        return SuperVoxel(
            index=index,
            grid_pos=(bi, bj),
            voxels=voxels,
            band_lo=band_lo,
            band_width=band_width,
            width=width,
            gather_idx=gather_idx,
            view_shift=view_shift,
            matrix=self.matrix,
        )


def assert_grids_equal(grid: SuperVoxelGrid, ref: ReferenceGrid) -> None:
    """Same SVs with the same arrays, equal in value and dtype, and every
    member's footprint at the reference's SVB positions."""
    assert grid.shape == ref.shape
    assert grid.n_svs == ref.n_svs
    for sv, rsv in zip(grid.svs, ref.svs):
        assert sv.grid_pos == rsv.grid_pos
        assert sv.width == rsv.width and type(sv.width) is type(rsv.width)
        for name in SV_ARRAYS:
            got, want = getattr(sv, name), getattr(rsv, name)
            assert got.dtype == want.dtype, (sv.index, name)
            np.testing.assert_array_equal(got, want, err_msg=f"SV {sv.index} {name}")
        footprints = ref.footprints[sv.index]
        assert len(footprints) == sv.n_voxels
        for m, want in enumerate(footprints):
            got = sv.member_footprint(m)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want, err_msg=f"SV {sv.index} member {m}")


def grid_nbytes(grid: SuperVoxelGrid) -> int:
    """Bytes of every array the grid's SVs hold."""
    return sum(
        value.nbytes
        for sv in grid.svs
        for value in vars(sv).values()
        if isinstance(value, np.ndarray)
    )


@pytest.fixture(scope="module")
def grid(system32):
    return SuperVoxelGrid(system32, sv_side=8, overlap=1)


def clipped_system(n_views: int, n_channels: int):
    """A detector narrower than the image: some voxels miss whole views."""
    geom = ParallelBeamGeometry(
        n_pixels=32, n_views=n_views, n_channels=n_channels, channel_spacing=1.0
    )
    return build_system_matrix(geom)


class TestMatchesReferenceBuild:
    """The array build reproduces the per-voxel build exactly."""

    @pytest.mark.parametrize("sv_side", range(3, 34))
    def test_32(self, system32, sv_side):
        overlap = sv_side % 3
        grid = SuperVoxelGrid(system32, sv_side, overlap=overlap)
        assert_grids_equal(grid, ReferenceGrid(system32, sv_side, overlap=overlap))

    @pytest.mark.parametrize("sv_side, overlap", [(5, 2), (7, 0), (13, 1), (16, 2), (33, 1)])
    def test_64(self, system64, sv_side, overlap):
        grid = SuperVoxelGrid(system64, sv_side, overlap=overlap)
        assert_grids_equal(grid, ReferenceGrid(system64, sv_side, overlap=overlap))

    def test_clipped_detector(self):
        system = clipped_system(24, 16)
        grid = SuperVoxelGrid(system, 8)
        # Some SVs miss whole views: the empty-band branch runs.
        assert sum(int((sv.band_width == 0).sum()) for sv in grid.svs) == 36
        assert_grids_equal(grid, ReferenceGrid(system, 8))

    def test_consecutive_members_meet_in_one_view(self):
        """On a 4-channel detector a voxel's last view can be the next
        voxel's first, so the (member, view) runs must split at members."""
        system = clipped_system(12, 4)
        m = system.matrix
        counts = np.diff(m.indptr)
        cols = np.flatnonzero((counts[:-1] > 0) & (counts[1:] > 0))
        last_view = m.indices[m.indptr[cols + 1] - 1] // 4
        next_first_view = m.indices[m.indptr[cols + 1]] // 4
        assert np.any(last_view == next_first_view)
        assert_grids_equal(SuperVoxelGrid(system, 8), ReferenceGrid(system, 8))

    def test_duplicate_gather_index_rejected(self, grid):
        sv = grid.svs[0]
        gather_idx = sv.gather_idx.copy()
        gather_idx[1] = gather_idx[0]
        with pytest.raises(AssertionError, match="gather indices"):
            dataclasses.replace(sv, gather_idx=gather_idx)

    def test_psv_icd_bit_identical(self, scan32, system32):
        kw = dict(sv_side=8, max_equits=2, seed=0, track_cost=False)
        a = psv_icd_reconstruct(scan32, system32, **kw)
        b = psv_icd_reconstruct(scan32, system32, grid=ReferenceGrid(system32, 8), **kw)
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.error_sinogram, b.error_sinogram)

    def test_gpu_icd_bit_identical(self, scan32, system32):
        params = GPUICDParams(sv_side=8, threadblocks_per_sv=4, batch_size=4)
        kw = dict(params=params, max_equits=2, seed=0, track_cost=False)
        a = gpu_icd_reconstruct(scan32, system32, **kw)
        b = gpu_icd_reconstruct(scan32, system32, grid=ReferenceGrid(system32, 8), **kw)
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.error_sinogram, b.error_sinogram)


class TestCompactLayout:
    """A grid stores a per-view shift table, not a position per footprint entry."""

    def test_64_grid_is_a_fifth_of_the_matrix(self, system64):
        m = system64.matrix
        ratio = grid_nbytes(SuperVoxelGrid(system64, 13)) / (m.data.nbytes + m.indices.nbytes)
        assert ratio <= 0.2, ratio

    @pytest.mark.skipif(
        not os.environ.get("REPRO_TEST_LARGE"),
        reason="the 256^2 system matrix takes about 10 s to build; set REPRO_TEST_LARGE=1",
    )
    def test_256_grid_fits_100_mb(self):
        system = build_system_matrix(scaled_geometry(256))
        assert grid_nbytes(SuperVoxelGrid(system, 13)) <= 100e6

    def test_shift_table_disagreeing_with_the_band_rejected(self, grid):
        sv = grid.svs[0]
        view_shift = sv.view_shift.copy()
        view_shift[0] -= sv.width  # view 0's entries would land in view 1's row
        with pytest.raises(ValueError, match="disagree with its band"):
            dataclasses.replace(sv, view_shift=view_shift)

    def test_footprint_outside_the_svb_rejected(self, grid):
        """A band one channel narrower than its members' footprints, with
        tables that agree with it, still leaves a footprint outside."""
        sv = grid.svs[0]
        band_lo = sv.band_lo.copy()
        band_lo[0] += 1
        n_chan, width = sv.n_channels, sv.width
        views = np.arange(band_lo.size)
        chan = band_lo[:, None] + np.arange(width)
        gather_idx = np.where(chan < n_chan, views[:, None] * n_chan + chan, -1).ravel()
        with pytest.raises(ValueError, match="outside its SVB"):
            dataclasses.replace(
                sv, band_lo=band_lo, gather_idx=gather_idx,
                view_shift=views * (n_chan - width) + band_lo,
            )

    def test_voxel_out_of_range_rejected(self, grid, geom32):
        sv = grid.svs[0]
        voxels = sv.voxels.copy()
        voxels[-1] = geom32.n_voxels
        with pytest.raises(ValueError, match="voxel out of range"):
            dataclasses.replace(sv, voxels=voxels)

    @NEEDS_C
    @pytest.mark.parametrize("n_views, n_channels", [(24, 16), (12, 4)])
    def test_c_matches_python_on_clipped_detectors(self, n_views, n_channels):
        """Views with empty bands, and (on 4 channels) a voxel's last view
        that is the next voxel's first: both SV drivers, bit for bit."""
        system = clipped_system(n_views, n_channels)
        scan = simulate_scan(shepp_logan(32), system, dose=1e5, seed=3)
        params = GPUICDParams(sv_side=8, threadblocks_per_sv=4, batch_size=4)
        for driver, kw in (
            (psv_icd_reconstruct, dict(sv_side=8, n_cores=4)),
            (gpu_icd_reconstruct, dict(params=params)),
        ):
            kw.update(max_equits=2, seed=0, track_cost=False)
            with no_compiler():
                ref = driver(scan, system, **kw)
            res = driver(scan, system, **kw)
            assert np.array_equal(res.image, ref.image), driver.__name__
            assert np.array_equal(res.error_sinogram, ref.error_sinogram), driver.__name__


class TestGridStructure:
    def test_tile_count(self, grid, geom32):
        assert grid.shape == (4, 4)
        assert grid.n_svs == 16

    def test_all_voxels_covered(self, grid, geom32):
        covered = np.zeros(geom32.n_voxels, dtype=bool)
        for sv in grid.svs:
            covered[sv.voxels] = True
        assert covered.all()

    def test_overlap_shares_boundary_voxels(self, system32):
        with_overlap = SuperVoxelGrid(system32, sv_side=8, overlap=1)
        without = SuperVoxelGrid(system32, sv_side=8, overlap=0)
        n_with = sum(sv.n_voxels for sv in with_overlap.svs)
        n_without = sum(sv.n_voxels for sv in without.svs)
        assert n_without == system32.geometry.n_voxels  # exact partition
        assert n_with > n_without  # shared boundaries double-count

    def test_invalid_parameters(self, system32):
        with pytest.raises(ValueError):
            SuperVoxelGrid(system32, sv_side=0)
        with pytest.raises(ValueError):
            SuperVoxelGrid(system32, sv_side=4, overlap=4)
        with pytest.raises(ValueError):
            SuperVoxelGrid(system32, sv_side=4, overlap=-1)

    def test_uneven_tiling(self, system32):
        grid = SuperVoxelGrid(system32, sv_side=7, overlap=0)
        assert grid.shape == (5, 5)
        covered = np.zeros(system32.geometry.n_voxels, dtype=bool)
        for sv in grid.svs:
            covered[sv.voxels] = True
        assert covered.all()


class TestBands:
    def test_band_contains_all_member_footprints(self, grid, system32, geom32):
        """Every stored A entry of every member falls inside the SV's band."""
        n_chan = geom32.n_channels
        for sv in grid.svs[:4]:
            for j in sv.voxels[::7]:
                rows, _ = system32.column(int(j))
                views = rows // n_chan
                chans = rows % n_chan
                assert np.all(chans >= sv.band_lo[views])
                assert np.all(chans < sv.band_lo[views] + sv.width)

    def test_svb_indices_consistent(self, grid, geom32):
        """Member footprint indices address valid SVB cells mapping back to
        the right global sinogram positions."""
        sv = grid.svs[5]
        for m in range(0, sv.n_voxels, 11):
            idx = sv.member_footprint(m)
            assert np.all(idx >= 0)
            assert np.all(idx < sv.svb_cells)
            # Round-trip through the gather map.
            assert np.all(sv.gather_idx[idx] >= 0)

    def test_band_width_reasonable(self, grid):
        for sv in grid.svs:
            assert 1 <= sv.width <= grid.geometry.n_channels


class TestExtractWriteback:
    def test_extract_roundtrip(self, grid, geom32, rng):
        sino = rng.random(geom32.n_views * geom32.n_channels)
        sv = grid.svs[0]
        svb = sv.extract(sino)
        valid = sv.gather_idx >= 0
        np.testing.assert_array_equal(svb[valid], sino[sv.gather_idx[valid]])
        assert np.all(svb[~valid] == 0)

    def test_writeback_applies_delta(self, grid, geom32, rng):
        sino = rng.random(geom32.n_views * geom32.n_channels)
        sv = grid.svs[3]
        orig = sv.extract(sino)
        new = orig.copy()
        new += 0.5  # uniform delta on the whole SVB
        target = sino.copy()
        sv.accumulate_delta(new, orig, target)
        valid_idx = sv.gather_idx[sv.gather_idx >= 0]
        np.testing.assert_allclose(target[valid_idx], sino[valid_idx] + 0.5)
        untouched = np.setdiff1d(np.arange(sino.size), valid_idx)
        np.testing.assert_array_equal(target[untouched], sino[untouched])

    def test_writeback_zero_delta_is_noop(self, grid, geom32, rng):
        sino = rng.random(geom32.n_views * geom32.n_channels)
        sv = grid.svs[2]
        svb = sv.extract(sino)
        target = sino.copy()
        sv.accumulate_delta(svb, svb.copy(), target)
        np.testing.assert_array_equal(target, sino)


class TestCheckerboard:
    def test_four_groups_partition(self, grid):
        groups = grid.checkerboard_groups()
        assert len(groups) == 4
        all_ids = sorted(i for g in groups for i in g)
        assert all_ids == list(range(grid.n_svs))

    def test_same_group_svs_share_no_voxels(self, grid):
        """The correctness property §3.2 needs: concurrent SVs never share
        (boundary) voxels."""
        groups = grid.checkerboard_groups()
        for group in groups:
            seen = {}
            for sv_id in group:
                vox = set(grid.svs[sv_id].voxels.tolist())
                for other_id, other_vox in seen.items():
                    assert not (vox & other_vox), (sv_id, other_id)
                seen[sv_id] = vox

    def test_same_group_svs_not_adjacent(self, grid):
        groups = grid.checkerboard_groups()
        adjacency = set(grid.adjacent_pairs())
        adjacency |= {(b, a) for a, b in adjacency}
        for group in groups:
            for a in group:
                for b in group:
                    if a != b:
                        assert (a, b) not in adjacency

    def test_mean_svb_cells_positive(self, grid):
        assert grid.mean_svb_cells() > 0
