"""SuperVoxels and SuperVoxel Buffers (SVBs).

A SuperVoxel (SV) groups neighboring voxels into a square tile; because
neighboring voxels trace neighboring sinusoids through the sinogram, the
union of their footprints is, per view, one contiguous channel *band*.  The
SuperVoxel Buffer copies that band into a dense ``(n_views, W)`` rectangle
(``W`` = the widest band over all views, zero-padded elsewhere — exactly the
"perfect rectangle" of the paper's Fig. 4b), which linearises the accesses
that caching/prefetching (CPU) or coalescing (GPU) need.

This module is purely geometric/data-movement: it knows nothing about the
ICD math.  The PSV-ICD and GPU-ICD drivers combine it with
:class:`repro.core.voxel_update.SliceUpdater`, and the performance model
reads its band statistics to size caches and count traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ct.system_matrix import SystemMatrix
from repro.utils import check_positive

__all__ = ["SuperVoxel", "SuperVoxelGrid"]


def member_entries(values: np.ndarray, indptr: np.ndarray, voxels: np.ndarray) -> np.ndarray:
    """The CSC ``values`` of columns ``voxels`` (at least one), concatenated in order.

    Consecutive voxels are consecutive columns whose entries form one
    contiguous slice, so a tile costs one slice per tile row, not one per
    voxel.
    """
    cuts = np.flatnonzero(np.diff(voxels) != 1) + 1
    firsts = voxels[np.r_[0, cuts]]
    lasts = voxels[np.r_[cuts - 1, voxels.size - 1]]
    return np.concatenate([values[indptr[a] : indptr[b + 1]] for a, b in zip(firsts, lasts)])


@dataclass
class SuperVoxel:
    """One SuperVoxel: member voxels plus its SVB addressing tables.

    Attributes
    ----------
    index:
        Position in the grid's SV list.
    grid_pos:
        ``(tile_row, tile_col)`` in the SV tiling.
    voxels:
        Flat image indices of the member voxels (including shared boundary
        voxels when the grid was built with ``overlap > 0``).
    band_lo:
        Per-view first channel of the SV's sinogram band, shape ``(n_views,)``.
    band_width:
        Per-view band widths (before rectangular padding).
    width:
        SVB row width ``W = max(band_width)``.
    gather_idx:
        Flat global sinogram index for every SVB cell, ``-1`` for padding
        cells that fall off the detector; shape ``(n_views * W,)``.
    svb_indices:
        Concatenated per-member footprint positions *within the flat SVB*,
        aligned with each member's CSC column order.
    member_offsets:
        CSR-style offsets into ``svb_indices``; member ``m`` owns
        ``svb_indices[member_offsets[m]:member_offsets[m+1]]``.
    """

    index: int
    grid_pos: tuple[int, int]
    voxels: np.ndarray
    band_lo: np.ndarray
    band_width: np.ndarray
    width: int
    gather_idx: np.ndarray
    svb_indices: np.ndarray
    member_offsets: np.ndarray
    _valid: np.ndarray = field(init=False, repr=False)
    _valid_gather: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._valid = self.gather_idx >= 0
        self._valid_gather = np.ascontiguousarray(self.gather_idx[self._valid])
        # The valid gather indices are unique by construction (within a view
        # the band channels strictly increase; across views the flat offsets
        # are disjoint), which is what lets the merge paths use plain fancy
        # `+=` instead of np.add.at.  Cheap one-time guard against a future
        # grid change silently breaking that invariant: in view-major order
        # they strictly increase, which implies unique.
        vg = self._valid_gather
        if not np.all(vg[1:] > vg[:-1]):
            raise AssertionError(f"SV {self.index}: valid gather indices must strictly increase")

    @property
    def valid_mask(self) -> np.ndarray:
        """Boolean mask of SVB cells that map to real sinogram entries."""
        return self._valid

    @property
    def valid_gather(self) -> np.ndarray:
        """Flat sinogram indices of the valid SVB cells (unique, cached)."""
        return self._valid_gather

    @property
    def n_voxels(self) -> int:
        """Number of member voxels."""
        return int(self.voxels.size)

    @property
    def svb_cells(self) -> int:
        """Number of cells in the rectangular SVB (views * W)."""
        return int(self.gather_idx.size)

    def svb_bytes(self, bytes_per_entry: int = 4) -> int:
        """SVB memory footprint — what must fit in a cache level."""
        return self.svb_cells * bytes_per_entry

    def member_footprint(self, member: int) -> np.ndarray:
        """SVB-flat footprint indices of the ``member``-th voxel."""
        lo = self.member_offsets[member]
        hi = self.member_offsets[member + 1]
        return self.svb_indices[lo:hi]

    # ------------------------------------------------------------------
    # Data movement (the "create SVB" and "write back" kernels of Alg. 3)
    # ------------------------------------------------------------------
    def extract(self, sino_flat: np.ndarray) -> np.ndarray:
        """Copy this SV's sinogram band into a fresh flat SVB (padding = 0)."""
        svb = np.zeros(self.svb_cells, dtype=np.float64)
        svb[self._valid] = sino_flat[self._valid_gather]
        return svb

    def accumulate_delta(
        self, svb_new: np.ndarray, svb_orig: np.ndarray, target_flat: np.ndarray
    ) -> None:
        """Add ``svb_new - svb_orig`` back into the global sinogram.

        This is the atomic/locked merge step: PSV-ICD performs it under a
        lock per SV (Alg. 2 lines 17-19); GPU-ICD performs it as a separate
        kernel of atomic adds after a whole batch (Alg. 3 line 30).  Plain
        ``+=`` on disjoint-or-overlapping bands is numerically identical to
        both.  Because the valid gather indices are unique (checked at
        construction), fancy `+=` equals ``np.add.at`` bit-for-bit while
        skipping its slow unbuffered loop.
        """
        delta = svb_new[self._valid] - svb_orig[self._valid]
        target_flat[self._valid_gather] += delta


class SuperVoxelGrid:
    """Tiling of a slice into SuperVoxels, with checkerboard grouping.

    Parameters
    ----------
    system:
        System matrix (bands are derived from the actual stored footprints,
        so every column entry is guaranteed to fall inside its SV's band).
    sv_side:
        Tile side length in voxels (the paper's key tuning parameter:
        13 for PSV-ICD, 33 for GPU-ICD on 512^2 images).
    overlap:
        How many voxels adjacent SVs share across each boundary ("Adjacent
        SVs share boundary voxels, as in PSV-ICD, to obtain faster
        convergence", §3.2).  Shared voxels appear in both SVs' member lists.
    """

    def __init__(self, system: SystemMatrix, sv_side: int, *, overlap: int = 1) -> None:
        check_positive("sv_side", sv_side)
        if overlap < 0:
            raise ValueError(f"overlap must be >= 0, got {overlap}")
        if overlap >= sv_side:
            raise ValueError(f"overlap ({overlap}) must be smaller than sv_side ({sv_side})")
        self.system = system
        self.geometry = system.geometry
        self.sv_side = int(sv_side)
        self.overlap = int(overlap)

        n = self.geometry.n_pixels
        n_tiles = (n + sv_side - 1) // sv_side
        self.shape = (n_tiles, n_tiles)
        self.svs: list[SuperVoxel] = []
        for bi in range(n_tiles):
            for bj in range(n_tiles):
                self.svs.append(self._build_sv(len(self.svs), bi, bj))

    # ------------------------------------------------------------------
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
        indptr = self.system.matrix.indptr
        counts = indptr[voxels + 1] - indptr[voxels]
        offsets = np.zeros(voxels.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])

        # One gather of every member's CSC rows, in member order.
        # Temporaries keep the CSC index dtype.
        entries = member_entries(self.system.matrix.indices, indptr, voxels)
        views = entries // n_chan

        # Split the entries into (member, view) runs.  A column's rows are
        # sorted view-major, so a run's first and last entries hold that
        # member's lowest and highest channel in that view.
        member = np.repeat(np.arange(voxels.size, dtype=entries.dtype), counts)
        run_start = np.ones(entries.size, dtype=bool)
        run_start[1:] = (views[1:] != views[:-1]) | (member[1:] != member[:-1])
        run_end = np.ones(entries.size, dtype=bool)
        run_end[:-1] = run_start[1:]
        first = np.flatnonzero(run_start)
        last = np.flatnonzero(run_end)
        lo = np.full((voxels.size, n_views), n_chan, dtype=entries.dtype)
        lo[member[first], views[first]] = entries[first] - views[first] * n_chan
        hi = np.zeros((voxels.size, n_views), dtype=entries.dtype)
        hi[member[last], views[last]] = entries[last] - views[last] * n_chan + 1
        band_lo = lo.min(axis=0).astype(np.int64)
        band_hi = hi.max(axis=0).astype(np.int64)
        # Views where no member has entries (possible only for clipped
        # detectors) get an empty band at channel 0.
        empty = band_lo > band_hi
        band_lo[empty] = 0
        band_hi[empty] = 0
        band_width = band_hi - band_lo
        width = int(band_width.max()) if band_width.size else 0
        width = max(width, 1)

        # Global gather map for the rectangular SVB.
        chan = band_lo[:, None] + np.arange(width)[None, :]
        valid = chan < n_chan
        gather = np.where(valid, np.arange(n_views)[:, None] * n_chan + chan, -1)
        gather_idx = gather.ravel().astype(np.int64)

        # Per-member footprint positions within the flat SVB: entry
        # (v, c) = v * n_chan + c lands in cell v * width + c - band_lo[v].
        shift = np.arange(n_views) * (n_chan - width) + band_lo
        svb_indices = np.subtract(entries, shift.astype(entries.dtype)[views], dtype=np.int64)
        return SuperVoxel(
            index=index,
            grid_pos=(bi, bj),
            voxels=voxels,
            band_lo=band_lo,
            band_width=band_width,
            width=width,
            gather_idx=gather_idx,
            svb_indices=svb_indices,
            member_offsets=offsets,
        )

    # ------------------------------------------------------------------
    @property
    def n_svs(self) -> int:
        """Number of SuperVoxels in the tiling."""
        return len(self.svs)

    def checkerboard_groups(self) -> list[list[int]]:
        """Partition SV indices into 4 non-adjacent groups (§3.2, Fig. 3).

        Group id is ``(tile_row % 2) * 2 + (tile_col % 2)``; two SVs in the
        same group are at least one full tile apart in both axes, so (for
        ``sv_side > 2 * overlap``) they share no voxels and no image-domain
        boundary, and can be updated concurrently without voxel conflicts.
        """
        groups: list[list[int]] = [[], [], [], []]
        for sv in self.svs:
            bi, bj = sv.grid_pos
            groups[(bi % 2) * 2 + (bj % 2)].append(sv.index)
        return groups

    def adjacent_pairs(self) -> list[tuple[int, int]]:
        """All pairs of SVs that touch (8-connected tiles) — for grouping tests."""
        n_tiles_r, n_tiles_c = self.shape
        pairs = []
        for bi in range(n_tiles_r):
            for bj in range(n_tiles_c):
                a = bi * n_tiles_c + bj
                for dr, dc in [(0, 1), (1, -1), (1, 0), (1, 1)]:
                    ri, rj = bi + dr, bj + dc
                    if 0 <= ri < n_tiles_r and 0 <= rj < n_tiles_c:
                        pairs.append((a, ri * n_tiles_c + rj))
        return pairs

    def mean_svb_cells(self) -> float:
        """Average SVB size in cells — the quantity the L2 model cares about."""
        return float(np.mean([sv.svb_cells for sv in self.svs]))
