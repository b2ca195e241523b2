"""Sparse system matrix ``A`` for parallel-beam CT.

``A`` encodes the scanner geometry (§2.1 of the paper): entry ``A[i, j]`` is
the contribution of voxel ``j`` to sinogram measurement ``i`` — the average,
over detector channel ``i``'s width, of the chord length that channel's rays
cut through voxel ``j``.  For a square pixel viewed at angle ``theta`` the
chord-length profile along the detector axis is a trapezoid (the convolution
of boxes of widths ``h|cos(theta)|`` and ``h|sin(theta)|``), which we
integrate analytically against each channel's box.

The matrix is stored in CSC form: ICD needs fast access to *columns* of
``A`` (one column per voxel — exactly the access pattern §6 of the paper
highlights for general coordinate-descent solvers).  Row index ``i`` encodes
``(view, channel)`` as ``view * n_channels + channel``, so a column's rows,
which CSC keeps sorted, enumerate the voxel's sinusoidal trace through the
sinogram in view-major order.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Hashable, TypeVar

import numpy as np
import scipy.sparse as sp

from repro.ct.geometry import ParallelBeamGeometry

__all__ = ["trapezoid_cdf", "build_system_matrix", "shared_system", "clear_system_cache",
           "SystemMatrix", "DERIVED_LIMIT"]

#: Derived tables one matrix keeps (see :meth:`SystemMatrix.derived`); past
#: this many, the least recently used one goes.  A solve uses one SuperVoxel
#: grid and the ``c`` kernel's matrix checks, so slice-solve's two SV
#: drivers hold three keys.
DERIVED_LIMIT = 4

_T = TypeVar("_T")


def trapezoid_cdf(t: np.ndarray, w1: float, w2: float, h: float) -> np.ndarray:
    """Cumulative integral of the pixel-footprint trapezoid.

    The footprint ``L(t)`` of a square pixel of side ``h`` is supported on
    ``|t| <= (w1+w2)/2``, has plateau half-width ``|w1-w2|/2``, peak height
    ``h**2 / max(w1, w2)``, and total area ``h**2``.  This returns
    ``F(t) = integral of L from -inf to t``, vectorised over ``t``.

    Parameters
    ----------
    t:
        Detector-axis offsets from the pixel-centre projection.
    w1, w2:
        Footprint box widths ``h|cos(theta)|`` and ``h|sin(theta)|``.
    h:
        Pixel side length.
    """
    t = np.asarray(t, dtype=np.float64)
    wmax = max(w1, w2)
    wmin = min(w1, w2)
    if wmax <= 0.0:
        raise ValueError("degenerate footprint: both widths are zero")
    peak = h * h / wmax
    m = 0.5 * (wmax - wmin)  # plateau half-width
    big = 0.5 * (wmax + wmin)  # support half-width
    u = np.abs(t)

    # One-sided integral G(u) = integral of L over [0, u], u >= 0.
    plateau_part = peak * np.minimum(u, m)
    if wmin <= 1e-12 * wmax:
        wmin = 0.0  # numerically a pure box; avoid dividing by a subnormal
    if wmin > 0.0:
        # Ramp runs from m to big with value peak * (big - s) / wmin.
        s = np.clip(u, m, big)
        ramp_part = (peak / (2.0 * wmin)) * (wmin * wmin - (big - s) ** 2)
    else:
        ramp_part = np.zeros_like(u)
    g = plateau_part + ramp_part
    return 0.5 * h * h + np.sign(t) * g


def build_system_matrix(
    geometry: ParallelBeamGeometry,
    *,
    tol: float = 1e-9,
    dtype: np.dtype | type = np.float32,
) -> "SystemMatrix":
    """Build the sparse system matrix for ``geometry``.

    Returns a CSC matrix of shape ``(n_views * n_channels, n_voxels)`` whose
    columns hold their rows sorted.  The ``c`` kernel writes it column by
    column, straight into int32 ``indptr``/``indices`` and float32 ``data``
    (:func:`repro.core.kernels.build_csc`), where the library loads,
    ``dtype`` is float32 and int32 arrays hold the matrix (see
    :func:`_compiled_build_runs`).  Elsewhere a loop over views, vectorised
    over all pixels and footprint channel offsets within each view,
    assembles it through COO; it is the compiled pass's bit-identical
    oracle.  Both read each view's constants from :func:`_view_footprints`.

    Parameters
    ----------
    geometry:
        Scan description.
    tol:
        Entries with absolute value below ``tol`` are dropped.
    dtype:
        Storage dtype of the values (``float32`` halves memory with no
        observable effect on reconstruction quality at CT dynamic range).
    """
    cos_v, sin_v, w1_v, w2_v, spans = _view_footprints(geometry)
    shape = (geometry.n_views * geometry.n_channels, geometry.n_voxels)
    x, y = geometry.pixel_centers()
    if _compiled_build_runs(geometry, spans, dtype):
        # Function-local: repro.core imports repro.ct at module load.
        from repro.core.kernels import build_csc

        indptr, indices, data = build_csc(
            np.ascontiguousarray(x[0]), np.ascontiguousarray(y[:, 0]),
            cos_v, sin_v, w1_v, w2_v, spans,
            geometry.n_channels, geometry.channel_spacing, geometry.pixel_size, tol,
        )
        csc = sp.csc_matrix((data, indices, indptr), shape=shape)
        csc.has_canonical_format = True  # sorted, no duplicates, as built
        return SystemMatrix(geometry=geometry, matrix=csc)

    n_chan = geometry.n_channels
    spacing = geometry.channel_spacing
    h = geometry.pixel_size
    x = x.ravel()
    y = y.ravel()
    voxel_ids = np.arange(geometry.n_voxels, dtype=np.int64)

    # Empty first parts: a tol above every value gives an empty matrix.
    rows_parts: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    cols_parts: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    vals_parts: list[np.ndarray] = [np.empty(0)]

    views = zip(cos_v, sin_v, w1_v, w2_v, spans)
    for view, (cos, sin, w1, w2, span_channels) in enumerate(views):
        t = x * cos + y * sin
        half_span = 0.5 * (w1 + w2)
        c_first = geometry.channel_of(t - half_span)
        for k in range(span_channels):
            c = c_first + k
            valid = (c >= 0) & (c < n_chan)
            if not np.any(valid):
                continue
            lo = geometry.channel_lo_edge(c)
            hi = lo + spacing
            val = (trapezoid_cdf(hi - t, w1, w2, h) - trapezoid_cdf(lo - t, w1, w2, h)) / spacing
            keep = valid & (val > tol)
            if not np.any(keep):
                continue
            rows_parts.append(view * n_chan + c[keep])
            cols_parts.append(voxel_ids[keep])
            vals_parts.append(val[keep])

    rows = np.concatenate(rows_parts)
    cols = np.concatenate(cols_parts)
    vals = np.concatenate(vals_parts).astype(dtype)
    coo = sp.coo_matrix((vals, (rows, cols)), shape=shape)
    csc = coo.tocsc()
    csc.sort_indices()
    return SystemMatrix(geometry=geometry, matrix=csc)


def _view_footprints(
    geometry: ParallelBeamGeometry,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each view's ``(cos, sin, w1, w2, span_channels)``, five arrays.

    ``w1``/``w2`` are the footprint's box widths ``h|cos|`` and ``h|sin|``
    and ``span_channels`` how many channels a footprint may touch from its
    first one.  Past :meth:`ParallelBeamGeometry.view_cos_sin` the
    arithmetic is exact elementwise, so both builds read the same bits.
    """
    cos_v, sin_v = geometry.view_cos_sin()
    h = geometry.pixel_size
    w1 = np.abs(h * cos_v)
    w2 = np.abs(h * sin_v)
    spans = np.ceil((w1 + w2) / geometry.channel_spacing).astype(np.int64) + 1
    return cos_v, sin_v, w1, w2, spans


def _compiled_build_runs(geometry: ParallelBeamGeometry, spans: np.ndarray, dtype) -> bool:
    """Whether :func:`build_system_matrix` runs the ``c`` kernel's pass.

    It does for float32 values, when int32 holds both the entry bound
    ``n_voxels * spans.sum()`` (the pass allocates that much before it
    shrinks to the entries kept) and every row index, and the library
    loads.  Anything else (float64, a matrix too large, no compiler) takes
    the NumPy loop.
    """
    limit = np.iinfo(np.int32).max
    if np.dtype(dtype) != np.float32:
        return False
    bound = geometry.n_voxels * int(spans.sum())
    if max(bound, geometry.n_views * geometry.n_channels) > limit:
        return False
    from repro.core.kernels import load_c_kernel

    return load_c_kernel() is None


# A matrix depends only on its geometry, whose hash covers exactly the
# fields that shape it (``angles`` is derived and kept out), so one
# process-wide table keyed by the frozen geometry serves every caller.
_systems_lock = threading.Lock()
_systems: dict[ParallelBeamGeometry, "SystemMatrix"] = {}


def shared_system(
    geometry: ParallelBeamGeometry, *, build: Callable[..., "SystemMatrix"] = build_system_matrix
) -> "SystemMatrix":
    """The process-wide system matrix for ``geometry``, built once.

    On a miss it is ``build(geometry)``: callers pass the
    ``build_system_matrix`` name they look up, so a wrapper patched over
    that name sees every build.  The matrix is read-only and shared.
    """
    with _systems_lock:
        system = _systems.get(geometry)
    if system is not None:
        return system
    built = build(geometry)
    with _systems_lock:
        # A concurrent builder may have won the race; keep the first one so
        # every caller sees the same instance.
        return _systems.setdefault(geometry, built)


def clear_system_cache() -> None:
    """Drop every shared system matrix (tests, memory pressure)."""
    with _systems_lock:
        _systems.clear()


@dataclass
class SystemMatrix:
    """CSC system matrix plus geometry-aware accessors.

    Attributes
    ----------
    geometry:
        The scan geometry the matrix was built from.
    matrix:
        ``scipy.sparse.csc_matrix`` of shape
        ``(n_views * n_channels, n_voxels)`` with rows sorted within each
        column (view-major, then channel).
    """

    geometry: ParallelBeamGeometry
    matrix: sp.csc_matrix
    _derived: OrderedDict = field(
        default_factory=OrderedDict, init=False, repr=False, compare=False
    )
    _derived_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def derived(self, key: Hashable, build: Callable[[], _T]) -> _T:
        """The table ``build()`` derives from this matrix for ``key``, built once.

        A table that depends only on the matrix and ``key`` (a SuperVoxel
        grid, keyed by ``(sv_side, overlap)``; see
        :func:`repro.core.supervoxel.shared_grid`; or the ``c`` kernel's
        checks, :func:`repro.core.kernels.check_c_matrix`) is kept on the matrix, so
        it lives exactly as long as the matrix, or until
        :data:`DERIVED_LIMIT` more recently used keys evict it.  Builds run
        under the matrix's lock: concurrent callers of one key build it
        once.  A kept table is shared, so it must not be mutated.
        """
        with self._derived_lock:
            table = self._derived.get(key)
            if table is None:
                table = build()
                self._derived[key] = table
            self._derived.move_to_end(key)
            while len(self._derived) > DERIVED_LIMIT:
                self._derived.popitem(last=False)
        return table

    # ------------------------------------------------------------------
    # Projection operators
    # ------------------------------------------------------------------
    def forward(self, image: np.ndarray) -> np.ndarray:
        """Forward-project ``image`` (``(n, n)`` or flat) to a sinogram.

        The ``c`` kernel's ``csc_matvec`` runs it where it runs over this
        matrix; scipy's ``matrix @ flat`` (the same bits, over a float64
        copy of a float32 matrix) where it does not.
        """
        # Function-local: repro.core imports repro.ct at module load.
        from repro.core.kernels import c_runs_matrix, csc_matvec

        flat = np.asarray(image, dtype=np.float64).ravel()
        if flat.size != self.geometry.n_voxels:
            raise ValueError(
                f"image has {flat.size} voxels, geometry expects {self.geometry.n_voxels}"
            )
        if c_runs_matrix(self.matrix):
            sino = csc_matvec(self.matrix, flat)
        else:
            sino = self.matrix @ flat
        return sino.reshape(self.geometry.sinogram_shape)

    def back(self, sinogram: np.ndarray) -> np.ndarray:
        """Apply the adjoint ``A^T`` to a sinogram, returning an image."""
        flat = np.asarray(sinogram, dtype=np.float64).ravel()
        expected = self.geometry.n_views * self.geometry.n_channels
        if flat.size != expected:
            raise ValueError(f"sinogram has {flat.size} entries, geometry expects {expected}")
        img = self.matrix.T @ flat
        return img.reshape((self.geometry.n_pixels, self.geometry.n_pixels))

    # ------------------------------------------------------------------
    # Column (per-voxel) access — the ICD workhorse
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Total number of stored entries."""
        return self.matrix.nnz

    def column(self, voxel: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows and values of voxel ``voxel``'s column (views of CSC storage)."""
        lo = self.matrix.indptr[voxel]
        hi = self.matrix.indptr[voxel + 1]
        return self.matrix.indices[lo:hi], self.matrix.data[lo:hi]

    def column_views(self, voxel: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decompose a column into ``(views, channels, values)`` arrays."""
        rows, vals = self.column(voxel)
        n_chan = self.geometry.n_channels
        return rows // n_chan, rows % n_chan, vals

    def column_nnz(self) -> np.ndarray:
        """Per-voxel stored-entry counts, shape ``(n_voxels,)``."""
        return np.diff(self.matrix.indptr)

    def per_view_ranges(self, voxel: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-view contiguous channel ranges of a voxel's footprint.

        Returns
        -------
        starts, counts:
            ``int64`` arrays of length ``n_views``.  ``starts[v]`` is the
            first channel the voxel touches at view ``v`` and ``counts[v]``
            how many consecutive channels it touches (0 if clipped off the
            detector at that view).
        """
        views, chans, _ = self.column_views(voxel)
        n_views = self.geometry.n_views
        starts = np.zeros(n_views, dtype=np.int64)
        counts = np.zeros(n_views, dtype=np.int64)
        if views.size:
            # Rows are sorted view-major, channels ascending within a view.
            first_idx = np.searchsorted(views, np.arange(n_views), side="left")
            last_idx = np.searchsorted(views, np.arange(n_views), side="right")
            counts = (last_idx - first_idx).astype(np.int64)
            present = counts > 0
            starts[present] = chans[first_idx[present]]
        return starts, counts
