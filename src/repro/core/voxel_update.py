"""Alg. 1 — the single-voxel ICD update, the foundation of every driver.

The update for voxel ``j`` at current value ``v``:

    theta1 = - sum_i  w_i * A_ij * e_i          (over the voxel's footprint)
    theta2 =   sum_i  w_i * A_ij^2
    btilde_k = b_k * rho'(v - x_k) / (2 (v - x_k))     for each neighbor k
    u = v + (-theta1 + 2 sum_k btilde_k (x_k - v)) / (theta2 + 2 sum_k btilde_k)
    e_i -= A_ij * (u - v)                        (error-sinogram maintenance)

Two data-independent quantities are hoisted out of the iteration loop by
:class:`SliceUpdater`:

* ``theta2`` per voxel — it depends only on ``A`` and ``W``, never on ``x``;
* the fused products ``wa = w_i * A_ij`` per stored entry — so theta1 is a
  single gather plus dot product per update.

The same updater serves the sequential driver (footprint indices into the
global error sinogram) and the SuperVoxel drivers (footprint indices into a
private SVB): the caller passes whichever index array matches the buffer.
It is also what both kernels of :mod:`repro.core.kernels` run over: its
per-voxel methods are the ``python`` oracle, and its arrays, the width-8
neighbour tables included, are what the ``c`` kernel reads.

Canonical arithmetic
--------------------
The update math follows a *canonical arithmetic contract* so that the
interpreted path here and the compiled C kernel produce **bit-identical**
iterates:

* every reduction (the theta1 dot product, the two neighbor sums) is a
  strict left-to-right sequential sum.  NumPy realises this with
  ``np.cumsum`` (verified bit-equal to a scalar accumulation loop), never
  with ``np.sum`` / ``@`` / ``np.add.reduceat``, whose pairwise/SIMD
  orderings a compiled scalar loop cannot reproduce;
* transcendentals (the q-GGMRF ``pow``) are evaluated one scalar at a time
  through libm (``math.pow``), which is what compiled code emits — NumPy's
  vectorized pow is elementwise-deterministic but *not* libm-identical;
* the fused products ``wa`` and the column values ``a_data`` are stored in
  the system matrix's dtype (float32 halves the hot-path working set) and
  every accumulation upcasts them entry-wise to float64.

The build fills ``wa`` and theta2's terms ``(w*A)*A`` one column block of
at most :data:`BUILD_BLOCK` stored entries at a time, in one pass of the
``c`` kernel where it runs over the matrix and in NumPy where it does not
(the oracle: no compiler, a float64 or int64 matrix), and sums each
block's terms per column with ``np.add.reduceat``.  The segments are the
columns either way, so the bits do not depend on the block size, and the
build's one float64 temporary holds one block, not the whole matrix.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.core.kernels import _c_unsupported, build_c_struct, c_runs_matrix, fill_products
from repro.core.prior import Neighborhood, Prior
from repro.ct.sinogram import ScanData
from repro.ct.system_matrix import SystemMatrix

__all__ = ["compute_thetas", "solve_surrogate", "solve_surrogate_scalar", "SliceUpdater"]

#: Stored entries per column block of the updater build (a longer column is
#: a block of its own); the build's one float64 temporary holds one block.
BUILD_BLOCK = 1 << 17


def compute_thetas(
    e_vals: np.ndarray, w_vals: np.ndarray, a_vals: np.ndarray
) -> tuple[float, float]:
    """Reference theta1/theta2 (steps 3-6 of Alg. 1), unfused.

    The drivers use the fused path in :class:`SliceUpdater`; this function
    exists as the directly-testable specification.
    """
    theta1 = -float(np.sum(w_vals * a_vals * e_vals))
    theta2 = float(np.sum(w_vals * a_vals * a_vals))
    return theta1, theta2


def solve_surrogate(
    v: float,
    theta1: float,
    theta2: float,
    neighbor_values: np.ndarray,
    neighbor_weights: np.ndarray,
    prior: Prior,
    *,
    positivity: bool = True,
) -> float:
    """Minimise the local surrogate — the paper's "computationally inexpensive func".

    This is the readable array-form *specification*; the drivers run
    :func:`solve_surrogate_scalar`, whose strict-sequential arithmetic is
    reproducible bit-for-bit by every kernel.  The two agree to the
    last few ulps (they differ only in summation order and pow provenance).
    """
    btilde = neighbor_weights * prior.influence_ratio(v - neighbor_values)
    denom = theta2 + 2.0 * float(np.sum(btilde))
    if denom <= 0.0:
        # A voxel with no measurements and no neighbors: leave unchanged.
        return v
    numer = -theta1 + 2.0 * float(np.sum(btilde * (neighbor_values - v)))
    u = v + numer / denom
    if positivity:
        u = max(u, 0.0)
    return u


def solve_surrogate_scalar(
    v: float,
    theta1: float,
    theta2: float,
    neighbor_values,
    neighbor_weights,
    prior: Prior,
    *,
    positivity: bool = True,
) -> float:
    """Canonical scalar surrogate solve (see the module docstring).

    ``neighbor_values`` / ``neighbor_weights`` are sequences of floats;
    entries with weight 0 are exact no-ops on both sums, which is what lets
    the ``c`` kernel pad every voxel's neighborhood to a fixed width 8 and
    still match this function bit-for-bit.
    """
    s1 = 0.0
    s2 = 0.0
    ratio = prior.influence_ratio_scalar
    for xk, wk in zip(neighbor_values, neighbor_weights):
        btl = wk * ratio(v - xk)
        s1 += btl
        s2 += btl * (xk - v)
    denom = theta2 + 2.0 * s1
    if denom <= 0.0:
        # A voxel with no measurements and no neighbors: leave unchanged.
        return v
    u = v + (-theta1 + 2.0 * s2) / denom
    if positivity and u < 0.0:
        u = 0.0
    return u


def _column_blocks(indptr: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive column ranges of at most BUILD_BLOCK stored entries, or one column."""
    blocks = []
    c0, n_cols = 0, indptr.size - 1
    while c0 < n_cols:
        c1 = int(np.searchsorted(indptr, indptr[c0] + BUILD_BLOCK, side="right")) - 1
        blocks.append((c0, max(c1, c0 + 1)))
        c0 = blocks[-1][1]
    return blocks


def _fused_products(A, weights: np.ndarray, store_dtype) -> tuple[np.ndarray, np.ndarray]:
    """``(wa, theta2)`` for the CSC matrix ``A``, one column block at a time.

    Per stored entry the weight at its row (widened to float64 before the
    gather, so float32 weights upcast exactly) times the entry gives ``wa``,
    rounded to ``store_dtype``, and that product times the entry again
    gives the theta2 term; ``np.add.reduceat`` sums a block's terms over
    its nonempty columns, and an empty column's theta2 stays 0.
    """
    indptr = A.indptr
    w = np.asarray(weights.ravel(), dtype=np.float64)
    wa = np.empty(A.nnz, dtype=store_dtype)
    theta2 = np.zeros(A.shape[1], dtype=np.float64)
    blocks = _column_blocks(indptr)
    # The c kernel fills each block's terms into one buffer sized by the
    # largest block; NumPy allocates a block's terms as it goes.
    buf = None
    if c_runs_matrix(A):
        buf = np.empty(max((int(indptr[c1] - indptr[c0]) for c0, c1 in blocks), default=0))
    for c0, c1 in blocks:
        lo, hi = int(indptr[c0]), int(indptr[c1])
        rows, a = A.indices[lo:hi], A.data[lo:hi]
        if buf is not None:
            terms = buf[: hi - lo]
            fill_products(rows, a, w, wa[lo:hi], terms)
        else:
            terms = w[rows]
            terms *= a
            wa[lo:hi] = terms
            terms *= a
        cols = c0 + np.flatnonzero(indptr[c0 + 1 : c1 + 1] > indptr[c0:c1])
        if cols.size:
            theta2[cols] = np.add.reduceat(terms, indptr[cols] - lo)
        del terms  # before the next block's NumPy terms exist
    return wa, theta2


@dataclass
class SliceUpdater:
    """Precomputed per-slice state shared by all ICD drivers and both kernels.

    Parameters
    ----------
    system:
        The system matrix (CSC; columns are voxels).
    scan:
        Measurement data (supplies the weights for the fused products).
    prior, neighborhood:
        Regularisation model.
    positivity:
        Clip updates at zero (standard for attenuation images).

    The build records :attr:`kernel`, the kernel that runs every sweep and
    SuperVoxel visit over this updater: ``"c"`` where the compiled library
    loads and supports the prior (exactly ``QGGMRFPrior`` or
    ``QuadraticPrior``) and the matrix (float32 with int32 indices),
    ``"python"`` otherwise.  Both give the same bits.
    """

    system: SystemMatrix
    scan: ScanData
    prior: Prior
    neighborhood: Neighborhood
    positivity: bool = True

    def __post_init__(self) -> None:
        A = self.system.matrix
        # Hot-path storage dtype follows the system matrix: a float32 A
        # (the builder's default) gives float32 wa/a_data, halving the
        # per-update gather traffic.  Accumulation always upcasts entry-wise
        # to float64, and theta2 is computed from the full-precision
        # products *before* the storage rounding.
        store_dtype = A.data.dtype if A.data.dtype == np.float32 else np.float64
        #: fused w*A products, aligned with the CSC storage of ``A``, and
        #: per-voxel theta2 = sum w * A^2 (constant across the run).
        self.wa, self.theta2 = _fused_products(A, self.scan.weights, store_dtype)
        self.indptr = A.indptr
        self.a_data = A.data if A.data.dtype == store_dtype else A.data.astype(store_dtype)

        nb = self.neighborhood
        valid = nb.indices >= 0
        own = np.arange(nb.indices.shape[0], dtype=np.int64)[:, None]
        #: width-8 neighbour indices, invalid slots pointing at the voxel itself.
        self.nb_idx = np.where(valid, nb.indices, own)
        #: width-8 neighbour weights, 0.0 in invalid slots (exact no-ops).
        self.nb_w = np.where(valid, nb.weights[None, :], 0.0)
        #: the kernel this solve runs: ``"c"`` or the ``"python"`` oracle.
        self.kernel = "c" if _c_unsupported(self) is None else "python"

        # What only one kernel reads is built on its first use, under one
        # lock with double-checked reads, so the built path is one attribute
        # read: the python kernel's footprint views and the c kernel's struct.
        self._lock = threading.Lock()
        self._fp_views = None
        self._c_struct = None

    # ------------------------------------------------------------------
    def column_slice(self, voxel: int) -> slice:
        """CSC storage slice of ``voxel``'s column."""
        return slice(self.indptr[voxel], self.indptr[voxel + 1])

    def initial_error(self, image: np.ndarray) -> np.ndarray:
        """Flat error sinogram ``e = y - Ax`` for a starting image."""
        return (self.scan.sinogram - self.system.forward(image)).ravel()

    def propose_update(
        self,
        voxel: int,
        x_flat: np.ndarray,
        buffer: np.ndarray,
        footprint_idx: np.ndarray,
    ) -> float:
        """Compute the new value for ``voxel`` without applying it.

        Reads the error ``buffer`` (global sinogram or SVB, addressed by
        ``footprint_idx``) and the neighbors in ``x_flat``.  Separating the
        compute from the apply is what lets the drivers emulate concurrent
        voxel updates (several threadblocks reading the same SVB state
        before any of them writes back).
        """
        sl = self.column_slice(voxel)
        wa = self.wa[sl]
        e_vals = buffer[footprint_idx]
        if wa.size:
            # Canonical strict-sequential dot (cumsum, not BLAS — see module
            # docstring); float32 wa upcasts entry-wise before accumulating.
            theta1 = -float(np.cumsum(wa * e_vals)[-1])
        else:
            theta1 = 0.0
        theta2 = float(self.theta2[voxel])

        v = float(x_flat[voxel])
        nb_idx = self.neighborhood.indices[voxel]
        valid = nb_idx >= 0
        nb_vals = x_flat[nb_idx[valid]]
        nb_wts = self.neighborhood.weights[valid]
        return solve_surrogate_scalar(
            v,
            theta1,
            theta2,
            nb_vals.tolist(),
            nb_wts.tolist(),
            self.prior,
            positivity=self.positivity,
        )

    def apply_update(
        self,
        voxel: int,
        new_value: float,
        x_flat: np.ndarray,
        buffer: np.ndarray,
        footprint_idx: np.ndarray,
    ) -> float:
        """Commit a proposed value: update the image and the error buffer."""
        delta = new_value - float(x_flat[voxel])
        if delta != 0.0:
            x_flat[voxel] = new_value
            sl = self.column_slice(voxel)
            # np.float64, not the bare python float: NEP 50 would otherwise
            # compute a float32 product against float32 a_data.
            buffer[footprint_idx] -= self.a_data[sl] * np.float64(delta)
        return delta

    def update_voxel(
        self,
        voxel: int,
        x_flat: np.ndarray,
        buffer: np.ndarray,
        footprint_idx: np.ndarray,
    ) -> float:
        """Update one voxel in place (propose + apply); return the delta.

        Parameters
        ----------
        voxel:
            Flat voxel index.
        x_flat:
            Flattened image (mutated).
        buffer:
            Error buffer the footprint indices address: the flat global
            error sinogram for the sequential driver, or a flat SVB for the
            SuperVoxel drivers (mutated).
        footprint_idx:
            Indices of the voxel's footprint entries within ``buffer``, in
            CSC column order.
        """
        u = self.propose_update(voxel, x_flat, buffer, footprint_idx)
        return self.apply_update(voxel, u, x_flat, buffer, footprint_idx)

    @property
    def fp_views(self) -> list:
        """Per-voxel views of the CSC row indices (the ``python`` kernel's footprints)."""
        if self._fp_views is None:
            with self._lock:
                if self._fp_views is None:
                    self._fp_views = np.split(self.system.matrix.indices, self.indptr[1:-1])
        return self._fp_views

    @property
    def c_struct(self):
        """The ``c`` kernel's struct over this updater's arrays (validated once).

        Raises ``RuntimeError`` when the ``c`` kernel cannot run this solve.
        """
        if self._c_struct is None:
            with self._lock:
                if self._c_struct is None:
                    self._c_struct = build_c_struct(self)
        return self._c_struct

    def should_skip(self, voxel: int, x_flat: np.ndarray) -> bool:
        """Zero-skipping test (§2.1): voxel and all its neighbors are zero."""
        if x_flat[voxel] != 0.0:
            return False
        nb_idx = self.neighborhood.indices[voxel]
        valid = nb_idx >= 0
        return not np.any(x_flat[nb_idx[valid]])
