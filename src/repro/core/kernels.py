"""Fused batch update kernels — the compiled/fused ICD hot path.

Every driver ultimately spends its time in the Alg. 1 per-voxel chain:
gather the footprint from an error buffer, dot it against the fused ``w*A``
products, solve the 1-D surrogate against the 8-neighborhood, scatter the
delta back.  Executed as one Python-level
:class:`~repro.core.voxel_update.SliceUpdater` call per voxel, interpreter
dispatch dwarfs the arithmetic — exactly the fine-grained footprint work the
paper's §4 data-layout transformation exists to make fast.  This module
compiles that loop out of Python.  Three kernels are selectable everywhere a
driver accepts ``kernel=``:

``python``
    The original per-voxel :class:`SliceUpdater` path.  Slowest, simplest,
    and the **equivalence oracle**: the other kernels must reproduce its
    iterates bit-for-bit.
``vectorized``
    Pure NumPy, dependency-light.  Footprint index/weight views are hoisted
    once per run, neighborhoods are padded to fixed width 8, theta1 gathers
    are batched per bulk-synchronous wave, and the surrogate solve runs as
    straight-line scalar arithmetic.
``numba``
    A ``@njit(cache=True)`` kernel over the same flat CSC arrays (optional
    dependency: ``pip install repro[fast]``), with a ``prange`` wave kernel
    for snapshot-isolation backends.  Falls back cleanly when Numba is
    absent.

Bit-exactness contract
----------------------
Cross-kernel bit-equality is only possible if every kernel performs the
same IEEE-754 operations in the same order.  Empirically (and baked into
this design):

* ``np.cumsum`` is the only NumPy reduction that matches a scalar
  accumulation loop bit-for-bit; ``np.sum``, ``@``/BLAS dots and
  ``np.add.reduceat`` all use pairwise/SIMD orderings a compiled loop
  cannot reproduce.  All reductions here are therefore strict
  left-to-right: ``cumsum`` in NumPy, plain loops in Numba.
* NumPy's vectorized ``pow`` is elementwise-deterministic (independent of
  position, length and stride) but **not** bit-identical to libm's
  ``pow`` — and compiled code calls libm.  The q-GGMRF influence ratio is
  therefore evaluated one scalar at a time via ``math.pow`` in the Python
  paths (see :meth:`QGGMRFPrior.influence_ratio_scalar`), which Numba's
  ``math.pow`` reproduces.
* Padding is exact: a padded neighbor slot carries weight 0.0 and indexes
  the voxel itself, so both surrogate sums see an interleaved ``+0.0``
  term, which never changes a strict-sequential sum here (the running
  sums cannot be ``-0.0`` for our nonnegative weights and non-subnormal
  images).  Padded theta1 columns multiply a 0.0 weight against a gathered
  value, appending ``±0.0`` terms after the real ones.
* Scalar-array products against float32 data are forced to float64 loops
  (NEP 50 would otherwise compute ``float32 * python_float`` in float32).
"""

from __future__ import annotations

import math
import threading

import numpy as np

from repro.core.prior import Prior, QGGMRFPrior, QuadraticPrior
from repro.core.supervoxel import member_entries
from repro.observability import NULL_RECORDER

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit, prange

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    HAVE_NUMBA = False

__all__ = [
    "HAVE_NUMBA",
    "KERNELS",
    "KernelContext",
    "resolve_kernel",
    "numba_supports_prior",
    "run_sweep",
    "run_sv_visit",
    "run_wave_fused",
]

#: Selectable kernel names, in oracle-first order.
KERNELS = ("python", "vectorized", "numba")

# Prior dispatch codes shared by the vectorized and numba kernels.
_GENERIC = -1
_QUAD = 0
_QGGMRF = 1


def _prior_kind(prior: Prior) -> int:
    """Exact-type dispatch: subclasses fall back to the generic scalar path."""
    if type(prior) is QGGMRFPrior:
        return _QGGMRF
    if type(prior) is QuadraticPrior:
        return _QUAD
    return _GENERIC


def numba_supports_prior(prior: Prior) -> bool:
    """Whether the compiled kernel can evaluate ``prior`` (it must inline it)."""
    return _prior_kind(prior) != _GENERIC


def resolve_kernel(kernel: str | None, prior: Prior) -> str:
    """Resolve a ``kernel=`` argument to a concrete kernel name.

    ``"auto"`` (or ``None``) picks ``numba`` when it is importable and can
    compile ``prior``, else ``vectorized``.  Explicitly requesting
    ``"numba"`` raises if the dependency is missing (``pip install
    repro[fast]``) or the prior is not compilable.
    """
    if kernel is None:
        kernel = "auto"
    if kernel == "auto":
        if HAVE_NUMBA and numba_supports_prior(prior):
            return "numba"
        return "vectorized"
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; use one of {KERNELS} or 'auto'")
    if kernel == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError(
                "kernel='numba' requested but numba is not installed; "
                "install the extra with `pip install repro[fast]` or use "
                "kernel='vectorized'"
            )
        if not numba_supports_prior(prior):
            raise ValueError(
                f"kernel='numba' supports QGGMRFPrior and QuadraticPrior, not "
                f"{type(prior).__name__}; use kernel='vectorized'"
            )
    return kernel


class _FastPack:
    """The vectorized kernel's data layout: same values, faster dtypes.

    Built once per context, lazily (only when the vectorized kernel runs):

    * footprint indices copied to int64 — NumPy fancy indexing with int32
      CSC indices pays a cast pass per call (measured ~4x slower gathers);
    * ``wa``/``a_data`` copied to float64 — identical values (float32 ->
      float64 is exact) but the theta1 multiply and the scatter product run
      pure float64 loops instead of cast-buffered mixed-dtype loops;
    * two scratch buffers sized to the widest footprint, pre-sliced per
      voxel so the hot loop never constructs views.  The scratch is
      **per-thread** (see :meth:`scratch`): wave backends run this kernel
      concurrently from pool threads, and a shared buffer would let one
      thread's theta1 products overwrite another's mid-solve.

    None of this changes any computed bit — it is pure data-layout
    transformation, the NumPy analogue of the paper's §4 memory layouts.
    """

    __slots__ = ("fp_views", "wa_views", "a_views", "cols", "_col_sizes", "_width", "_local")

    def __init__(self, ctx: "KernelContext") -> None:
        cuts = ctx.indptr[1:-1]
        idx64 = ctx.indices.astype(np.int64)
        wa64 = np.asarray(ctx.wa, dtype=np.float64)
        a64 = np.asarray(ctx.a_data, dtype=np.float64)
        self.fp_views = np.split(idx64, cuts)
        self.wa_views = np.split(wa64, cuts)
        self.a_views = np.split(a64, cuts)
        self._col_sizes = ctx.col_sizes
        self._width = max(max(ctx.col_sizes, default=0), 1)
        self._local = threading.local()
        #: one tuple per voxel so the hot loop does a single list lookup:
        #: (ln, footprint, wa, a, nb_idx, nb_w, theta2)
        self.cols = list(
            zip(
                ctx.col_sizes,
                self.fp_views,
                self.wa_views,
                self.a_views,
                ctx.nb_idx_lists,
                ctx.nb_w_lists,
                ctx.theta2_list,
            )
        )

    def scratch(self) -> tuple[list, list]:
        """Per-voxel pre-sliced scratch views owned by the calling thread.

        Each thread that runs the vectorized kernel gets its own pair of
        buffers (built on first use), so concurrent wave workers never share
        mutable state through the context.
        """
        views = getattr(self._local, "views", None)
        if views is None:
            sc1 = np.empty(self._width, dtype=np.float64)
            sc2 = np.empty(self._width, dtype=np.float64)
            views = (
                [sc1[:ln] for ln in self._col_sizes],
                [sc2[:ln] for ln in self._col_sizes],
            )
            self._local.views = views
        return views


class _SVPrep:
    """Per-SuperVoxel hoisted state for the SVB-addressed kernels.

    ``fp_views`` are per-member views into ``sv.svb_indices`` (int64, so
    fancy indexing skips the index-cast pass); ``fp_lens`` their lengths as
    a Python list; ``idx_pad``/``wa_pad`` the rectangular (member, Lmax)
    tables the wave-batched theta1 gather runs over (built lazily — only
    the ``stale_width > 1`` path needs them).  ``wa_pad`` holds float64
    copies of the fused products: identical values (float32 -> float64 is
    exact), but the batched multiply then runs a pure float64 loop.
    """

    __slots__ = ("sv", "fp_views", "fp_lens", "idx_pad", "wa_pad")

    def __init__(self, sv) -> None:
        self.sv = sv
        cuts = sv.member_offsets[1:-1]
        self.fp_views = np.split(sv.svb_indices, cuts)
        self.fp_lens = np.diff(sv.member_offsets).tolist()
        self.idx_pad = None
        self.wa_pad = None

    def build_pads(self, ctx: "KernelContext") -> None:
        """Build the padded theta1 tables (idempotent, thread-safe)."""
        if self.idx_pad is not None:
            return
        with ctx._lock:
            if self.idx_pad is not None:
                return
            sv = self.sv
            lens = np.diff(sv.member_offsets)
            lmax = max(int(lens.max()) if lens.size else 1, 1)
            n_members = sv.n_voxels
            # Taken in row-major order, the first lens[m] cells of each row m
            # line up with the members' concatenated footprints, which are
            # their CSC entries in member order.
            filled = np.arange(lmax) < lens[:, None]
            idx_pad = np.zeros((n_members, lmax), dtype=np.int64)
            idx_pad[filled] = sv.svb_indices
            wa_pad = np.zeros((n_members, lmax), dtype=np.float64)
            wa_pad[filled] = member_entries(ctx.wa, ctx.indptr, sv.voxels)
            # wa_pad first: readers treat a non-None idx_pad as "built".
            self.wa_pad = wa_pad
            self.idx_pad = idx_pad


class KernelContext:
    """Flat, hoisted view of a :class:`SliceUpdater` the kernels execute over.

    Everything data-independent is materialised once: the width-8 padded
    neighborhood tables and the prior's canonical scalar constants up
    front; what only some kernels read (per-voxel footprint views for the
    ``python`` kernel, Python-list mirrors, the vectorized kernel's layout)
    on first use.  A context is bound to one updater (hence one system
    matrix / scan / prior) and caches per-SV preparation keyed by SV index,
    so it must not be shared across different :class:`SuperVoxelGrid`
    instances — drivers build one updater per run, which gives each run a
    fresh context.
    """

    def __init__(self, updater) -> None:
        self.updater = updater
        matrix = updater.system.matrix
        self.indptr = updater.indptr
        self.indices = matrix.indices
        self.wa = updater.wa
        self.a_data = updater.a_data
        self.theta2 = updater.theta2

        nb = updater.neighborhood
        n_voxels = nb.indices.shape[0]
        valid = nb.indices >= 0
        own = np.arange(n_voxels, dtype=np.int64)[:, None]
        #: width-8 neighbor indices, invalid slots pointing at the voxel itself.
        self.nb_idx = np.where(valid, nb.indices, own)
        #: width-8 neighbor weights, 0.0 in invalid slots (exact no-ops).
        self.nb_w = np.where(valid, nb.weights[None, :], 0.0)
        self._nb_w_lists = None
        self._nb_idx_lists = None
        self._theta2_list = None
        self._col_sizes = None
        self._fp_views = None
        self._fast = None
        #: guards every lazy build below — wave backends call into one
        #: shared context from concurrent pool threads (re-entrant: the
        #: _FastPack build reads col_sizes and the list mirrors).
        self._lock = threading.RLock()

        self.positivity = bool(updater.positivity)
        self.prior_kind = _prior_kind(updater.prior)
        if self.prior_kind == _QGGMRF:
            self.qg_coeffs = updater.prior.surrogate_coeffs()
        elif self.prior_kind == _QUAD:
            self.quad_c = updater.prior.influence_ratio_scalar(0.0)

        self._sv_prep: dict[int, _SVPrep] = {}

    # ------------------------------------------------------------------
    # Lazy builds use double-checked locking: the fast path is one read of
    # an attribute that is only ever assigned a fully-built object.
    @property
    def nb_w_lists(self) -> list:
        """Per-voxel padded weight rows as Python lists (scalar-loop fuel)."""
        if self._nb_w_lists is None:
            with self._lock:
                if self._nb_w_lists is None:
                    self._nb_w_lists = self.nb_w.tolist()
        return self._nb_w_lists

    @property
    def nb_idx_lists(self) -> list:
        """Per-voxel padded neighbor-index rows as Python lists."""
        if self._nb_idx_lists is None:
            with self._lock:
                if self._nb_idx_lists is None:
                    self._nb_idx_lists = self.nb_idx.tolist()
        return self._nb_idx_lists

    @property
    def theta2_list(self) -> list:
        """theta2 as a Python list (scalar reads without np.float64 boxing)."""
        if self._theta2_list is None:
            with self._lock:
                if self._theta2_list is None:
                    self._theta2_list = self.theta2.tolist()
        return self._theta2_list

    @property
    def col_sizes(self) -> list:
        """Per-voxel footprint lengths as a Python list."""
        if self._col_sizes is None:
            with self._lock:
                if self._col_sizes is None:
                    self._col_sizes = np.diff(self.indptr).tolist()
        return self._col_sizes

    @property
    def fp_views(self) -> list:
        """Per-voxel views of the CSC row indices (the ``python`` kernel's footprints)."""
        if self._fp_views is None:
            with self._lock:
                if self._fp_views is None:
                    self._fp_views = np.split(self.indices, self.indptr[1:-1])
        return self._fp_views

    @property
    def fast(self) -> "_FastPack":
        """Vectorized-kernel data layout (lazy; see :class:`_FastPack`)."""
        if self._fast is None:
            with self._lock:
                if self._fast is None:
                    self._fast = _FastPack(self)
        return self._fast

    def sv_prep(self, sv) -> _SVPrep:
        """Hoisted per-SV state, cached by SV index (one grid per context)."""
        prep = self._sv_prep.get(sv.index)
        if prep is None or prep.sv is not sv:
            with self._lock:
                prep = self._sv_prep.get(sv.index)
                if prep is None or prep.sv is not sv:
                    prep = _SVPrep(sv)
                    self._sv_prep[sv.index] = prep
        return prep


# ----------------------------------------------------------------------
# The canonical scalar surrogate solve, inlined per kernel.  Keep the
# expression trees literally identical to QGGMRFPrior.influence_ratio_scalar
# and solve_surrogate_scalar — any reassociation breaks bit-equality.
# ----------------------------------------------------------------------
def _solve_inline(ctx, v, th1, t2, xs, ws):
    """Scalar surrogate solve over padded width-8 neighbor lists."""
    kind = ctx.prior_kind
    s1 = 0.0
    s2 = 0.0
    if kind == _QGGMRF:
        tsig, c0, hq, p = ctx.qg_coeffs
        for k in range(8):
            xk = xs[k]
            d = v - xk
            r = abs(d) / tsig
            rq = math.pow(r, p)
            t = 1.0 + rq
            btl = ws[k] * ((1.0 + hq * rq) / (c0 * (t * t)))
            s1 += btl
            s2 += btl * (xk - v)
    elif kind == _QUAD:
        qc = ctx.quad_c
        for k in range(8):
            xk = xs[k]
            btl = ws[k] * qc
            s1 += btl
            s2 += btl * (xk - v)
    else:
        ratio = ctx.updater.prior.influence_ratio_scalar
        for k in range(8):
            xk = xs[k]
            btl = ws[k] * ratio(v - xk)
            s1 += btl
            s2 += btl * (xk - v)
    denom = t2 + 2.0 * s1
    if denom <= 0.0:
        return v
    u = v + (-th1 + 2.0 * s2) / denom
    if ctx.positivity and u < 0.0:
        u = 0.0
    return u


# ----------------------------------------------------------------------
# Full-image sequential sweep (the icd_reconstruct inner loop)
# ----------------------------------------------------------------------
def run_sweep(
    ctx: KernelContext,
    order: np.ndarray,
    x: np.ndarray,
    e: np.ndarray,
    *,
    zero_skip: bool,
    kernel: str,
    metrics=NULL_RECORDER,
) -> int:
    """Visit every voxel in ``order`` against the global error sinogram.

    Mutates ``x`` and ``e`` in place; returns the number of voxel updates
    performed (zero-skipped voxels excluded).  ``kernel`` must already be
    resolved (see :func:`resolve_kernel`).  ``metrics`` (a
    :class:`~repro.observability.MetricsRecorder`) receives per-flavor
    ``kernel.<flavor>.{sweeps,updates,skipped}`` counters; the default
    no-op recorder costs one attribute read.
    """
    updates = _dispatch_sweep(ctx, order, x, e, zero_skip, kernel)
    if metrics.enabled:
        metrics.count(f"kernel.{kernel}.sweeps", 1)
        metrics.count(f"kernel.{kernel}.updates", updates)
        metrics.count(f"kernel.{kernel}.skipped", order.size - updates)
    return updates


def _dispatch_sweep(ctx, order, x, e, zero_skip, kernel) -> int:
    if kernel == "python":
        return _sweep_python(ctx, order, x, e, zero_skip)
    if kernel == "vectorized":
        return _sweep_vectorized(ctx, order, x, e, zero_skip)
    if kernel == "numba":
        _require_numba(ctx)
        tsig, c0, hq, p, qc = _numba_prior_args(ctx)
        return int(
            _nb_sweep(
                np.ascontiguousarray(order, dtype=np.int64),
                x,
                e,
                ctx.indptr,
                ctx.indices,
                ctx.wa,
                ctx.a_data,
                ctx.theta2,
                ctx.nb_idx,
                ctx.nb_w,
                ctx.prior_kind,
                tsig,
                c0,
                hq,
                p,
                qc,
                ctx.positivity,
                zero_skip,
            )
        )
    raise ValueError(f"unknown kernel {kernel!r}")


def _sweep_python(ctx, order, x, e, zero_skip):
    """The oracle: the original per-voxel SliceUpdater loop, footprints hoisted."""
    upd = ctx.updater
    fp_views = ctx.fp_views
    updates = 0
    for j in order:
        jj = int(j)
        if zero_skip and upd.should_skip(jj, x):
            continue
        upd.update_voxel(jj, x, e, fp_views[jj])
        updates += 1
    return updates


def _sweep_vectorized(ctx, order, x, e, zero_skip):
    """The NumPy fast path: scalar state lives in Python lists.

    Per-voxel NumPy-call overhead is what makes the oracle slow, so this
    kernel keeps the image as a Python list (neighbor reads, the zero-skip
    test and the whole surrogate solve are then pure scalar bytecode with no
    array boxing) and spends its NumPy calls only where they pay: the theta1
    gather-dot and the footprint scatter, both through preallocated scratch.
    The arithmetic is bit-identical to the oracle: ``np.add.accumulate`` is
    ``np.cumsum``, and a Python-list image holds the same binary64 values.
    """
    cols = ctx.fast.cols
    sc1_views, sc2_views = ctx.fast.scratch()
    kind = ctx.prior_kind
    positivity = ctx.positivity
    if kind == _QGGMRF:
        tsig, c0, hq, p = ctx.qg_coeffs
    elif kind == _QUAD:
        qc = ctx.quad_c
    else:
        ratio = ctx.updater.prior.influence_ratio_scalar
    pow_ = math.pow
    mul = np.multiply
    sub = np.subtract
    accum = np.add.accumulate
    f64 = np.float64
    xl = x.tolist()
    updates = 0
    for j in order.tolist():
        ln, fp, wav, av, nbr, ws, t2 = cols[j]
        v = xl[j]
        if zero_skip and v == 0.0:
            allz = True
            for i in nbr:
                if xl[i] != 0.0:
                    allz = False
                    break
            if allz:
                continue
        if ln:
            g = e[fp]
            prod = mul(wav, g, sc2_views[j])
            accum(prod, 0, None, prod)
            th1 = -float(prod[ln - 1])
        else:
            th1 = 0.0
        s1 = 0.0
        s2 = 0.0
        if kind == _QGGMRF:
            for i, wk in zip(nbr, ws):
                xk = xl[i]
                d = v - xk
                r = abs(d) / tsig
                rq = pow_(r, p)
                t = 1.0 + rq
                btl = wk * ((1.0 + hq * rq) / (c0 * (t * t)))
                s1 += btl
                s2 += btl * (xk - v)
        elif kind == _QUAD:
            for i, wk in zip(nbr, ws):
                xk = xl[i]
                btl = wk * qc
                s1 += btl
                s2 += btl * (xk - v)
        else:
            for i, wk in zip(nbr, ws):
                xk = xl[i]
                btl = wk * ratio(v - xk)
                s1 += btl
                s2 += btl * (xk - v)
        denom = t2 + 2.0 * s1
        if denom <= 0.0:
            u = v
        else:
            u = v + (-th1 + 2.0 * s2) / denom
            if positivity and u < 0.0:
                u = 0.0
        updates += 1
        delta = u - v
        if delta != 0.0:
            xl[j] = u
            if ln:
                # Reuse the theta1 gather: g still holds the pre-update
                # footprint values (nothing wrote to e since the read).
                dp = mul(av, f64(delta), sc1_views[j])
                sub(g, dp, g)
                e[fp] = g
    x[:] = xl
    return updates


# ----------------------------------------------------------------------
# SuperVoxel visit (the process_supervoxel inner loop)
# ----------------------------------------------------------------------
def run_sv_visit(
    ctx: KernelContext,
    sv,
    order: np.ndarray,
    x: np.ndarray,
    svb: np.ndarray,
    *,
    zero_skip: bool,
    stale_width: int,
    kernel: str,
) -> tuple[int, int, float]:
    """Visit ``sv``'s members in ``order`` against the flat SVB ``svb``.

    Returns ``(updates, skipped, total_abs_delta)`` with the exact counting
    and accumulation order of the per-voxel engine.  Mutates ``x`` and
    ``svb`` in place.
    """
    if kernel == "vectorized":
        if stale_width == 1:
            return _visit_vectorized_seq(ctx, sv, order, x, svb, zero_skip)
        return _visit_vectorized_wave(ctx, sv, order, x, svb, zero_skip, stale_width)
    if kernel == "numba":
        _require_numba(ctx)
        tsig, c0, hq, p, qc = _numba_prior_args(ctx)
        updates, skipped, tad = _nb_visit(
            np.ascontiguousarray(order, dtype=np.int64),
            sv.voxels,
            sv.member_offsets,
            sv.svb_indices,
            x,
            svb,
            ctx.indptr,
            ctx.wa,
            ctx.a_data,
            ctx.theta2,
            ctx.nb_idx,
            ctx.nb_w,
            ctx.prior_kind,
            tsig,
            c0,
            hq,
            p,
            qc,
            ctx.positivity,
            zero_skip,
            stale_width,
        )
        return int(updates), int(skipped), float(tad)
    raise ValueError(f"run_sv_visit handles 'vectorized'/'numba', not {kernel!r}")


def _visit_vectorized_seq(ctx, sv, order, x, svb, zero_skip):
    """stale_width == 1: strictly sequential member updates (PSV-ICD)."""
    prep = ctx.sv_prep(sv)
    fast = ctx.fast
    fp_views = prep.fp_views
    fp_lens = prep.fp_lens
    voxels = sv.voxels.tolist()
    wa_views = fast.wa_views
    a_views = fast.a_views
    sc1_views, sc2_views = fast.scratch()
    nb_lists = ctx.nb_idx_lists
    w_lists = ctx.nb_w_lists
    t2l = ctx.theta2_list
    mul = np.multiply
    sub = np.subtract
    accum = np.add.accumulate
    f64 = np.float64
    solve = _solve_inline
    updates = 0
    skipped = 0
    tad = 0.0
    for m in order.tolist():
        j = voxels[m]
        v = float(x[j])
        nbr = nb_lists[j]
        if zero_skip and v == 0.0:
            allz = True
            for i in nbr:
                if x[i] != 0.0:
                    allz = False
                    break
            if allz:
                skipped += 1
                continue
        ln = fp_lens[m]
        if ln:
            fp = fp_views[m]
            g = svb[fp]
            prod = mul(wa_views[j], g, sc2_views[j])
            accum(prod, 0, None, prod)
            th1 = -float(prod[ln - 1])
        else:
            th1 = 0.0
        xs = [float(x[i]) for i in nbr]
        u = solve(ctx, v, th1, t2l[j], xs, w_lists[j])
        delta = u - v
        tad += abs(delta)
        updates += 1
        if delta != 0.0:
            x[j] = u
            if ln:
                dp = mul(a_views[j], f64(delta), sc1_views[j])
                sub(g, dp, g)
                svb[fp] = g
    return updates, skipped, tad


def _visit_vectorized_wave(ctx, sv, order, x, svb, zero_skip, stale_width):
    """stale_width > 1: batch each wave's skip tests and theta1 gathers.

    All proposals of a wave read the same ``x``/``svb`` state (the engine's
    bulk-synchronous contract), which is what makes the batched gather
    bit-exact; applies then run strictly in wave order.
    """
    prep = ctx.sv_prep(sv)
    prep.build_pads(ctx)
    fast = ctx.fast
    voxels = sv.voxels
    fp_views = prep.fp_views
    fp_lens = prep.fp_lens
    idx_pad = prep.idx_pad
    wa_pad = prep.wa_pad
    a_views = fast.a_views
    sc1_views, _ = fast.scratch()
    nb_idx = ctx.nb_idx
    w_lists = ctx.nb_w_lists
    t2l = ctx.theta2_list
    kind = ctx.prior_kind
    positivity = ctx.positivity
    if kind == _QGGMRF:
        tsig, c0, hq, p = ctx.qg_coeffs
    elif kind == _QUAD:
        qc = ctx.quad_c
    else:
        ratio = ctx.updater.prior.influence_ratio_scalar
    pow_ = math.pow
    mul = np.multiply
    sub = np.subtract
    f64 = np.float64
    updates = 0
    skipped = 0
    tad = 0.0
    for start in range(0, order.size, stale_width):
        wave = order[start : start + stale_width]
        wj = voxels[wave]
        nbv = x[nb_idx[wj]]  # (k, 8) neighbor values, shared by skip + solve
        vs = x[wj]
        if zero_skip:
            keep_mask = (vs != 0.0) | (nbv != 0.0).any(axis=1)
            kept = np.nonzero(keep_mask)[0]
            skipped += wave.size - kept.size
            if kept.size == 0:
                continue
            km = wave[kept]
        else:
            kept = None
            km = wave
        # One batched theta1 for the whole wave: every proposal reads the
        # same frozen svb (the engine's bulk-synchronous contract), so a
        # (kept, Lmax) gather + row-cumsum is bit-identical to per-voxel
        # dots; padded tail columns contribute exact +-0.0 terms.
        th1s = np.cumsum(wa_pad[km] * svb[idx_pad[km]], axis=1)[:, -1].tolist()
        km_l = km.tolist()
        if kept is None:
            wj_k = wj.tolist()
            vs_k = vs.tolist()
            nbv_k = nbv.tolist()
        else:
            wj_k = wj[kept].tolist()
            vs_k = vs[kept].tolist()
            nbv_k = nbv[kept].tolist()
        n_kept = len(km_l)
        prop_u = []
        for i in range(n_kept):
            m = km_l[i]
            j = wj_k[i]
            v = vs_k[i]
            th1 = -th1s[i] if fp_lens[m] else 0.0
            xs = nbv_k[i]
            ws = w_lists[j]
            s1 = 0.0
            s2 = 0.0
            if kind == _QGGMRF:
                for xk, wk in zip(xs, ws):
                    d = v - xk
                    r = abs(d) / tsig
                    rq = pow_(r, p)
                    t = 1.0 + rq
                    btl = wk * ((1.0 + hq * rq) / (c0 * (t * t)))
                    s1 += btl
                    s2 += btl * (xk - v)
            elif kind == _QUAD:
                for xk, wk in zip(xs, ws):
                    btl = wk * qc
                    s1 += btl
                    s2 += btl * (xk - v)
            else:
                for xk, wk in zip(xs, ws):
                    btl = wk * ratio(v - xk)
                    s1 += btl
                    s2 += btl * (xk - v)
            denom = t2l[j] + 2.0 * s1
            if denom <= 0.0:
                u = v
            else:
                u = v + (-th1 + 2.0 * s2) / denom
                if positivity and u < 0.0:
                    u = 0.0
            prop_u.append(u)
        for i in range(n_kept):
            u = prop_u[i]
            v = vs_k[i]
            delta = u - v
            tad += abs(delta)
            updates += 1
            if delta != 0.0:
                j = wj_k[i]
                x[j] = u
                m = km_l[i]
                ln = fp_lens[m]
                if ln:
                    fp = fp_views[m]
                    g = svb[fp]
                    dp = mul(a_views[j], f64(delta), sc1_views[j])
                    sub(g, dp, g)
                    svb[fp] = g
    return updates, skipped, tad


# ----------------------------------------------------------------------
# Numba kernels (optional)
# ----------------------------------------------------------------------
def _require_numba(ctx) -> None:
    if not HAVE_NUMBA:
        raise RuntimeError("numba kernel requested but numba is not importable")
    if ctx.prior_kind == _GENERIC:
        raise ValueError("numba kernel cannot compile this prior; use 'vectorized'")


def _numba_prior_args(ctx) -> tuple[float, float, float, float, float]:
    """Flatten the prior constants into njit-friendly scalars."""
    if ctx.prior_kind == _QGGMRF:
        tsig, c0, hq, p = ctx.qg_coeffs
        return tsig, c0, hq, p, 0.0
    return 1.0, 1.0, 0.0, 0.0, ctx.quad_c


if HAVE_NUMBA:

    @njit(cache=True)
    def _nb_solve(v, th1, t2, x, nb_idx, nb_w, j, kind, tsig, c0, hq, p, qc, positivity):
        """Canonical scalar surrogate solve (see _solve_inline)."""
        s1 = 0.0
        s2 = 0.0
        for k in range(8):
            xk = x[nb_idx[j, k]]
            wk = nb_w[j, k]
            if kind == 1:
                d = v - xk
                r = abs(d) / tsig
                rq = math.pow(r, p)
                t = 1.0 + rq
                btl = wk * ((1.0 + hq * rq) / (c0 * (t * t)))
            else:
                btl = wk * qc
            s1 += btl
            s2 += btl * (xk - v)
        denom = t2 + 2.0 * s1
        if denom <= 0.0:
            return v
        u = v + (-th1 + 2.0 * s2) / denom
        if positivity and u < 0.0:
            u = 0.0
        return u

    @njit(cache=True)
    def _nb_sweep(
        order, x, e, indptr, indices, wa, a_data, theta2, nb_idx, nb_w,
        kind, tsig, c0, hq, p, qc, positivity, zero_skip,
    ):
        updates = 0
        for oi in range(order.shape[0]):
            j = order[oi]
            v = x[j]
            if zero_skip and v == 0.0:
                allz = True
                for k in range(8):
                    if x[nb_idx[j, k]] != 0.0:
                        allz = False
                        break
                if allz:
                    continue
            lo = indptr[j]
            hi = indptr[j + 1]
            if hi > lo:
                acc = 0.0
                for i in range(lo, hi):
                    acc += wa[i] * e[indices[i]]
                th1 = -acc
            else:
                th1 = 0.0
            u = _nb_solve(v, th1, theta2[j], x, nb_idx, nb_w, j,
                          kind, tsig, c0, hq, p, qc, positivity)
            updates += 1
            delta = u - v
            if delta != 0.0:
                x[j] = u
                for i in range(lo, hi):
                    e[indices[i]] -= a_data[i] * delta
        return updates

    @njit(cache=True)
    def _nb_visit(
        order, voxels, member_ptr, svb_indices, x, svb, indptr, wa, a_data,
        theta2, nb_idx, nb_w, kind, tsig, c0, hq, p, qc, positivity,
        zero_skip, stale_width,
    ):
        updates = 0
        skipped = 0
        tad = 0.0
        prop_m = np.empty(stale_width, dtype=np.int64)
        prop_u = np.empty(stale_width, dtype=np.float64)
        n = order.shape[0]
        for start in range(0, n, stale_width):
            end = min(start + stale_width, n)
            nprop = 0
            for w in range(start, end):
                m = order[w]
                j = voxels[m]
                v = x[j]
                if zero_skip and v == 0.0:
                    allz = True
                    for k in range(8):
                        if x[nb_idx[j, k]] != 0.0:
                            allz = False
                            break
                    if allz:
                        skipped += 1
                        continue
                flo = member_ptr[m]
                fhi = member_ptr[m + 1]
                lo = indptr[j]
                if fhi > flo:
                    acc = 0.0
                    for i in range(fhi - flo):
                        acc += wa[lo + i] * svb[svb_indices[flo + i]]
                    th1 = -acc
                else:
                    th1 = 0.0
                u = _nb_solve(v, th1, theta2[j], x, nb_idx, nb_w, j,
                              kind, tsig, c0, hq, p, qc, positivity)
                prop_m[nprop] = m
                prop_u[nprop] = u
                nprop += 1
            for t_ in range(nprop):
                m = prop_m[t_]
                j = voxels[m]
                u = prop_u[t_]
                delta = u - x[j]
                tad += abs(delta)
                updates += 1
                if delta != 0.0:
                    x[j] = u
                    flo = member_ptr[m]
                    fhi = member_ptr[m + 1]
                    lo = indptr[j]
                    for i in range(fhi - flo):
                        svb[svb_indices[flo + i]] -= a_data[lo + i] * delta
        return updates, skipped, tad

    @njit(cache=True, parallel=True)
    def _nb_wave(
        x, e,
        voxels_cat, voxels_off,
        member_ptr_cat, member_ptr_off,
        svbidx_cat, svbidx_off,
        gather_cat, gather_off,
        orders_cat, orders_off,
        zero_skip_flags, stale_widths,
        indptr, wa, a_data, theta2, nb_idx, nb_w,
        kind, tsig, c0, hq, p, qc, positivity,
        xvals_out, svbdelta_cat, upd_out, skp_out, tad_out,
    ):
        n_svs = voxels_off.shape[0] - 1
        for s in prange(n_svs):
            x_local = x.copy()
            g0 = gather_off[s]
            cells = gather_off[s + 1] - g0
            svb = np.zeros(cells, dtype=np.float64)
            for c in range(cells):
                g = gather_cat[g0 + c]
                if g >= 0:
                    svb[c] = e[g]
            upd, skp, td = _nb_visit(
                orders_cat[orders_off[s] : orders_off[s + 1]],
                voxels_cat[voxels_off[s] : voxels_off[s + 1]],
                member_ptr_cat[member_ptr_off[s] : member_ptr_off[s + 1]],
                svbidx_cat[svbidx_off[s] : svbidx_off[s + 1]],
                x_local,
                svb,
                indptr, wa, a_data, theta2, nb_idx, nb_w,
                kind, tsig, c0, hq, p, qc, positivity,
                zero_skip_flags[s], stale_widths[s],
            )
            upd_out[s] = upd
            skp_out[s] = skp
            tad_out[s] = td
            v0 = voxels_off[s]
            for t_ in range(voxels_off[s + 1] - v0):
                xvals_out[v0 + t_] = x_local[voxels_cat[v0 + t_]]
            for c in range(cells):
                g = gather_cat[g0 + c]
                if g >= 0:
                    svbdelta_cat[g0 + c] = svb[c] - e[g]
                else:
                    svbdelta_cat[g0 + c] = svb[c]


def run_wave_fused(
    ctx: KernelContext,
    grid,
    sv_indices,
    orders,
    x: np.ndarray,
    e: np.ndarray,
    *,
    zero_skip_flags,
    stale_widths,
):
    """Snapshot-isolation wave on the compiled kernel, ``prange`` across SVs.

    ``x`` and ``e`` are the wave snapshots (read-only here); per-SV visit
    orders are drawn by the caller so the RNG stream matches the per-task
    Python path exactly.  Returns, per SV, ``(voxel_values, svb_delta,
    updates, skipped, total_abs_delta)`` ready for the backend merge.
    """
    _require_numba(ctx)
    svs = [grid.svs[int(s)] for s in sv_indices]

    def _cat(arrays, dtype):
        off = np.zeros(len(arrays) + 1, dtype=np.int64)
        off[1:] = np.cumsum([a.size for a in arrays])
        cat = (
            np.concatenate(arrays).astype(dtype, copy=False)
            if arrays
            else np.empty(0, dtype=dtype)
        )
        return np.ascontiguousarray(cat), off

    voxels_cat, voxels_off = _cat([sv.voxels for sv in svs], np.int64)
    member_ptr_cat, member_ptr_off = _cat([sv.member_offsets for sv in svs], np.int64)
    svbidx_cat, svbidx_off = _cat([sv.svb_indices for sv in svs], np.int64)
    gather_cat, gather_off = _cat([sv.gather_idx for sv in svs], np.int64)
    orders_cat, orders_off = _cat([np.asarray(o) for o in orders], np.int64)

    n = len(svs)
    xvals_out = np.empty(voxels_off[-1], dtype=np.float64)
    svbdelta_cat = np.empty(gather_off[-1], dtype=np.float64)
    upd_out = np.zeros(n, dtype=np.int64)
    skp_out = np.zeros(n, dtype=np.int64)
    tad_out = np.zeros(n, dtype=np.float64)
    tsig, c0, hq, p, qc = _numba_prior_args(ctx)
    _nb_wave(
        x, e,
        voxels_cat, voxels_off,
        member_ptr_cat, member_ptr_off,
        svbidx_cat, svbidx_off,
        gather_cat, gather_off,
        orders_cat, orders_off,
        np.asarray(zero_skip_flags, dtype=np.bool_),
        np.asarray(stale_widths, dtype=np.int64),
        ctx.indptr, ctx.wa, ctx.a_data, ctx.theta2, ctx.nb_idx, ctx.nb_w,
        ctx.prior_kind, tsig, c0, hq, p, qc, ctx.positivity,
        xvals_out, svbdelta_cat, upd_out, skp_out, tad_out,
    )
    results = []
    for s in range(n):
        results.append(
            (
                xvals_out[voxels_off[s] : voxels_off[s + 1]],
                svbdelta_cat[gather_off[s] : gather_off[s + 1]],
                int(upd_out[s]),
                int(skp_out[s]),
                float(tad_out[s]),
            )
        )
    return results
