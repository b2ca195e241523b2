"""Fused batch update kernels — the ICD hot path.

Every driver ultimately spends its time in the Alg. 1 per-voxel chain:
gather the footprint from an error buffer, dot it against the fused ``w*A``
products, solve the 1-D surrogate against the 8-neighborhood, scatter the
delta back.  Executed as one Python-level
:class:`~repro.core.voxel_update.SliceUpdater` call per voxel, interpreter
dispatch dwarfs the arithmetic — exactly the fine-grained footprint work the
paper's §4 data-layout transformation exists to make fast.  Three kernels
are selectable everywhere a driver accepts ``kernel=``:

``python``
    The original per-voxel :class:`SliceUpdater` path.  Slowest, simplest,
    and the **equivalence oracle**: the other kernels must reproduce its
    iterates bit-for-bit.
``vectorized``
    Pure NumPy, dependency-light.  Footprint index/weight views are hoisted
    once per run, neighborhoods are padded to fixed width 8, theta1 gathers
    are batched per bulk-synchronous wave, and the surrogate solve runs as
    straight-line scalar arithmetic.  Runs every prior and storage dtype.
``c``
    The whole sweep or SuperVoxel visit in one C call (``icd_kernel.c``,
    called through :mod:`ctypes` on the context's own arrays).  Runs the
    q-GGMRF and quadratic priors (exact type) over float32 storage with
    int32 indices.  The source is compiled on first use, at most once per
    process, by ``$CC`` or else the compiler Python was built with, with
    the fixed flags ``-O2 -ffp-contract=off -fPIC -shared -lm`` into a
    private temporary directory that is deleted once the library is
    loaded; a forked child inherits the loaded library.

``kernel="auto"`` resolves to ``c`` when the library loads and supports
the updater, and to ``vectorized`` otherwise (no compiler, a failed
build, a generic prior, float64 storage).  Since every kernel computes the
same bits, the choice never changes iterates, RNG draws or checkpoints.

Bit-exactness contract
----------------------
Cross-kernel bit-equality is only possible if every kernel performs the
same IEEE-754 operations in the same order.  Empirically (and baked into
this design, so that the compiled scalar kernel joins the contract):

* ``np.cumsum`` is the only NumPy reduction that matches a scalar
  accumulation loop bit-for-bit; ``np.sum``, ``@``/BLAS dots and
  ``np.add.reduceat`` all use pairwise/SIMD orderings a compiled loop
  cannot reproduce.  All reductions here are therefore strict
  left-to-right: ``cumsum`` in NumPy, plain loops in scalar code.
* NumPy's vectorized ``pow`` is elementwise-deterministic (independent of
  position, length and stride) but **not** bit-identical to libm's
  ``pow`` — and compiled code calls libm.  The q-GGMRF influence ratio is
  therefore evaluated one scalar at a time via ``math.pow`` in the Python
  paths (see :meth:`QGGMRFPrior.influence_ratio_scalar`), which a compiled
  loop's libm ``pow`` reproduces.
* Padding is exact: a padded neighbor slot carries weight 0.0 and indexes
  the voxel itself, so both surrogate sums see an interleaved ``+0.0``
  term, which never changes a strict-sequential sum here (the running
  sums cannot be ``-0.0`` for our nonnegative weights and non-subnormal
  images).  Padded theta1 columns multiply a 0.0 weight against a gathered
  value, appending ``±0.0`` terms after the real ones.
* Scalar-array products against float32 data are forced to float64 loops
  (NEP 50 would otherwise compute ``float32 * python_float`` in float32).
* The C source is compiled with ``-ffp-contract=off`` (no fused
  multiply-adds) and never with ``-ffast-math``/``-Ofast``; ``CFLAGS`` is
  not read, because the flags are part of this contract.
"""

from __future__ import annotations

import ctypes
import math
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.core.prior import Prior, QGGMRFPrior, QuadraticPrior
from repro.core.supervoxel import member_entries
from repro.observability import NULL_RECORDER

__all__ = [
    "KERNELS",
    "KernelContext",
    "load_c_kernel",
    "resolve_kernel",
    "run_sweep",
    "run_sv_visit",
]

#: Selectable kernel names, in oracle-first order.
KERNELS = ("python", "vectorized", "c")

# Prior dispatch codes of the inline surrogate solves.
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


def resolve_kernel(kernel: str | None, updater) -> str:
    """Resolve a ``kernel=`` argument to a concrete kernel name for ``updater``.

    ``"auto"`` (or ``None``) resolves to ``c`` when the compiled kernel
    loads and supports ``updater``'s prior and storage, else to
    ``vectorized``.  An explicit ``"c"`` that cannot run raises
    ``RuntimeError`` naming the cause.
    """
    if kernel is None or kernel == "auto":
        return "c" if _c_unsupported(updater) is None else "vectorized"
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; use one of {KERNELS} or 'auto'")
    if kernel == "c":
        reason = _c_unsupported(updater)
        if reason is not None:
            raise RuntimeError(f"kernel 'c' cannot run: {reason}")
    return kernel


# ----------------------------------------------------------------------
# The compiled kernel: build, load, and the context struct it reads
# ----------------------------------------------------------------------
_C_SOURCE = Path(__file__).with_name("icd_kernel.c")
#: Fixed build flags (part of the bit-exactness contract; never CFLAGS).
_C_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
#: A compiler that has not finished by then is treated as missing.
_C_BUILD_TIMEOUT_S = 120.0


class _CContext(ctypes.Structure):
    """``struct repro_ctx`` of ``icd_kernel.c``, field for field."""

    _fields_ = [
        ("n_voxels", ctypes.c_int64),
        ("indptr", ctypes.c_void_p),
        ("indices", ctypes.c_void_p),
        ("wa", ctypes.c_void_p),
        ("a", ctypes.c_void_p),
        ("nb_idx", ctypes.c_void_p),
        ("nb_w", ctypes.c_void_p),
        ("theta2", ctypes.c_void_p),
        ("kind", ctypes.c_int32),
        ("positivity", ctypes.c_int32),
        ("tsig", ctypes.c_double),
        ("c0", ctypes.c_double),
        ("hq", ctypes.c_double),
        ("p", ctypes.c_double),
        ("qc", ctypes.c_double),
    ]


def _build_c_library() -> ctypes.CDLL:
    """Compile ``icd_kernel.c`` into a private temp dir, load it, delete the dir.

    The compiler is the one setuptools' ``build_ext`` would use: ``$CC`` if
    set, else ``sysconfig``'s ``CC``.  Raises ``OSError`` (or
    ``subprocess.SubprocessError``) naming what failed.
    """
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC")
    if not cc:
        raise OSError("no C compiler configured ($CC and sysconfig CC are empty)")
    try:
        cc_argv = shlex.split(cc)
    except ValueError as exc:
        raise OSError(f"cannot parse the compiler command {cc!r}: {exc}") from None
    tmp = tempfile.mkdtemp(prefix="repro-icd-kernel-")
    try:
        out = os.path.join(tmp, "icd_kernel.so")
        cmd = [*cc_argv, *_C_FLAGS, "-o", out, str(_C_SOURCE), "-lm"]
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=_C_BUILD_TIMEOUT_S, check=False
        )
        if proc.returncode != 0:
            detail = (proc.stderr or proc.stdout).strip()[-500:]
            raise OSError(f"{shlex.join(cmd)} exited with {proc.returncode}: {detail}")
        lib = ctypes.CDLL(out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    ctx_p = ctypes.POINTER(_CContext)
    ptr, i32, i64 = ctypes.c_void_p, ctypes.c_int32, ctypes.c_int64
    lib.repro_sweep.argtypes = [ctx_p, ptr, i64, ptr, ptr, i32]
    lib.repro_sweep.restype = i64
    lib.repro_sv_visit.argtypes = [
        ctx_p, ptr, ptr, ptr, i64, ptr, i64, ptr, ptr, i32, i64,
        ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double),
    ]
    lib.repro_sv_visit.restype = i64
    return lib


class _CLibrary:
    """The process's compiled kernel: built at most once, on first use."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.lib: ctypes.CDLL | None = None
        #: why the build or load failed, once it has
        self.error: str | None = None

    def load(self) -> str | None:
        """Build and load on the first call; return why that failed, or None."""
        if self.lib is None and self.error is None:
            with self.lock:
                if self.lib is None and self.error is None:
                    try:
                        self.lib = _build_c_library()
                    except (OSError, subprocess.SubprocessError) as exc:
                        self.error = f"{type(exc).__name__}: {exc}"
        return self.error


_C_LIBRARY = _CLibrary()


def _fresh_c_lock() -> None:
    """Give a forked child an unlocked build lock (the library itself is inherited)."""
    _C_LIBRARY.lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_c_lock)


def load_c_kernel() -> str | None:
    """Build and load the ``c`` kernel now; return why it is unavailable, or None.

    A server calls this before forking workers, so they inherit the
    loaded library instead of each compiling it.
    """
    return _C_LIBRARY.load()


def _c_unsupported(updater) -> str | None:
    """Why the ``c`` kernel cannot run ``updater``'s solve, or None."""
    if _prior_kind(updater.prior) == _GENERIC:
        return f"prior {type(updater.prior).__name__} is neither QGGMRFPrior nor QuadraticPrior"
    matrix = updater.system.matrix
    if (
        updater.wa.dtype != np.float32
        or matrix.indices.dtype != np.int32
        or matrix.indptr.dtype != np.int32
    ):
        return "the system matrix is not float32 with int32 indices"
    return _C_LIBRARY.load()


def _require(arr, dtype, size: int, name: str, *, writeable: bool = False) -> np.ndarray:
    """Check an array the C kernel will read (or write) through a raw pointer."""
    if not (
        isinstance(arr, np.ndarray)
        and arr.dtype == dtype
        and arr.flags.c_contiguous
        and arr.size == size
        and (arr.flags.writeable or not writeable)
    ):
        raise TypeError(
            f"c kernel: {name} must be a C-contiguous{' writeable' if writeable else ''} "
            f"{np.dtype(dtype).name} array of {size} elements, got "
            f"{getattr(arr, 'dtype', type(arr).__name__)} of "
            f"{getattr(arr, 'size', '?')} elements"
        )
    return arr


def _c_context(ctx: "KernelContext") -> _CContext:
    """Validate the context's arrays once and point a ``_CContext`` at them."""
    reason = _c_unsupported(ctx.updater)
    if reason is not None:
        raise RuntimeError(f"kernel 'c' cannot run: {reason}")
    n = ctx.theta2.size
    nnz = ctx.indices.size
    indptr = _require(ctx.indptr, np.int32, n + 1, "indptr")
    indices = _require(ctx.indices, np.int32, nnz, "indices")
    nb_idx = _require(ctx.nb_idx, np.int64, 8 * n, "nb_idx")
    if indptr[0] != 0 or indptr[-1] != nnz or np.any(np.diff(indptr) < 0):
        raise ValueError("c kernel: indptr is not a valid CSC column index")
    if nnz and (indices.min() < 0 or indices.max() >= ctx.n_rows):
        raise ValueError("c kernel: a CSC row index is out of range")
    if nb_idx.min() < 0 or nb_idx.max() >= n:
        raise ValueError("c kernel: a neighbour index is out of range")
    c = _CContext(
        n_voxels=n,
        indptr=indptr.ctypes.data,
        indices=indices.ctypes.data,
        wa=_require(ctx.wa, np.float32, nnz, "wa").ctypes.data,
        a=_require(ctx.a_data, np.float32, nnz, "a_data").ctypes.data,
        nb_idx=nb_idx.ctypes.data,
        nb_w=_require(ctx.nb_w, np.float64, 8 * n, "nb_w").ctypes.data,
        theta2=_require(ctx.theta2, np.float64, n, "theta2").ctypes.data,
        kind=ctx.prior_kind,
        positivity=int(ctx.positivity),
    )
    if ctx.prior_kind == _QGGMRF:
        c.tsig, c.c0, c.hq, c.p = ctx.qg_coeffs
    else:
        c.qc = ctx.quad_c
    return c


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
      **per-thread** (see :meth:`scratch`): a caller that runs this kernel
      from several threads over one context must not let one thread's
      theta1 products overwrite another's mid-solve.

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

    __slots__ = ("sv", "fp_views", "fp_lens", "idx_pad", "wa_pad", "_c_args")

    def __init__(self, sv) -> None:
        self.sv = sv
        cuts = sv.member_offsets[1:-1]
        self.fp_views = np.split(sv.svb_indices, cuts)
        self.fp_lens = np.diff(sv.member_offsets).tolist()
        self.idx_pad = None
        self.wa_pad = None
        self._c_args = None

    def c_args(self, ctx: "KernelContext") -> tuple:
        """The ``c`` kernel's per-SV arguments, validated on first use.

        ``(voxels, offsets, svb_indices)`` addresses, the member count and
        the SVB size.  The arrays stay alive as attributes of ``sv``.
        """
        if self._c_args is None:
            sv = self.sv
            n_members = sv.n_voxels
            voxels = _require(sv.voxels, np.int64, n_members, "sv.voxels")
            offsets = _require(sv.member_offsets, np.int64, n_members + 1, "sv.member_offsets")
            svb_idx = _require(sv.svb_indices, np.int64, int(offsets[-1]), "sv.svb_indices")
            if n_members and (voxels.min() < 0 or voxels.max() >= ctx.theta2.size):
                raise ValueError(f"c kernel: SV {sv.index} has a voxel out of range")
            # Each member's footprint must be exactly its CSC column, so the
            # kernel's wa/A reads stay inside that column.
            col_lens = np.diff(ctx.indptr)[voxels]
            if offsets[0] != 0 or not np.array_equal(np.diff(offsets), col_lens):
                raise ValueError(f"c kernel: SV {sv.index} footprints do not match its columns")
            if svb_idx.size and (svb_idx.min() < 0 or svb_idx.max() >= sv.svb_cells):
                raise ValueError(f"c kernel: SV {sv.index} has an SVB index out of range")
            self._c_args = (
                voxels.ctypes.data, offsets.ctypes.data, svb_idx.ctypes.data,
                n_members, sv.svb_cells,
            )
        return self._c_args

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
    ``python`` kernel, Python-list mirrors, the vectorized kernel's layout,
    the ``c`` kernel's struct) on first use.  A context is bound to one updater (hence one system
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
        #: error-sinogram length (the CSC row count)
        self.n_rows = matrix.shape[0]

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
        self._c_struct = None
        #: guards every lazy build below — one context may be shared by
        #: concurrent threads (re-entrant: the _FastPack build reads
        #: col_sizes and the list mirrors).
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

    @property
    def c_struct(self) -> _CContext:
        """The ``c`` kernel's struct over this context's arrays (lazy; validated once)."""
        if self._c_struct is None:
            with self._lock:
                if self._c_struct is None:
                    self._c_struct = _c_context(self)
        return self._c_struct

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
    if kernel == "c":
        return _sweep_c(ctx, order, x, e, zero_skip)
    raise ValueError(f"unknown kernel {kernel!r}")


def _sweep_c(ctx, order, x, e, zero_skip):
    """One ``repro_sweep`` call over the whole order."""
    c = ctx.c_struct
    order = np.ascontiguousarray(order, dtype=np.int64)
    _require(x, np.float64, c.n_voxels, "x", writeable=True)
    _require(e, np.float64, ctx.n_rows, "e", writeable=True)
    updates = _C_LIBRARY.lib.repro_sweep(
        ctypes.byref(c), order.ctypes.data, order.size, x.ctypes.data, e.ctypes.data,
        int(zero_skip),
    )
    if updates < 0:
        raise ValueError("c kernel: the sweep order holds a voxel index out of range")
    return updates


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
    ``svb`` in place.  Members are visited in bulk-synchronous waves of
    ``stale_width``: every member of a wave proposes its update from the
    same image and SVB state, then all of them apply.
    """
    if kernel == "python":
        return _visit_python(ctx, sv, order, x, svb, zero_skip, stale_width)
    if kernel == "vectorized":
        if stale_width == 1:
            return _visit_vectorized_seq(ctx, sv, order, x, svb, zero_skip)
        return _visit_vectorized_wave(ctx, sv, order, x, svb, zero_skip, stale_width)
    if kernel == "c":
        return _visit_c(ctx, sv, order, x, svb, zero_skip, stale_width)
    raise ValueError(f"unknown kernel {kernel!r}")


def _visit_c(ctx, sv, order, x, svb, zero_skip, stale_width):
    """One ``repro_sv_visit`` call: every wave, proposals then applies."""
    c = ctx.c_struct
    voxels, offsets, svb_idx, n_members, svb_cells = ctx.sv_prep(sv).c_args(ctx)
    order = np.ascontiguousarray(order, dtype=np.int64)
    _require(x, np.float64, c.n_voxels, "x", writeable=True)
    _require(svb, np.float64, svb_cells, "svb", writeable=True)
    skipped = ctypes.c_int64()
    tad = ctypes.c_double()
    updates = _C_LIBRARY.lib.repro_sv_visit(
        ctypes.byref(c), voxels, offsets, svb_idx, n_members, order.ctypes.data, order.size,
        x.ctypes.data, svb.ctypes.data, int(zero_skip), stale_width,
        ctypes.byref(skipped), ctypes.byref(tad),
    )
    if updates == -2:
        raise MemoryError("c kernel: no memory for the wave scratch")
    if updates < 0:
        raise ValueError("c kernel: bad stale_width or a member index out of range")
    return updates, skipped.value, tad.value


def _visit_python(ctx, sv, order, x, svb, zero_skip, stale_width):
    """The oracle: per-voxel SliceUpdater proposals and applies, wave by wave."""
    upd = ctx.updater
    updates = 0
    skipped = 0
    total_abs_delta = 0.0
    for start in range(0, order.size, stale_width):
        proposals = []
        for m in order[start : start + stale_width]:
            j = int(sv.voxels[m])
            if zero_skip and upd.should_skip(j, x):
                skipped += 1
                continue
            proposals.append((m, j, upd.propose_update(j, x, svb, sv.member_footprint(m))))
        for m, j, u in proposals:
            delta = upd.apply_update(j, u, x, svb, sv.member_footprint(m))
            total_abs_delta += abs(delta)
            updates += 1
    return updates, skipped, total_abs_delta


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
