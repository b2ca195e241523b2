"""Batch update kernels — the ICD hot path.

Every driver ultimately spends its time in the Alg. 1 per-voxel chain:
gather the footprint from an error buffer, dot it against the fused ``w*A``
products, solve the 1-D surrogate against the 8-neighborhood, scatter the
delta back.  Executed as one Python-level
:class:`~repro.core.voxel_update.SliceUpdater` call per voxel, interpreter
dispatch dwarfs the arithmetic — exactly the fine-grained footprint work the
paper's §4 data-layout transformation exists to make fast.  Two kernels
run it, both over the updater's own arrays:

``python``
    The original per-voxel :class:`SliceUpdater` path.  Slow and simple,
    it runs every prior and storage dtype, and it is the **equivalence
    oracle**: the ``c`` kernel must reproduce its iterates bit-for-bit.
``c``
    The whole sweep or SuperVoxel visit in one C call (``icd_kernel.c``,
    called through :mod:`ctypes`).  Runs the q-GGMRF and quadratic priors
    (exact type) over float32 storage with int32 indices.  The source is
    compiled on first use, at most once per process, by ``$CC`` or else the
    compiler Python was built with, with the fixed flags
    ``-O2 -ffp-contract=off -fPIC -shared -lm`` into a private temporary
    directory that is deleted once the library is loaded; a forked child
    inherits the loaded library.

No caller chooses between them: each
:class:`~repro.core.voxel_update.SliceUpdater` records the one its solve
runs (``updater.kernel``) when it is built, ``c`` where the library loads
and supports its prior and matrix, ``python`` otherwise (no compiler, a
failed build, a generic prior, float64 storage).  Since both kernels
compute the same bits, that never changes iterates, RNG draws or
checkpoints.  :func:`no_compiler` runs a block as a host without a
compiler does, which is how the tests and the kernel bench reach the
oracle.

The library also runs four preparation passes.  :func:`build_csc` writes
the system matrix straight to CSC
(:func:`~repro.ct.system_matrix.build_system_matrix`, once per geometry)
where the matrix is float32 and int32 holds its indices.  Three more
prepare every driver call, wherever the matrix is float32 with int32
indices: :func:`fill_products` (one column block of the
:class:`~repro.core.voxel_update.SliceUpdater` build's ``wa`` and theta2
terms), :func:`csc_matvec` (:meth:`~repro.ct.system_matrix.SystemMatrix.forward`,
so the initial error sinogram, the simulated scan and the MAP cost) and
:func:`backproject` (:func:`~repro.ct.fbp.fbp_reconstruct`).  Each is
bit-identical to the NumPy or scipy code its caller keeps as the oracle,
which runs where the library does not: no compiler, or a float64 or int64
matrix.  So the library compiles on the first system matrix build, driver
call, forward projection or FBP, whichever comes first.

Bit-exactness contract
----------------------
Cross-kernel bit-equality is only possible if both kernels perform the
same IEEE-754 operations in the same order.  Empirically (and baked into
this design, so that the compiled scalar kernel joins the contract):

* ``np.cumsum`` is the only NumPy reduction that matches a scalar
  accumulation loop bit-for-bit; ``np.sum``, ``@``/BLAS dots and
  ``np.add.reduceat`` all use pairwise/SIMD orderings a compiled loop
  cannot reproduce.  All reductions here are therefore strict
  left-to-right: ``cumsum`` in NumPy, plain loops in C.
* NumPy's vectorized ``pow`` is elementwise-deterministic (independent of
  position, length and stride) but **not** bit-identical to libm's
  ``pow`` — and compiled code calls libm.  The oracle therefore evaluates
  the q-GGMRF influence ratio one scalar at a time via ``math.pow`` (see
  :meth:`QGGMRFPrior.influence_ratio_scalar`), which the C kernel's libm
  ``pow`` reproduces.
* Padding is exact: the C kernel pads every neighborhood to width 8 with
  slots that carry weight 0.0 and index the voxel itself, so both
  surrogate sums see an interleaved ``+0.0`` term, which never changes a
  strict-sequential sum here (the running sums cannot be ``-0.0`` for our
  nonnegative weights and non-subnormal images).
* Scalar-array products against float32 data are forced to float64 loops
  (NEP 50 would otherwise compute ``float32 * python_float`` in float32).
* The C source is compiled with ``-ffp-contract=off`` (no fused
  multiply-adds) and never with ``-ffast-math``/``-Ofast``; ``CFLAGS`` is
  not read, because the flags are part of this contract.
* The preparation passes copy their oracles' orders: the matrix build
  evaluates ``trapezoid_cdf`` and ``channel_of`` operation for operation
  from each view's NumPy scalar ``cos``/``sin``/widths/span, rounds each
  float64 value to float32 after the ``tol`` test, and emits a column's
  entries view by view, channels upward, as ``coo.tocsc()`` sorts them;
  the forward projection adds column by column into a zeroed sinogram, as scipy's
  ``csc_matvec`` does over its float64 copy of the matrix; the
  backprojection adds views in order from 0.0 and interpolates branch for
  branch as ``np.interp`` does on the integer channel grid, from one NumPy
  scalar ``cos``/``sin`` per view (a vectorised ``np.cos`` need not match
  them); and theta2 still sums its terms with ``np.add.reduceat``, per
  column block, whose segments are the columns as over the whole matrix.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.core.prior import QGGMRFPrior, QuadraticPrior
from repro.observability import NULL_RECORDER

__all__ = [
    "backproject",
    "build_csc",
    "c_runs_matrix",
    "csc_matvec",
    "fill_products",
    "load_c_kernel",
    "no_compiler",
    "run_sweep",
    "run_sv_visit",
]

#: ``struct repro_ctx``'s prior codes (``KIND_*`` in ``icd_kernel.c``), by
#: exact type: a subclass may change the surrogate, so it runs the oracle.
_C_PRIOR_KINDS = {QuadraticPrior: 0, QGGMRFPrior: 1}


# ----------------------------------------------------------------------
# The compiled kernel: build, load, and the struct it reads
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
        ("view_recip", ctypes.c_uint64),
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
        ctx_p, ptr, ptr, i64, ptr, i64, ptr, ptr, i32, i64,
        ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double),
    ]
    lib.repro_sv_visit.restype = i64
    lib.repro_fill_products.argtypes = [ptr, ptr, i64, ptr, i64, ptr, ptr]
    lib.repro_fill_products.restype = i64
    lib.repro_csc_matvec.argtypes = [i64, i64, i64, ptr, ptr, ptr, ptr, ptr]
    lib.repro_csc_matvec.restype = i64
    f64 = ctypes.c_double
    lib.repro_backproject.argtypes = [i64, ptr, ptr, i64, ptr, ptr, ptr, i64, f64, f64, ptr]
    lib.repro_backproject.restype = None
    lib.repro_build_csc.argtypes = [
        i64, ptr, ptr, i64, ptr, ptr, ptr, ptr, ptr, i64, f64, f64, f64, i64, ptr, ptr, ptr,
    ]
    lib.repro_build_csc.restype = i64
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


@contextlib.contextmanager
def no_compiler():
    """Run the block as a host without a compiler runs it.

    Installs a library whose build failed until the block exits: each
    :class:`~repro.core.voxel_update.SliceUpdater` built inside runs the
    ``python`` kernel, and each preparation pass its NumPy or scipy
    oracle.  A worker forked inside inherits it.  The swap is process-wide
    and not thread-safe; the equivalence tests and the kernel bench use it
    to compare the two paths.
    """
    global _C_LIBRARY
    compiled = _C_LIBRARY
    _C_LIBRARY = _CLibrary()
    _C_LIBRARY.error = "OSError: no compiler inside no_compiler()"
    try:
        yield
    finally:
        _C_LIBRARY = compiled


def _matrix_unsupported(matrix) -> str | None:
    """Why the ``c`` kernel cannot run over the CSC ``matrix``, or None."""
    if (
        matrix.format != "csc"
        or matrix.data.dtype != np.float32
        or matrix.indices.dtype != np.int32
        or matrix.indptr.dtype != np.int32
    ):
        return "the system matrix is not float32 with int32 indices"
    return _C_LIBRARY.load()


def _c_unsupported(updater) -> str | None:
    """Why the ``c`` kernel cannot run ``updater``'s solve, or None.

    The preparation passes' test (:func:`c_runs_matrix`) plus the prior's
    exact type; :class:`~repro.core.voxel_update.SliceUpdater` picks its
    kernel from it.
    """
    if type(updater.prior) not in _C_PRIOR_KINDS:
        return f"prior {type(updater.prior).__name__} is neither QGGMRFPrior nor QuadraticPrior"
    return _matrix_unsupported(updater.system.matrix)


def c_runs_matrix(matrix) -> bool:
    """Whether the ``c`` kernel runs the preparation passes over ``matrix``.

    True when the library loads (building it on the first call) and
    ``matrix`` is a float32 CSC matrix with int32 indices.
    """
    return _matrix_unsupported(matrix) is None


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


#: A row's view is ``(row * view_reciprocal(n_channels)) >> VIEW_BITS``; the
#: ``c`` kernel's ``svb_cell`` shifts by the same 40 bits.
VIEW_BITS = 40


def view_reciprocal(n_channels: int) -> int:
    """``ceil(2**VIEW_BITS / n_channels)``, the ``c`` kernel's divisor for a row's view.

    ``(row * it) >> VIEW_BITS`` equals ``row // n_channels`` while ``row``
    stays below ``2**VIEW_BITS / n_channels``; :func:`check_c_matrix`
    checks it over every row of the matrix it runs on.
    """
    return -(-(1 << VIEW_BITS) // n_channels)


#: The :meth:`~repro.ct.system_matrix.SystemMatrix.derived` key under which
#: a matrix keeps the outcome of :func:`check_c_matrix`.
_MATRIX_CHECKED = "c kernel matrix checks"


def check_c_matrix(system) -> int:
    """Check what the ``c`` kernel follows in ``system``'s matrix; return its view reciprocal.

    ``indptr`` must be a CSC column index over the stored entries, every row
    index must lie in the matrix, and :func:`view_reciprocal` must give each
    row's view, as an SV visit finds it by a multiply-shift.  These depend on
    the matrix alone, so :func:`build_c_struct` runs them once per
    ``SystemMatrix`` (a refused matrix is refused on every call).
    """
    matrix = system.matrix
    nnz = matrix.indices.size
    indptr = _require(matrix.indptr, np.int32, matrix.shape[1] + 1, "indptr")
    indices = _require(matrix.indices, np.int32, nnz, "indices")
    if indptr[0] != 0 or indptr[-1] != nnz or np.any(np.diff(indptr) < 0):
        raise ValueError("c kernel: indptr is not a valid CSC column index")
    if nnz and (indices.min() < 0 or indices.max() >= matrix.shape[0]):
        raise ValueError("c kernel: a CSC row index is out of range")
    n_chan = system.geometry.n_channels
    recip = view_reciprocal(n_chan)
    rows = np.arange(matrix.shape[0], dtype=np.int64)
    if not np.array_equal((rows * recip) >> VIEW_BITS, rows // n_chan):
        raise ValueError(f"c kernel: the view reciprocal of {n_chan} channels is not exact")
    return recip


def build_c_struct(updater) -> _CContext:
    """Validate ``updater``'s arrays and point a ``_CContext`` at them.

    The matrix's own checks (:func:`check_c_matrix`) run once per
    ``SystemMatrix``; the updater's arrays are checked on every call.  The
    struct holds raw addresses, so it must not outlive the arrays:
    :attr:`SliceUpdater.c_struct` keeps it next to them.
    """
    reason = _c_unsupported(updater)
    if reason is not None:
        raise RuntimeError(f"kernel 'c' cannot run: {reason}")
    system = updater.system
    recip = system.derived(_MATRIX_CHECKED, lambda: check_c_matrix(system))
    matrix = system.matrix
    n = matrix.shape[1]
    nnz = matrix.indices.size
    nb_idx = _require(updater.nb_idx, np.int64, 8 * n, "nb_idx")
    if nb_idx.min() < 0 or nb_idx.max() >= n:
        raise ValueError("c kernel: a neighbour index is out of range")
    prior = updater.prior
    c = _CContext(
        n_voxels=n,
        indptr=matrix.indptr.ctypes.data,
        indices=matrix.indices.ctypes.data,
        wa=_require(updater.wa, np.float32, nnz, "wa").ctypes.data,
        a=_require(updater.a_data, np.float32, nnz, "a_data").ctypes.data,
        nb_idx=nb_idx.ctypes.data,
        nb_w=_require(updater.nb_w, np.float64, 8 * n, "nb_w").ctypes.data,
        theta2=_require(updater.theta2, np.float64, n, "theta2").ctypes.data,
        view_recip=recip,
        kind=_C_PRIOR_KINDS[type(prior)],
        positivity=int(bool(updater.positivity)),
    )
    if type(prior) is QGGMRFPrior:
        c.tsig, c.c0, c.hq, c.p = prior.surrogate_coeffs()
    else:
        c.qc = prior.influence_ratio_scalar(0.0)
    return c


# ----------------------------------------------------------------------
# Full-image sequential sweep (the icd_reconstruct inner loop)
# ----------------------------------------------------------------------
def run_sweep(
    updater,
    order: np.ndarray,
    x: np.ndarray,
    e: np.ndarray,
    *,
    zero_skip: bool,
    metrics=NULL_RECORDER,
) -> int:
    """Visit every voxel in ``order`` against the global error sinogram.

    ``updater`` is the run's :class:`~repro.core.voxel_update.SliceUpdater`,
    whose ``kernel`` runs the sweep.  Mutates ``x`` and ``e`` in place;
    returns the number of voxel updates performed (zero-skipped voxels
    excluded).  ``metrics`` (a
    :class:`~repro.observability.MetricsRecorder`) receives per-flavor
    ``kernel.<flavor>.{sweeps,updates,skipped}`` counters; the default
    no-op recorder costs one attribute read.
    """
    kernel = updater.kernel
    sweep = _sweep_c if kernel == "c" else _sweep_python
    updates = sweep(updater, order, x, e, zero_skip)
    if metrics.enabled:
        metrics.count(f"kernel.{kernel}.sweeps", 1)
        metrics.count(f"kernel.{kernel}.updates", updates)
        metrics.count(f"kernel.{kernel}.skipped", order.size - updates)
    return updates


def _sweep_c(upd, order, x, e, zero_skip):
    """One ``repro_sweep`` call over the whole order."""
    c = upd.c_struct
    order = np.ascontiguousarray(order, dtype=np.int64)
    _require(x, np.float64, c.n_voxels, "x", writeable=True)
    _require(e, np.float64, upd.system.matrix.shape[0], "e", writeable=True)
    updates = _C_LIBRARY.lib.repro_sweep(
        ctypes.byref(c), order.ctypes.data, order.size, x.ctypes.data, e.ctypes.data,
        int(zero_skip),
    )
    if updates < 0:
        raise ValueError("c kernel: the sweep order holds a voxel index out of range")
    return updates


def _sweep_python(upd, order, x, e, zero_skip):
    """The oracle: the original per-voxel SliceUpdater loop, footprints hoisted."""
    fp_views = upd.fp_views
    updates = 0
    for j in order:
        jj = int(j)
        if zero_skip and upd.should_skip(jj, x):
            continue
        upd.update_voxel(jj, x, e, fp_views[jj])
        updates += 1
    return updates


# ----------------------------------------------------------------------
# SuperVoxel visit (the process_supervoxel inner loop)
# ----------------------------------------------------------------------
def run_sv_visit(
    updater,
    sv,
    order: np.ndarray,
    x: np.ndarray,
    svb: np.ndarray,
    *,
    zero_skip: bool,
    stale_width: int,
) -> tuple[int, int, float]:
    """Visit ``sv``'s members in ``order`` against the flat SVB ``svb``.

    Returns ``(updates, skipped, total_abs_delta)`` with the exact counting
    and accumulation order of the per-voxel engine.  Mutates ``x`` and
    ``svb`` in place.  Members are visited in bulk-synchronous waves of
    ``stale_width``: every member of a wave proposes its update from the
    same image and SVB state, then all of them apply.  ``updater.kernel``
    runs the visit.  ``sv`` must address the updater's own system matrix:
    its footprints were checked against that matrix when it was built.
    """
    system = updater.system
    if sv.matrix is not system.matrix or sv.n_channels != system.geometry.n_channels:
        raise ValueError(f"SV {sv.index} was built over another system matrix")
    visit = _visit_c if updater.kernel == "c" else _visit_python
    return visit(updater, sv, order, x, svb, zero_skip, stale_width)


def _visit_c(upd, sv, order, x, svb, zero_skip, stale_width):
    """One ``repro_sv_visit`` call: every wave, proposals then applies.

    ``sv``'s tables are int64, C-contiguous, read-only and checked against
    its matrix since it was built, so only the buffers are checked here.
    """
    c = upd.c_struct
    order = np.ascontiguousarray(order, dtype=np.int64)
    _require(x, np.float64, c.n_voxels, "x", writeable=True)
    _require(svb, np.float64, sv.svb_cells, "svb", writeable=True)
    skipped = ctypes.c_int64()
    tad = ctypes.c_double()
    updates = _C_LIBRARY.lib.repro_sv_visit(
        ctypes.byref(c), sv.voxels.ctypes.data, sv.view_shift.ctypes.data, sv.n_voxels,
        order.ctypes.data, order.size, x.ctypes.data, svb.ctypes.data, int(zero_skip),
        stale_width, ctypes.byref(skipped), ctypes.byref(tad),
    )
    if updates == -2:
        raise MemoryError("c kernel: no memory for the wave scratch")
    if updates < 0:
        raise ValueError("c kernel: bad stale_width or a member index out of range")
    return updates, skipped.value, tad.value


def _visit_python(upd, sv, order, x, svb, zero_skip, stale_width):
    """The oracle: per-voxel SliceUpdater proposals and applies, wave by wave."""
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
            fp = sv.member_footprint(m)
            proposals.append((j, fp, upd.propose_update(j, x, svb, fp)))
        for j, fp, u in proposals:
            delta = upd.apply_update(j, u, x, svb, fp)
            total_abs_delta += abs(delta)
            updates += 1
    return updates, skipped, total_abs_delta


# ----------------------------------------------------------------------
# Preparation passes: the matrix build, the updater build, forward
# projection, FBP
# ----------------------------------------------------------------------
def fill_products(rows, a, weights, wa, products) -> None:
    """One column block of the updater build, in one pass over its entries.

    For the block's stored entries (CSC ``rows`` and float32 values ``a``)
    writes ``wa = float32(weights[rows] * a)`` and theta2's terms
    ``products = (weights[rows] * a) * a``, the bits the NumPy build gets.
    The caller checked :func:`c_runs_matrix` for the block's matrix.
    """
    n = rows.size
    _require(rows, np.int32, n, "rows")
    _require(a, np.float32, n, "a")
    _require(weights, np.float64, weights.size, "weights")
    _require(wa, np.float32, n, "wa", writeable=True)
    _require(products, np.float64, n, "products", writeable=True)
    if _C_LIBRARY.lib.repro_fill_products(
        rows.ctypes.data, a.ctypes.data, n, weights.ctypes.data, weights.size,
        wa.ctypes.data, products.ctypes.data,
    ):
        raise ValueError("c kernel: a CSC row index is out of range")


def csc_matvec(matrix, x: np.ndarray) -> np.ndarray:
    """``matrix @ x`` for a float64 ``x``, bit for bit, without widening the matrix.

    scipy's ``csc_matvec`` runs over a float64 copy of a float32 matrix;
    this adds the same products in the same order over the float32 values.
    The caller checked :func:`c_runs_matrix`.
    """
    n_rows, n_cols = matrix.shape
    nnz = matrix.indices.size
    indptr = _require(matrix.indptr, np.int32, n_cols + 1, "indptr")
    indices = _require(matrix.indices, np.int32, nnz, "indices")
    data = _require(matrix.data, np.float32, nnz, "data")
    _require(x, np.float64, n_cols, "x")
    y = np.zeros(n_rows)
    if _C_LIBRARY.lib.repro_csc_matvec(
        n_cols, n_rows, nnz, indptr.ctypes.data, indices.ctypes.data, data.ctypes.data,
        x.ctypes.data, y.ctypes.data,
    ):
        raise ValueError("c kernel: a CSC column offset or row index is out of range")
    return y


def build_csc(xs, ys, cos_v, sin_v, w1, w2, spans, n_channels: int, spacing: float,
              pixel_size: float, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`~repro.ct.system_matrix.build_system_matrix`'s CSC arrays in one pass.

    ``xs``/``ys`` are the raster's column and row centres, and ``cos_v``,
    ``sin_v``, ``w1``, ``w2`` and ``spans`` each view's cosine, sine,
    footprint box widths and channel span.  Returns int32 ``indptr`` and
    ``indices`` and float32 ``data``, the bits of the NumPy loop.  They are
    allocated at the bound ``n_pixels**2 * spans.sum()`` and shrunk in place
    to the entries kept, so no second copy of the matrix is ever made.  The
    caller checked :func:`load_c_kernel` and that the bound fits int32.
    """
    n = xs.size
    n_views = cos_v.size
    _require(xs, np.float64, n, "xs")
    _require(ys, np.float64, n, "ys")
    for name, arr in (("cos_v", cos_v), ("sin_v", sin_v), ("w1", w1), ("w2", w2)):
        _require(arr, np.float64, n_views, name)
    _require(spans, np.int64, n_views, "spans")
    cap = n * n * int(spans.sum())
    indptr = np.empty(n * n + 1, dtype=np.int32)
    indices = np.empty(cap, dtype=np.int32)
    data = np.empty(cap, dtype=np.float32)
    nnz = _C_LIBRARY.lib.repro_build_csc(
        n, xs.ctypes.data, ys.ctypes.data, n_views, cos_v.ctypes.data, sin_v.ctypes.data,
        w1.ctypes.data, w2.ctypes.data, spans.ctypes.data, n_channels, spacing, pixel_size,
        tol, cap, indptr.ctypes.data, indices.ctypes.data, data.ctypes.data,
    )
    if nnz == -2:
        raise ValueError("degenerate footprint: both widths are zero")
    if nnz == -3:
        raise MemoryError("c kernel: no memory for the view table")
    if nnz < 0:
        raise ValueError("c kernel: a footprint touches more channels than its view's span")
    # realloc shrinks in place: nothing else refers to the fresh arrays.
    indices.resize(nnz, refcheck=False)
    data.resize(nnz, refcheck=False)
    return indptr, indices, data


def backproject(filtered, x, y, cos_v, sin_v, spacing: float, center: float) -> np.ndarray:
    """FBP's backprojection of every view in one call.

    ``filtered`` holds one filtered view per row; ``x``/``y`` are the pixel
    centres and ``cos_v``/``sin_v`` each view's cosine and sine.  Returns
    the flat image whose pixel ``p`` sums, in view order, ``np.interp`` of
    the view's row at channel ``(x[p]*cos + y[p]*sin) / spacing + center``
    (zero off the detector), the bits of the NumPy loop in
    :func:`~repro.ct.fbp.fbp_reconstruct`.  The caller checked
    :func:`load_c_kernel`.
    """
    n_views, n_chan = filtered.shape
    n_pix = x.size
    _require(filtered, np.float64, n_views * n_chan, "filtered")
    _require(x, np.float64, n_pix, "x")
    _require(y, np.float64, n_pix, "y")
    _require(cos_v, np.float64, n_views, "cos_v")
    _require(sin_v, np.float64, n_views, "sin_v")
    recon = np.empty(n_pix)
    _C_LIBRARY.lib.repro_backproject(
        n_pix, x.ctypes.data, y.ctypes.data, n_views, cos_v.ctypes.data, sin_v.ctypes.data,
        filtered.ctypes.data, n_chan, spacing, center, recon.ctypes.data,
    )
    return recon
