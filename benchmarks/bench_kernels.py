"""Kernel microbenchmark — voxel-updates/sec per kernel on the suite slice.

Contenders, slowest first:

* ``baseline``   — the pre-kernel-layer driver loop: per-voxel
  ``column_slice`` + footprint re-gather + ``update_voxel`` (what
  ``icd_reconstruct`` executed before the kernel layer existed);
* ``python``     — the same per-voxel updater calls with the footprint-index
  views hoisted once per run (the equivalence oracle, and what a solve runs
  where the compiled kernel cannot); its updater is built inside
  :func:`~repro.core.kernels.no_compiler`, as on a host without a compiler;
* ``c``          — the compiled kernel (one C call per sweep or SV visit;
  skipped when the host cannot build it).

All contenders are run interleaved (machine noise on shared runners swings
single timings by tens of percent; best-of-N of interleaved trials is
stable) and each must reproduce the oracle's image and error sinogram
**bit-for-bit** before its timing counts.

The compiled kernel runs the oracle's operations without the interpreter:
at 64² on a 2-vCPU host (BENCH_3.json) it measured 17x the oracle on the
sweep and 17x in SV waves; we hard-assert >= 6x the oracle in both modes.

It also times the four preparation passes, each on the ``c`` kernel and
on the NumPy/scipy oracle that runs without it.  Three prepare a driver
call: the ``SliceUpdater`` build (``wa`` and theta2), the forward
projection behind the initial error sinogram, and the FBP initial image;
their timings are recorded, not gated.  The fourth builds the system
matrix, once per geometry: it is timed at 64² and 128² (median of
``BUILD_RUNS``), and the compiled build must run at least
``BUILD_MIN_SPEEDUP`` times the oracle's speed.  The two paths must give
the same bits before any timing counts.

Emit mode: set ``REPRO_BENCH_JSON=path.json`` to additionally write the
measured numbers as a machine-readable report (CI uploads it as the
``BENCH_3.json`` perf-trajectory artifact; the checked-in ``BENCH_3.json``
was produced this way).
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import time

import numpy as np
from conftest import report

from repro.core import SuperVoxelGrid, default_prior, initial_image
from repro.core.kernels import load_c_kernel, no_compiler, run_sv_visit, run_sweep
from repro.core.prior import shared_neighborhood
from repro.core.voxel_update import SliceUpdater
from repro.ct import build_system_matrix, fbp_reconstruct, scaled_geometry
from repro.utils import resolve_rng

#: Interleaved timing trials per contender; best-of is reported.
TRIALS = 5
#: Hard floor for the compiled kernel vs the python oracle, sweep and waves
#: alike; well under the measured ratios (BENCH_3.json), so the assert
#: trips on real regressions, not on a busy machine.
C_MIN_SPEEDUP = 6.0
#: Rasters the system matrix build is timed at, runs per path (the median
#: is reported), and the floor for the compiled build against the oracle;
#: it measured 3.5x at 64² and 4x at 128² on a 2-vCPU host (BENCH_3.json).
BUILD_PIXELS = (64, 128)
BUILD_RUNS = 3
BUILD_MIN_SPEEDUP = 2.0


def _baseline_sweep(updater, order, x, e, zero_skip):
    """The pre-kernel-layer icd_reconstruct inner loop, verbatim."""
    indices = updater.system.matrix.indices
    updates = 0
    for j in order:
        if zero_skip and updater.should_skip(j, x):
            continue
        sl = updater.column_slice(j)
        updater.update_voxel(j, x, e, indices[sl])
        updates += 1
    return updates


def _time_sweep(contender, updater, order, x0, e0):
    """One timed full-image sweep; returns (updates/sec, x, e)."""
    x = x0.copy()
    e = e0.copy()
    t0 = time.perf_counter()
    if contender == "baseline":
        updates = _baseline_sweep(updater, order, x, e, zero_skip=True)
    else:
        updates = run_sweep(updater, order, x, e, zero_skip=True)
    dt = time.perf_counter() - t0
    return updates / dt, x, e


def _sv_wave_pass(updater, grid, x0, e0, stale_width):
    """One timed pass over all SVs (GPU-style waves) in ``updater``'s kernel;
    returns (updates/sec, x, e)."""
    x = x0.copy()
    e = e0.copy()
    total = 0
    t0 = time.perf_counter()
    for sv in grid.svs:
        svb = sv.extract(e)
        order = resolve_rng(11 + sv.index).permutation(sv.n_voxels)
        updates, _, _ = run_sv_visit(
            updater, sv, order, x, svb, zero_skip=True, stale_width=stale_width
        )
        total += updates
        valid = sv.gather_idx >= 0
        e[sv.gather_idx[valid]] = svb[valid]
    dt = time.perf_counter() - t0
    return total / dt, x, e


def _prep_steps(scan, system, neighborhood, x0):
    """The three preparation passes, each a callable returning its output arrays."""
    prior = default_prior()

    def updater_build():
        upd = SliceUpdater(system, scan, prior, neighborhood)
        return upd.wa, upd.theta2

    return {
        "updater_build": updater_build,
        "forward": lambda: (system.forward(x0),),
        "fbp": lambda: (fbp_reconstruct(scan.sinogram, scan.geometry),),
    }


def _time_prep(steps, paths):
    """Best-of-TRIALS seconds per step and path, after a bit-identity check."""
    for name, step in steps.items():
        with no_compiler():
            want = step()
        for got, ref in zip(step(), want):
            assert np.array_equal(got, ref), f"{name}: the c pass is not bit-equal to the oracle"
    best = {name: {path: float("inf") for path in paths} for name in steps}
    for _ in range(TRIALS):
        for name, step in steps.items():
            for path in paths:
                with no_compiler() if path == "numpy" else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    step()
                    best[name][path] = min(best[name][path], time.perf_counter() - t0)
    return best


def _time_build(paths):
    """Median seconds per raster and path of ``build_system_matrix``, after a
    bit-identity check of the compiled build against the oracle."""
    times = {}
    for n in BUILD_PIXELS:
        geometry = scaled_geometry(n)
        got = build_system_matrix(geometry).matrix
        with no_compiler():
            want = build_system_matrix(geometry).matrix
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (
                f"system matrix {n}x{n}: the c build's {name} is not bit-equal to the oracle"
            )
        del got, want
        runs = {path: [] for path in paths}
        for _ in range(BUILD_RUNS):
            for path in paths:
                with no_compiler() if path == "numpy" else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    build_system_matrix(geometry)
                    runs[path].append(time.perf_counter() - t0)
        times[n] = {path: float(np.median(r)) for path, r in runs.items()}
    return times


def _emit_json(path, n_pixels, sv_side, stale_width, best, wave_best, prep, build):
    """Write the measured throughputs as the perf-trajectory JSON report."""
    oracle = best["python"]
    payload = {
        "bench": "kernels",
        "pixels": n_pixels,
        "trials": TRIALS,
        "cpu_count": os.cpu_count() or 1,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "sweep_updates_per_s": {k: round(v, 1) for k, v in best.items()},
        "sweep_speedup_vs_python": {k: round(v / oracle, 3) for k, v in best.items()},
        "wave": {
            "stale_width": stale_width,
            "sv_side": sv_side,
            "updates_per_s": {k: round(v, 1) for k, v in wave_best.items()},
            "speedup_vs_python": {
                k: round(v / wave_best["python"], 3) for k, v in wave_best.items()
            },
        },
        "prep_ms": {
            step: {k: round(1e3 * v, 3) for k, v in times.items()} for step, times in prep.items()
        },
        "system_matrix_build_ms": {
            "runs": BUILD_RUNS,
            **{
                f"{n}x{n}": {k: round(1e3 * v, 3) for k, v in times.items()}
                for n, times in build.items()
            },
        },
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def bench_kernels(ctx):
    case = ctx.cases[0]
    scan = ctx.scan(case)
    system = ctx.system
    n = ctx.n_pixels

    def build_updater():
        return SliceUpdater(system, scan, default_prior(), shared_neighborhood(n))

    # Each updater runs the kernel it picked when it was built.
    with no_compiler():
        python_updater = build_updater()
    updaters = {"baseline": python_updater, "python": python_updater}
    compiled = ["c"] if load_c_kernel() is None else []
    if compiled:
        updaters["c"] = build_updater()
    assert [u.kernel for u in updaters.values()] == ["python", "python", *compiled]
    contenders = list(updaters)

    x0 = initial_image(scan).ravel().copy()
    e0 = python_updater.initial_error(x0)
    order = resolve_rng(0).permutation(n * n)

    # Warmup: builds the footprint views and the c struct, and pins down the
    # oracle outputs every contender must reproduce exactly.
    _, x_ref, e_ref = _time_sweep("python", python_updater, order, x0, e0)
    for c in contenders:
        _, x_c, e_c = _time_sweep(c, updaters[c], order, x0, e0)
        assert np.array_equal(x_c, x_ref), f"{c}: image not bit-equal to oracle"
        assert np.array_equal(e_c, e_ref), f"{c}: error sinogram not bit-equal"

    # Interleaved best-of trials.
    best = {c: 0.0 for c in contenders}
    for _ in range(TRIALS):
        for c in contenders:
            ups, _, _ = _time_sweep(c, updaters[c], order, x0, e0)
            best[c] = max(best[c], ups)

    # SV-wave mode (GPU-ICD-style stale waves), python vs c.
    grid = SuperVoxelGrid(system, max(8, n // 8))
    stale = 8
    wave_contenders = ["python", *compiled]
    # Every wave contender must reproduce the oracle's pass bit-for-bit (each
    # SV's tables were checked when the grid was built, outside the timings).
    x_wref, e_wref = _sv_wave_pass(python_updater, grid, x0, e0, stale)[1:]
    for c in wave_contenders:
        _, x_c, e_c = _sv_wave_pass(updaters[c], grid, x0, e0, stale)
        assert np.array_equal(x_c, x_wref), f"{c}: SV-wave image not bit-equal to oracle"
        assert np.array_equal(e_c, e_wref), f"{c}: SV-wave error sinogram not bit-equal"
    wave_best = {c: 0.0 for c in wave_contenders}
    for _ in range(TRIALS):
        for c in wave_contenders:
            ups = _sv_wave_pass(updaters[c], grid, x0, e0, stale)[0]
            wave_best[c] = max(wave_best[c], ups)

    # Preparation passes, c vs the NumPy/scipy oracle (with a compiler).
    prep_paths = ["numpy", *compiled]
    prep = _time_prep(_prep_steps(scan, system, shared_neighborhood(n), x0), prep_paths)
    build = _time_build(prep_paths)

    oracle = best["python"]
    lines = [f"{n}x{n} suite slice, full-image sweep (best of {TRIALS} interleaved trials)"]
    lines.append(f"{'kernel':12s} {'updates/s':>12s} {'vs python':>10s} {'vs baseline':>12s}")
    for c in contenders:
        lines.append(
            f"{c:12s} {best[c]:12.0f} {best[c] / oracle:9.2f}x {best[c] / best['baseline']:11.2f}x"
        )
    lines.append("")
    lines.append(f"SV waves (stale_width={stale}, sv_side={grid.sv_side})")
    for c in wave_contenders:
        lines.append(
            f"{c:12s} {wave_best[c]:12.0f} {wave_best[c] / wave_best['python']:9.2f}x"
        )
    lines.append("")
    lines.append("preparation passes, ms (best of interleaved trials)")
    lines.append(f"{'step':14s}" + "".join(f" {p:>9s}" for p in prep_paths))
    for step, times in prep.items():
        lines.append(f"{step:14s}" + "".join(f" {1e3 * times[p]:9.2f}" for p in prep_paths))
    lines.append("")
    lines.append(f"system matrix build, ms (median of {BUILD_RUNS} interleaved runs)")
    for size, times in build.items():
        label = f"{size}x{size}"
        lines.append(f"{label:14s}" + "".join(f" {1e3 * times[p]:9.2f}" for p in prep_paths))
    report("KERNELS — voxel-updates/sec per kernel", "\n".join(lines))

    emit_path = os.environ.get("REPRO_BENCH_JSON")
    if emit_path:
        _emit_json(emit_path, n, grid.sv_side, stale, best, wave_best, prep, build)

    for mode, rates in (("sweep", best), ("SV waves", wave_best)):
        if compiled:
            assert rates["c"] >= C_MIN_SPEEDUP * rates["python"], (
                f"c kernel regressed ({mode}): {rates['c']:.0f} vs "
                f"{rates['python']:.0f} updates/s "
                f"({rates['c'] / rates['python']:.2f}x < {C_MIN_SPEEDUP}x)"
            )
    for size, times in build.items():
        if compiled:
            assert BUILD_MIN_SPEEDUP * times["c"] <= times["numpy"], (
                f"c system matrix build regressed at {size}x{size}: {times['c']:.3f} vs "
                f"{times['numpy']:.3f} s ({times['numpy'] / times['c']:.2f}x < "
                f"{BUILD_MIN_SPEEDUP}x)"
            )
    return best


def test_kernels(benchmark, ctx):
    benchmark.pedantic(bench_kernels, args=(ctx,), rounds=1, iterations=1)
