"""PSV-ICD (Alg. 2) — the state-of-the-art multi-core CPU baseline.

Parallel SuperVoxel ICD from Wang et al., PPoPP'16, as described in §2.2:
SuperVoxels are distributed across CPU cores; each core copies its SV's
sinogram band into a private SVB, updates the SV's voxels sequentially
against that buffer, and merges the accumulated delta back into the global
error sinogram under a lock.

Concurrency emulation
---------------------
The numerics here are real; the *schedule* of a racy 16-core execution is
emulated deterministically as bulk-synchronous waves of ``n_cores`` SVs:
every SV in a wave snapshots the error sinogram as it stood at the start of
the wave (that is what concurrent cores observe), updates privately, and all
deltas merge at the end of the wave.  Image-domain updates apply
immediately, matching the fact that voxel arrays are not buffered in
PSV-ICD.  This preserves the algorithmically relevant property — SVs
processed concurrently do not see each other's error-sinogram updates — and
makes runs reproducible, which a true racy execution is not.

For wall-clock-parallel execution of the same semantics, pass
``backend="serial" | "thread" | "process"`` (see :mod:`repro.core.backends`):
each wave is then handed to an execution backend with full snapshot
isolation — the image ``x`` is snapshotted alongside ``e``, so SVs of one
wave cannot see each other's image updates either.  The three backends are
bit-identical to one another (and serve as each other's oracles); they
differ from the inline emulation only in image-snapshot visibility and in
how per-SV visit orders are seeded.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.core.backends import BACKENDS, make_backend, make_wave_tasks
from repro.core.convergence import RMSE_CONVERGED_HU, IterationRecord, RunHistory, rmse_hu
from repro.core.cost import map_cost
from repro.core.icd import ICDResult, default_prior, init_label, initial_image, resilience_hooks
from repro.core.kernels import resolve_kernel
from repro.core.prior import Neighborhood, Prior, shared_neighborhood
from repro.core.selection import SVSelector
from repro.core.supervoxel import SuperVoxelGrid
from repro.core.sv_engine import SVUpdateStats, process_supervoxel
from repro.core.voxel_update import SliceUpdater
from repro.ct.sinogram import ScanData
from repro.ct.system_matrix import SystemMatrix
from repro.observability import MetricsRecorder, as_recorder
from repro.utils import check_finite, check_positive, resolve_rng

__all__ = ["PSVWaveTrace", "PSVExecutionTrace", "psv_icd_reconstruct", "PSVICDResult"]

#: Default SV side for the CPU driver — Table 1 uses 13 on 512^2 slices.
DEFAULT_CPU_SV_SIDE = 13
#: PSV-ICD selects 20% of SVs per iteration after the first (Alg. 2).
DEFAULT_CPU_FRACTION = 0.20
#: The paper's CPU platform has 16 cores (2x Xeon E5-2670).
DEFAULT_N_CORES = 16


@dataclass(frozen=True)
class PSVWaveTrace:
    """One wave of concurrently processed SVs (what each core did)."""

    iteration: int
    sv_stats: tuple[SVUpdateStats, ...]


@dataclass
class PSVExecutionTrace:
    """Schedule-level record of a PSV-ICD run, consumed by the CPU timing model."""

    n_cores: int
    sv_side: int
    waves: list[PSVWaveTrace] = field(default_factory=list)

    @property
    def total_updates(self) -> int:
        """Total voxel updates across the run."""
        return sum(s.updates for w in self.waves for s in w.sv_stats)


@dataclass
class PSVICDResult(ICDResult):
    """ICD result plus the schedule trace for performance modelling."""

    trace: PSVExecutionTrace | None = None
    grid: SuperVoxelGrid | None = None


def psv_icd_reconstruct(
    scan: ScanData,
    system: SystemMatrix,
    *,
    prior: Prior | None = None,
    sv_side: int = DEFAULT_CPU_SV_SIDE,
    overlap: int = 1,
    n_cores: int = DEFAULT_N_CORES,
    fraction: float = DEFAULT_CPU_FRACTION,
    max_equits: float = 20.0,
    golden: np.ndarray | None = None,
    stop_rmse: float | None = None,
    init: "str | np.ndarray" = "fbp",
    zero_skip: bool = True,
    positivity: bool = True,
    seed: int | np.random.Generator | None = 0,
    track_cost: bool = True,
    grid: SuperVoxelGrid | None = None,
    kernel: str | None = "auto",
    neighborhood: Neighborhood | None = None,
    metrics: MetricsRecorder | None = None,
    backend: str = "inline",
    n_workers: int | None = None,
    wave_timeout: float | None = None,
    pipeline: bool = False,
    wave_batch: int | None = None,
    fault_injection: tuple | None = None,
    checkpoint=None,
    checkpoint_every: int = 1,
    resume_from=None,
    sentinel=None,
) -> PSVICDResult:
    """Reconstruct with the PSV-ICD algorithm (Alg. 2).

    Parameters mirror :func:`repro.core.icd.icd_reconstruct`, plus:

    sv_side:
        SuperVoxel side length in voxels.
    overlap:
        Boundary-voxel sharing between adjacent SVs.
    n_cores:
        Emulated core count = SVs processed per concurrent wave.
    fraction:
        SV selection fraction after the first iteration (paper: 20 %).
    grid:
        Optionally a prebuilt :class:`SuperVoxelGrid` (grids are geometry
        -static, so sweeps over other parameters can share one).  It must be
        built for ``system``'s geometry; its ``sv_side`` and ``overlap``
        take the place of the arguments, also in the trace.
    kernel:
        Inner-loop implementation (``"auto"``/``"python"``/``"vectorized"``/
        ``"numba"``); all kernels produce bit-identical iterates.
    neighborhood:
        Optionally a prebuilt :class:`Neighborhood`; defaults to the
        process-wide shared instance for this image size.
    metrics:
        Optionally a :class:`~repro.observability.MetricsRecorder`: records
        one span per outer iteration with per-wave ``extract`` / ``update``
        / ``merge`` phase children plus per-kernel-flavor counters, and is
        attached to the result.  Instrumentation never changes iterates.
    backend:
        ``"inline"`` (default) runs the deterministic in-process wave
        emulation above; ``"serial"`` / ``"thread"`` / ``"process"`` route
        each wave through the corresponding :mod:`repro.core.backends`
        executor with snapshot-isolation semantics.  All three backends are
        bit-identical to one another; their iterates differ (validly) from
        inline, which lets later SVs of a wave see earlier image updates.
    n_workers:
        Pool size for the thread/process backends (default: ``n_cores``
        capped at the machine's CPU count).
    wave_timeout:
        Optional per-wave wall-clock budget in seconds for the pool
        backends; overrunning SVs are recomputed inline (same iterates).
    pipeline:
        With a non-inline backend, run each iteration's waves through the
        backend's two-deep pipeline (:meth:`run_waves`): while workers
        compute wave ``k``, the parent merges wave ``k-1`` into ``x``/``e``
        against double-buffered snapshot arenas.  Bit-identical to
        sequential waves on the same backend.
    wave_batch:
        Optional shard-size cap for the pool backends (default: one shard
        per worker); ignored by ``inline``/``serial``.
    fault_injection:
        Test-only :meth:`repro.resilience.FaultInjector.worker_fault` spec
        forwarded to the pool backends (crash/stall workers on chosen SVs).
    checkpoint, checkpoint_every, resume_from, sentinel:
        Resilience layer (disabled by default) — identical semantics to
        :func:`repro.core.icd.icd_reconstruct`; checkpoints additionally
        persist the :class:`SVSelector` update-amount state so the
        selection schedule resumes bit-identically.
    """
    check_positive("n_cores", n_cores)
    prior = prior if prior is not None else default_prior()
    rec = as_recorder(metrics)
    check_finite("scan.sinogram", scan.sinogram)
    check_finite("scan.weights", scan.weights)
    geometry = system.geometry
    if neighborhood is None:
        neighborhood = shared_neighborhood(geometry.n_pixels)
    kernel = resolve_kernel(kernel, prior)
    updater = SliceUpdater(system, scan, prior, neighborhood, positivity=positivity)
    rng = resolve_rng(seed)

    if grid is None:
        grid = SuperVoxelGrid(system, sv_side, overlap=overlap)
    elif grid.geometry != geometry:
        raise ValueError(
            f"grid was built for {grid.geometry}, but the system matrix is for {geometry}"
        )
    selector = SVSelector(grid.n_svs, fraction)

    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; use one of {BACKENDS}")
    if pipeline and backend == "inline":
        raise ValueError("pipeline=True requires backend='serial'/'thread'/'process'")
    exec_backend = None
    if backend != "inline":
        if n_workers is None:
            n_workers = max(1, min(n_cores, os.cpu_count() or 1))
        exec_backend = make_backend(
            backend,
            updater=updater,
            grid=grid,
            scan=scan,
            system=system,
            prior=prior,
            positivity=positivity,
            n_workers=n_workers,
            wave_timeout=wave_timeout,
            wave_batch=wave_batch,
            fault_injection=fault_injection,
        )
    elif fault_injection is not None:
        raise ValueError("fault_injection requires a pool backend ('thread'/'process')")

    n_voxels = geometry.n_voxels
    hooks = resilience_hooks(
        "psv_icd", checkpoint, checkpoint_every, resume_from, sentinel, metrics
    )
    ckpt = hooks.resume_state() if hooks is not None else None
    if ckpt is not None:
        hooks.validate_shapes(ckpt, n_voxels=n_voxels, n_measurements=scan.n_measurements)
        x, e, rng, history, iteration, total_updates = hooks.apply_resume(
            ckpt, rng=rng, selector=selector
        )
    else:
        x = initial_image(scan, init=init).ravel().copy()
        check_finite(f"initial image (init={init_label(init)})", x)
        e = updater.initial_error(x)
        history = RunHistory()
        total_updates = 0
        iteration = 0

    trace = PSVExecutionTrace(n_cores=n_cores, sv_side=grid.sv_side)
    try:
        while total_updates < max_equits * n_voxels:
            iteration += 1
            selected = selector.select(iteration, rng)
            iter_updates = 0
            with rec.span("iteration", index=iteration):
                if exec_backend is not None and pipeline:
                    # Pipelined path: pre-draw every wave's seed (same rng
                    # consumption order/count as the sequential path below,
                    # so iterates match bit-for-bit), then hand the whole
                    # iteration's wave list to the backend.  Selector
                    # bookkeeping moves after run_waves — record_update is
                    # only read at the next iteration's select().
                    wave_list = []
                    for wave_start in range(0, selected.size, n_cores):
                        wave_svs = selected[wave_start : wave_start + n_cores]
                        wave_seed = int(rng.integers(0, 2**63 - 1))
                        wave_list.append(
                            make_wave_tasks(
                                wave_seed,
                                wave_svs,
                                zero_skip=zero_skip and iteration > 1,
                                stale_width=1,
                                kernel=kernel,
                            )
                        )
                    per_wave = exec_backend.run_waves(wave_list, x, e, metrics=rec)
                    for wave_stats in per_wave:
                        for stats in wave_stats:
                            selector.record_update(stats.sv_index, stats.total_abs_delta)
                            iter_updates += stats.updates
                        trace.waves.append(
                            PSVWaveTrace(iteration=iteration, sv_stats=tuple(wave_stats))
                        )
                    wave_range = ()  # waves already executed
                else:
                    wave_range = range(0, selected.size, n_cores)
                for wave_start in wave_range:
                    wave_svs = selected[wave_start : wave_start + n_cores]
                    with rec.span("wave", svs=len(wave_svs)):
                        if exec_backend is not None:
                            # One rng draw per wave (identical consumption in
                            # every backend → cross-backend bit-identity);
                            # per-SV streams derive from it collision-free.
                            wave_seed = int(rng.integers(0, 2**63 - 1))
                            tasks = make_wave_tasks(
                                wave_seed,
                                wave_svs,
                                zero_skip=zero_skip and iteration > 1,
                                stale_width=1,
                                kernel=kernel,
                            )
                            wave_stats = exec_backend.run_wave(tasks, x, e, metrics=rec)
                            for stats in wave_stats:
                                selector.record_update(stats.sv_index, stats.total_abs_delta)
                                iter_updates += stats.updates
                        else:
                            # Each concurrent core snapshots the error sinogram
                            # as of the start of the wave.
                            svbs = []
                            originals = []
                            with rec.span("extract"):
                                for sv_id in wave_svs:
                                    sv = grid.svs[int(sv_id)]
                                    svb = sv.extract(e)
                                    originals.append(svb.copy())
                                    svbs.append(svb)
                            wave_stats = []
                            with rec.span("update"):
                                for sv_id, svb in zip(wave_svs, svbs):
                                    sv = grid.svs[int(sv_id)]
                                    stats = process_supervoxel(
                                        sv, updater, x, svb, rng=rng,
                                        zero_skip=zero_skip and iteration > 1,  # bootstrap exemption
                                        stale_width=1,
                                        kernel=kernel,
                                        metrics=rec,
                                    )
                                    selector.record_update(sv.index, stats.total_abs_delta)
                                    wave_stats.append(stats)
                                    iter_updates += stats.updates
                            # Locked merge (Alg. 2 lines 16-19) at the end of
                            # the wave.
                            with rec.span("merge"):
                                for sv_id, svb, orig in zip(wave_svs, svbs, originals):
                                    grid.svs[int(sv_id)].accumulate_delta(svb, orig, e)
                    trace.waves.append(
                        PSVWaveTrace(iteration=iteration, sv_stats=tuple(wave_stats))
                    )

                total_updates += iter_updates
                img = x.reshape(geometry.n_pixels, geometry.n_pixels)
                with rec.span("bookkeeping"):
                    cost = (
                        map_cost(img, scan, system, prior, neighborhood)
                        if track_cost
                        else float("nan")
                    )
                    rmse = rmse_hu(img, golden) if golden is not None else None
            history.append(
                IterationRecord(
                    iteration=iteration,
                    equits=total_updates / n_voxels,
                    cost=cost,
                    rmse=rmse,
                    updates=iter_updates,
                    svs_updated=int(selected.size),
                )
            )
            if hooks is not None:
                rolled = hooks.after_iteration(
                    iteration=iteration,
                    total_updates=total_updates,
                    x=x,
                    e=e,
                    rng=rng,
                    history=history,
                    updater=updater,
                    selector=selector,
                )
                if rolled is not None:  # corruption detected: replay from checkpoint
                    iteration, total_updates = rolled
                    continue
            if iter_updates == 0 and iteration > 1:
                break
            if stop_rmse is not None and rmse is not None and rmse < stop_rmse:
                break
    finally:
        if exec_backend is not None:
            exec_backend.close()

    history.mark_converged_if_below(stop_rmse if stop_rmse is not None else RMSE_CONVERGED_HU)
    return PSVICDResult(
        image=x.reshape(geometry.n_pixels, geometry.n_pixels),
        history=history,
        error_sinogram=e.reshape(geometry.sinogram_shape),
        metrics=metrics,
        trace=trace,
        grid=grid,
    )
