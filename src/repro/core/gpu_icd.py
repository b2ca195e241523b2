"""GPU-ICD (Alg. 3) — the paper's contribution.

The GPU algorithm restructures PSV-ICD around three levels of parallelism:

* **intra-voxel** — the theta1/theta2 dot products over a voxel's footprint
  are computed by the threads of one threadblock and tree-reduced in shared
  memory (Alg. 3 lines 5-8);
* **intra-SV** — several threadblocks work on one SV, pulling voxels from a
  dynamically scheduled queue (``atomicFetch`` in line 4) so zero-skipping
  cannot unbalance them;
* **inter-SV** — SVs are partitioned into four checkerboard groups of
  mutually non-adjacent SVs; up to ``batch_size`` SVs of one group launch as
  a single kernel.

Compared to PSV-ICD, error-sinogram updates are deferred: all SVBs of a
batch are created by one kernel, the MBIR kernel updates voxels against the
SVBs, and a third kernel atomically merges every SV's delta back — so SVs in
a batch never see each other's updates, and (with ``threadblocks_per_sv``
voxels in flight per SV) voxel updates inside an SV see slightly stale SVB
state.  Both staleness effects are reproduced numerically here (see
:mod:`repro.core.sv_engine`); the hardware-side consequences (occupancy,
coalescing, atomics) are evaluated by :mod:`repro.gpusim` from the execution
trace this driver records.

Load-balance guards from §3.2: the selection fraction is raised to 25 %, and
a kernel is only launched if at least ``batch_size / 4`` SVs remain in the
group (``threshold``), avoiding under-filled launches.
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

__all__ = [
    "GPUICDParams",
    "KernelTrace",
    "GPUExecutionTrace",
    "gpu_icd_reconstruct",
    "GPUICDResult",
]


@dataclass(frozen=True)
class GPUICDParams:
    """Tuning parameters of GPU-ICD (Table 1's "other parameter values").

    Defaults are the paper's tuned values for 512^2 slices; sweeps over each
    of them reproduce Figs. 7a-7d.
    """

    sv_side: int = 33
    threadblocks_per_sv: int = 40
    threads_per_block: int = 256
    batch_size: int = 32  # SVs per kernel launch
    fraction: float = 0.25  # SV selection fraction (vs 0.20 on CPU)
    chunk_width: int = 32  # data-layout chunk width (Fig. 6)
    use_threshold: bool = True  # skip under-filled kernel launches
    dynamic_scheduling: bool = True  # dynamic voxel distribution to threadblocks
    overlap: int = 1

    def __post_init__(self) -> None:
        check_positive("sv_side", self.sv_side)
        check_positive("threadblocks_per_sv", self.threadblocks_per_sv)
        check_positive("threads_per_block", self.threads_per_block)
        check_positive("batch_size", self.batch_size)
        check_positive("chunk_width", self.chunk_width)

    @property
    def threshold(self) -> int:
        """Minimum SVs to justify a kernel launch (§3.2: BATCH_SIZE / 4)."""
        return max(1, self.batch_size // 4) if self.use_threshold else 1


@dataclass(frozen=True)
class KernelTrace:
    """One MBIR kernel launch: which SVs ran and what they did."""

    iteration: int
    group: int  # checkerboard group 0..3
    sv_stats: tuple[SVUpdateStats, ...]

    @property
    def n_svs(self) -> int:
        """SVs processed by this kernel."""
        return len(self.sv_stats)

    @property
    def updates(self) -> int:
        """Voxel updates performed by this kernel."""
        return sum(s.updates for s in self.sv_stats)


@dataclass
class GPUExecutionTrace:
    """Schedule-level record of a GPU-ICD run, consumed by the timing model."""

    params: GPUICDParams
    kernels: list[KernelTrace] = field(default_factory=list)
    skipped_launches: int = 0  # launches suppressed by the batch threshold

    @property
    def total_updates(self) -> int:
        """Total voxel updates across the run."""
        return sum(k.updates for k in self.kernels)

    @property
    def n_kernels(self) -> int:
        """Number of MBIR kernel launches."""
        return len(self.kernels)


@dataclass
class GPUICDResult(ICDResult):
    """ICD result plus the execution trace for performance modelling."""

    trace: GPUExecutionTrace | None = None
    grid: SuperVoxelGrid | None = None


def gpu_icd_reconstruct(
    scan: ScanData,
    system: SystemMatrix,
    *,
    prior: Prior | None = None,
    params: GPUICDParams | None = None,
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
) -> GPUICDResult:
    """Reconstruct with the GPU-ICD algorithm (Alg. 3).

    The intra-SV concurrency width equals ``params.threadblocks_per_sv``
    (each threadblock has one voxel in flight at a time); inter-SV
    concurrency equals the batch, whose SVBs all snapshot the error sinogram
    at batch start.  ``kernel`` selects the inner-loop implementation
    (``"auto"``/``"python"``/``"vectorized"``/``"numba"``); all kernels
    produce bit-identical iterates.  ``neighborhood`` optionally passes a
    prebuilt table (defaults to the process-wide shared instance).

    ``metrics`` optionally passes a
    :class:`~repro.observability.MetricsRecorder`: each outer iteration
    records a span whose children are per-batch ``kernel_batch`` spans with
    the three Alg. 3 kernel phases — ``extract`` (SVB creation), ``update``
    (the MBIR kernel), ``merge`` (the atomic write-back) — plus
    per-kernel-flavor counters; the recorder is attached to the result and
    can be joined against the timing model via
    :meth:`repro.gpusim.timing.GPUTimingModel.measured_vs_modeled`.
    Instrumentation never changes iterates.

    ``backend`` routes each checkerboard batch through a
    :mod:`repro.core.backends` executor (``"serial"`` / ``"thread"`` /
    ``"process"``) instead of the inline batch loop; the batch becomes a
    snapshot-isolated wave with ``stale_width=params.threadblocks_per_sv``
    per SV.  All three backends are bit-identical to one another (the
    iterates differ validly from inline — see
    :func:`repro.core.psv_icd.psv_icd_reconstruct`).  ``n_workers`` and
    ``wave_timeout`` configure the pool backends; ``fault_injection``
    forwards a test-only worker-fault spec to them.  ``pipeline=True``
    routes each checkerboard group's batches through the backend's
    two-deep pipeline (merge of batch ``k-1`` overlaps compute of batch
    ``k``; bit-identical to sequential batches on the same backend) —
    batch spans are then emitted as ``wave`` spans by the backend instead
    of driver-side ``kernel_batch`` spans.  ``wave_batch`` caps the pool
    backends' shard size (default: one shard per worker).

    ``checkpoint`` / ``checkpoint_every`` / ``resume_from`` / ``sentinel``
    enable the resilience layer (disabled by default) with the same
    semantics as :func:`repro.core.icd.icd_reconstruct`; checkpoints
    additionally persist the :class:`SVSelector` update-amount state so the
    selection schedule resumes bit-identically.
    """
    params = params if params is not None else GPUICDParams()
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
        grid = SuperVoxelGrid(system, params.sv_side, overlap=params.overlap)
    elif grid.geometry != geometry:
        raise ValueError(
            f"grid was built for {grid.geometry}, but the system matrix is for {geometry}"
        )
    selector = SVSelector(grid.n_svs, params.fraction)
    checkerboard = grid.checkerboard_groups()

    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; use one of {BACKENDS}")
    if pipeline and backend == "inline":
        raise ValueError("pipeline=True requires backend='serial'/'thread'/'process'")
    exec_backend = None
    if backend != "inline":
        if n_workers is None:
            n_workers = max(1, min(4, os.cpu_count() or 1))
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
        "gpu_icd", checkpoint, checkpoint_every, resume_from, sentinel, metrics
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

    trace = GPUExecutionTrace(params=params)
    try:
        while total_updates < max_equits * n_voxels:
            iteration += 1
            selected = set(int(s) for s in selector.select(iteration, rng))
            iter_updates = 0
            iter_svs = 0
            with rec.span("iteration", index=iteration):
                for group_id in range(4):
                    group_svs = [sv for sv in checkerboard[group_id] if sv in selected]
                    rng.shuffle(group_svs)
                    if exec_backend is not None and pipeline:
                        # Pipelined path: materialise the group's batch list
                        # (replicating the threshold-skip logic and the
                        # per-batch seed draws in the exact order the
                        # sequential path performs them — same rng stream,
                        # same iterates), then run the batches through the
                        # backend's two-deep pipeline.
                        batches = []
                        for start in range(0, len(group_svs), params.batch_size):
                            batch = group_svs[start : start + params.batch_size]
                            if start > 0 and len(batch) < params.threshold and iteration > 1:
                                trace.skipped_launches += 1
                                rec.count("gpu.skipped_launches", 1)
                                break
                            batch_seed = int(rng.integers(0, 2**63 - 1))
                            batches.append(
                                (
                                    batch,
                                    make_wave_tasks(
                                        batch_seed,
                                        batch,
                                        zero_skip=zero_skip and iteration > 1,
                                        stale_width=params.threadblocks_per_sv,
                                        kernel=kernel,
                                    ),
                                )
                            )
                        per_batch = exec_backend.run_waves(
                            [tasks for _, tasks in batches], x, e, metrics=rec
                        )
                        for (batch, _), batch_stats in zip(batches, per_batch):
                            for stats in batch_stats:
                                selector.record_update(stats.sv_index, stats.total_abs_delta)
                                iter_updates += stats.updates
                            iter_svs += len(batch)
                            if rec.enabled:
                                rec.count("gpu.batches", 1)
                                rec.count("gpu.svs", len(batch))
                            trace.kernels.append(
                                KernelTrace(
                                    iteration=iteration,
                                    group=group_id,
                                    sv_stats=tuple(batch_stats),
                                )
                            )
                        continue
                    for start in range(0, len(group_svs), params.batch_size):
                        batch = group_svs[start : start + params.batch_size]
                        if start > 0 and len(batch) < params.threshold and iteration > 1:
                            # Under-filled *trailing* launch suppressed (§3.2) —
                            # the deferred SVs are picked up by a later
                            # selection.  The first launch of a group always
                            # runs (a group smaller than the threshold would
                            # otherwise starve forever), and iteration 1 is
                            # exempt so every SV is touched once.
                            trace.skipped_launches += 1
                            rec.count("gpu.skipped_launches", 1)
                            break
                        with rec.span("kernel_batch", group=group_id, svs=len(batch)):
                            if exec_backend is not None:
                                # The batch is a snapshot-isolated wave; one rng
                                # draw per batch keeps every backend's stream
                                # consumption identical.
                                batch_seed = int(rng.integers(0, 2**63 - 1))
                                tasks = make_wave_tasks(
                                    batch_seed,
                                    batch,
                                    zero_skip=zero_skip and iteration > 1,
                                    stale_width=params.threadblocks_per_sv,
                                    kernel=kernel,
                                )
                                batch_stats = exec_backend.run_wave(tasks, x, e, metrics=rec)
                                for stats in batch_stats:
                                    selector.record_update(stats.sv_index, stats.total_abs_delta)
                                    iter_updates += stats.updates
                                iter_svs += len(batch)
                            else:
                                # Kernel 1: create all SVBs of the batch from
                                # the current e.
                                svbs = []
                                originals = []
                                with rec.span("extract"):
                                    for sv_id in batch:
                                        svb = grid.svs[sv_id].extract(e)
                                        originals.append(svb.copy())
                                        svbs.append(svb)
                                # Kernel 2: the MBIR kernel — all SVs update
                                # concurrently, each with `threadblocks_per_sv`
                                # voxels in flight.
                                batch_stats = []
                                with rec.span("update"):
                                    for sv_id, svb in zip(batch, svbs):
                                        sv = grid.svs[sv_id]
                                        stats = process_supervoxel(
                                            sv,
                                            updater,
                                            x,
                                            svb,
                                            rng=rng,
                                            zero_skip=zero_skip and iteration > 1,  # bootstrap exemption
                                            stale_width=params.threadblocks_per_sv,
                                            kernel=kernel,
                                            metrics=rec,
                                        )
                                        selector.record_update(sv.index, stats.total_abs_delta)
                                        batch_stats.append(stats)
                                        iter_updates += stats.updates
                                iter_svs += len(batch)
                                # Kernel 3: atomic error-sinogram merge for the
                                # whole batch.
                                with rec.span("merge"):
                                    for sv_id, svb, orig in zip(batch, svbs, originals):
                                        grid.svs[sv_id].accumulate_delta(svb, orig, e)
                        if rec.enabled:
                            rec.count("gpu.batches", 1)
                            rec.count("gpu.svs", len(batch))
                        trace.kernels.append(
                            KernelTrace(
                                iteration=iteration, group=group_id, sv_stats=tuple(batch_stats)
                            )
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
                    svs_updated=iter_svs,
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
    return GPUICDResult(
        image=x.reshape(geometry.n_pixels, geometry.n_pixels),
        history=history,
        error_sinogram=e.reshape(geometry.sinogram_shape),
        metrics=metrics,
        trace=trace,
        grid=grid,
    )
