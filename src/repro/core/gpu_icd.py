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
state.  Both staleness effects are reproduced numerically here: each
batch is one :func:`repro.core.sv_engine.run_sv_batch` call, and this
module supplies only the step that forms an iteration's checkerboard
batches, while the outer loop is :func:`repro.core.icd.run_iterations`,
which all three drivers share.  The hardware-side consequences
(occupancy, coalescing, atomics) are evaluated by :mod:`repro.gpusim` from
the execution trace this driver records.

Load-balance guards from §3.2: the selection fraction is raised to 25 %, and
a kernel is only launched if at least ``batch_size / 4`` SVs remain in the
group (``threshold``), avoiding under-filled launches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.icd import ICDResult, default_prior, run_iterations
from repro.core.prior import Neighborhood, Prior, shared_neighborhood
from repro.core.selection import SVSelector
from repro.core.supervoxel import SuperVoxelGrid, shared_grid
from repro.core.sv_engine import SVUpdateStats, run_sv_batch
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
    stop_delta_hu: float | None = None,
    init: str | np.ndarray = "fbp",
    zero_skip: bool = True,
    positivity: bool = True,
    seed: int | np.random.Generator | None = 0,
    track_cost: bool = True,
    grid: SuperVoxelGrid | None = None,
    neighborhood: Neighborhood | None = None,
    metrics: MetricsRecorder | None = None,
    checkpoint=None,
    checkpoint_every: int = 1,
    resume_from=None,
    sentinel=None,
) -> GPUICDResult:
    """Reconstruct with the GPU-ICD algorithm (Alg. 3).

    The intra-SV concurrency width equals ``params.threadblocks_per_sv``
    (each threadblock has one voxel in flight at a time); inter-SV
    concurrency equals the batch, whose SVBs all snapshot the error sinogram
    at batch start.  ``neighborhood`` optionally passes a prebuilt table
    (defaults to the process-wide shared instance), and ``grid`` a prebuilt
    :class:`SuperVoxelGrid` over ``system``'s matrix (defaults to
    ``system``'s own grid for ``(params.sv_side, params.overlap)``, built
    once per matrix by :func:`~repro.core.supervoxel.shared_grid`).

    ``metrics`` optionally passes a
    :class:`~repro.observability.MetricsRecorder`: each outer iteration
    records a span whose children are per-batch ``kernel_batch`` spans with
    the three Alg. 3 kernel phases — ``extract`` (SVB creation), ``update``
    (the MBIR kernel), ``merge`` (the atomic write-back) — plus
    per-kernel-flavor counters; the recorder is attached to the result and
    can be joined against the timing model via
    :meth:`repro.gpusim.timing.GPUTimingModel.measured_vs_modeled`.
    Instrumentation never changes iterates.

    ``stop_delta_hu`` (off by default) stops the run once the mean
    ``|dx|`` per voxel update over the trailing equit falls below it, as
    in :func:`repro.core.icd.icd_reconstruct`.

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
    updater = SliceUpdater(system, scan, prior, neighborhood, positivity=positivity)
    rng = resolve_rng(seed)

    if grid is None:
        # A miss builds through this module's name, where a tracer wraps it.
        grid = shared_grid(system, params.sv_side, params.overlap, build=SuperVoxelGrid)
    elif grid.geometry != geometry:
        raise ValueError(
            f"grid was built for {grid.geometry}, but the system matrix is for {geometry}"
        )
    selector = SVSelector(grid.n_svs, params.fraction)
    checkerboard = grid.checkerboard_groups()

    trace = GPUExecutionTrace(params=params)

    def step(iteration, x, e, rng):
        selected = set(int(s) for s in selector.select(iteration, rng))
        updates = 0
        svs_updated = 0
        for group_id in range(4):
            group_svs = [sv for sv in checkerboard[group_id] if sv in selected]
            rng.shuffle(group_svs)
            for start in range(0, len(group_svs), params.batch_size):
                batch = group_svs[start : start + params.batch_size]
                if start > 0 and len(batch) < params.threshold and iteration > 1:
                    # Under-filled *trailing* launch suppressed (§3.2) — the
                    # deferred SVs are picked up by a later selection.  The
                    # first launch of a group always runs (a group smaller
                    # than the threshold would otherwise starve forever),
                    # and iteration 1 is exempt so every SV is touched once.
                    trace.skipped_launches += 1
                    rec.count("gpu.skipped_launches", 1)
                    break
                # The three Alg. 3 kernels: create every SVB of the batch
                # from the current e, run the MBIR kernel (all SVs update
                # concurrently, each with `threadblocks_per_sv` voxels in
                # flight), then merge the whole batch atomically.
                with rec.span("kernel_batch", group=group_id, svs=len(batch)):
                    batch_stats = run_sv_batch(
                        grid, batch, updater, selector, x, e, rng=rng,
                        zero_skip=zero_skip and iteration > 1,  # bootstrap exemption
                        stale_width=params.threadblocks_per_sv, metrics=rec,
                    )
                if rec.enabled:
                    rec.count("gpu.batches", 1)
                    rec.count("gpu.svs", len(batch))
                trace.kernels.append(
                    KernelTrace(iteration=iteration, group=group_id, sv_stats=batch_stats)
                )
                updates += sum(stats.updates for stats in batch_stats)
                svs_updated += len(batch)
        return updates, svs_updated

    image, history, error = run_iterations(
        "gpu_icd", updater, step, init=init, rng=rng, max_equits=max_equits,
        golden=golden, stop_rmse=stop_rmse, stop_delta_hu=stop_delta_hu,
        track_cost=track_cost, metrics=metrics, checkpoint=checkpoint,
        checkpoint_every=checkpoint_every, resume_from=resume_from,
        sentinel=sentinel, selector=selector,
    )
    return GPUICDResult(
        image=image,
        history=history,
        error_sinogram=error,
        metrics=metrics,
        trace=trace,
        grid=grid,
    )
