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
makes runs reproducible, which a true racy execution is not.  A wave is
one :func:`repro.core.sv_engine.run_sv_batch` call, and this module
supplies only the step that forms an iteration's waves: the outer loop
(start or resume, stop rule, records, checkpoints) is
:func:`repro.core.icd.run_iterations`, which all three drivers share.
:class:`repro.gpusim.cpu_model.CPUTimingModel` turns the recorded wave
trace into 16-core wall-clock estimates.  Real parallelism in this repo
runs whole jobs: process workers and shard groups (:mod:`repro.service`).
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
        Optionally a prebuilt :class:`SuperVoxelGrid`.  By default the
        driver takes ``system``'s own grid for ``(sv_side, overlap)``
        (:func:`~repro.core.supervoxel.shared_grid`), built on the first call
        and shared by every later one.  A grid passed here must be built
        over ``system``'s matrix; its ``sv_side`` and ``overlap`` take the
        place of the arguments, also in the trace.
    neighborhood:
        Optionally a prebuilt :class:`Neighborhood`; defaults to the
        process-wide shared instance for this image size.
    metrics:
        Optionally a :class:`~repro.observability.MetricsRecorder`: records
        one span per outer iteration with per-wave ``extract`` / ``update``
        / ``merge`` phase children plus per-kernel-flavor counters, and is
        attached to the result.  Instrumentation never changes iterates.
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
    updater = SliceUpdater(system, scan, prior, neighborhood, positivity=positivity)
    rng = resolve_rng(seed)

    if grid is None:
        # A miss builds through this module's name, where a tracer wraps it.
        grid = shared_grid(system, sv_side, overlap, build=SuperVoxelGrid)
    elif grid.geometry != geometry:
        raise ValueError(
            f"grid was built for {grid.geometry}, but the system matrix is for {geometry}"
        )
    selector = SVSelector(grid.n_svs, fraction)

    trace = PSVExecutionTrace(n_cores=n_cores, sv_side=grid.sv_side)

    def step(iteration, x, e, rng):
        selected = selector.select(iteration, rng)
        updates = 0
        for wave_start in range(0, selected.size, n_cores):
            wave_svs = selected[wave_start : wave_start + n_cores]
            # Each concurrent core snapshots the error sinogram as of the
            # start of the wave; the locked merges (Alg. 2 lines 16-19)
            # land at its end.
            with rec.span("wave", svs=len(wave_svs)):
                wave_stats = run_sv_batch(
                    grid, wave_svs, updater, selector, x, e, rng=rng,
                    zero_skip=zero_skip and iteration > 1,  # bootstrap exemption
                    stale_width=1, metrics=rec,
                )
            trace.waves.append(PSVWaveTrace(iteration=iteration, sv_stats=wave_stats))
            updates += sum(stats.updates for stats in wave_stats)
        return updates, int(selected.size)

    image, history, error = run_iterations(
        "psv_icd", updater, step, init=init, rng=rng, max_equits=max_equits,
        golden=golden, stop_rmse=stop_rmse, stop_delta_hu=stop_delta_hu,
        track_cost=track_cost, metrics=metrics, checkpoint=checkpoint,
        checkpoint_every=checkpoint_every, resume_from=resume_from,
        sentinel=sentinel, selector=selector,
    )
    return PSVICDResult(
        image=image,
        history=history,
        error_sinogram=error,
        metrics=metrics,
        trace=trace,
        grid=grid,
    )
