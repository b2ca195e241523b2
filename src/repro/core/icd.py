"""Sequential ICD — the "traditional" single-core MBIR reference.

This is the publicly-released-MBIR-equivalent baseline the paper's Table 1
speedups are measured against (611.79x for GPU-ICD).  One outer iteration
visits every voxel once in a randomized order (§2.1: "Faster convergence is
achieved by updating voxels in a randomized order and by zero-skipping"),
updating each against the *global* error sinogram — no SuperVoxels, no
buffers, no deferred write-back.

It also produces the "golden" images used for RMSE-based convergence
measurement: the paper runs traditional ICD for 40 equits, "by when it is
known to converge".

:func:`run_iterations` is the outer-iteration loop all three drivers
share; a driver differs only in the step that schedules one iteration's
updates (here: one randomized sweep).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.convergence import (
    RMSE_CONVERGED_HU,
    IterationRecord,
    RunHistory,
    StopRule,
    abs_change_hu,
    rmse_hu,
)
from repro.core.cost import map_cost
from repro.core.kernels import run_sweep
from repro.core.prior import Neighborhood, Prior, QGGMRFPrior, shared_neighborhood
from repro.core.voxel_update import SliceUpdater
from repro.ct.fbp import fbp_reconstruct
from repro.ct.phantoms import MU_WATER
from repro.ct.sinogram import ScanData
from repro.ct.system_matrix import SystemMatrix
from repro.observability import MetricsRecorder, as_recorder
from repro.utils import check_finite, resolve_rng

__all__ = [
    "ICDResult",
    "icd_reconstruct",
    "golden_reconstruction",
    "default_prior",
    "initial_image",
    "init_label",
]


def resilience_hooks(
    driver: str, checkpoint, checkpoint_every, resume_from, sentinel, metrics
):
    """Build the shared checkpoint/sentinel glue, or None when all-disabled.

    Lazily imports :mod:`repro.resilience` so the default (disabled) driver
    path pays nothing and the core package carries no import cycle.
    """
    if checkpoint is None and resume_from is None and sentinel is None:
        return None
    from repro.resilience import ResilienceHooks

    return ResilienceHooks(
        driver=driver,
        checkpoint=checkpoint,
        checkpoint_every=checkpoint_every,
        resume_from=resume_from,
        sentinel=sentinel,
        metrics=metrics,
    )


def default_prior(scale: float = MU_WATER) -> QGGMRFPrior:
    """The library-wide default prior: q-GGMRF with CT-scale parameters.

    ``sigma`` is set relative to water attenuation.  The value (2x water)
    is tuned on the scaled benchmark suite so that (a) the MAP estimate is
    not visibly over-regularised and (b) the three drivers converge to the
    10 HU golden threshold in a few equits, matching the regime of the
    paper's Table 1 (4.8 equits PSV-ICD / 5.9 GPU-ICD).  Note the weights
    in this library are normalised to unit mean (see
    :func:`repro.ct.sinogram.simulate_scan`), which rescales the natural
    sigma relative to formulations with raw photon-count weights.
    """
    return QGGMRFPrior(sigma=2.0 * scale, q=1.2, T=1.0)


def initial_image(scan: ScanData, *, init: "str | np.ndarray" = "fbp") -> np.ndarray:
    """Starting image for iterative reconstruction.

    ``"fbp"`` (default) follows standard MBIR practice — a filtered
    backprojection warm start converges in far fewer equits; ``"zero"``
    starts from an empty image (useful for zero-skipping stress tests).
    An ndarray (``(n, n)`` or flat ``n*n``, mu units) is used directly —
    this is how the multires pyramid seeds a level with the upsampled
    coarse iterate and a rows-mode shard group re-seeds each stripe round.
    """
    if isinstance(init, str):
        if init == "fbp":
            return fbp_reconstruct(scan.sinogram, scan.geometry)
        if init == "zero":
            n = scan.geometry.n_pixels
            return np.zeros((n, n), dtype=np.float64)
        raise ValueError(f"unknown init {init!r}; use 'fbp', 'zero', or an image array")
    n = scan.geometry.n_pixels
    arr = np.asarray(init, dtype=np.float64)
    if arr.shape not in ((n, n), (n * n,)):
        raise ValueError(
            f"init image shape {arr.shape} does not match geometry "
            f"({n}, {n}) or flat ({n * n},)"
        )
    return arr.reshape(n, n).copy()


def init_label(init) -> str:
    """A short description of an ``init`` argument for error messages."""
    return repr(init) if isinstance(init, str) else f"<array {getattr(init, 'shape', '?')}>"


def run_iterations(
    driver: str,
    updater: SliceUpdater,
    step,
    *,
    init,
    rng: np.random.Generator,
    max_equits: float,
    max_iterations: int | None = None,
    golden: np.ndarray | None,
    stop_rmse: float | None,
    stop_delta_hu: float | None,
    track_cost: bool,
    metrics: MetricsRecorder | None,
    checkpoint,
    checkpoint_every: int,
    resume_from,
    sentinel,
    selector=None,
) -> tuple[np.ndarray, RunHistory, np.ndarray]:
    """The outer-iteration loop every driver shares.

    Starts from ``init`` (or resumes through the resilience hooks), then
    runs ``step(iteration, x, e, rng) -> (updates, svs_updated)`` until
    :class:`~repro.core.convergence.StopRule` names a reason.  The step
    mutates the flat image ``x`` and error sinogram ``e`` in place; it is
    handed the loop's generator on every call, because a resume may
    replace it.  Each iteration is one ``iteration`` span whose last child
    is ``bookkeeping`` (cost, RMSE, ``delta_hu``), then one
    :class:`~repro.core.convergence.IterationRecord` and the hooks'
    checkpoint/sentinel call, which may roll the loop back.  ``selector``
    is the SV drivers' :class:`~repro.core.selection.SVSelector`, whose
    state checkpoints carry.  Returns ``(image, history, error_sinogram)``
    in their 2-D shapes.
    """
    rec = as_recorder(metrics)
    scan, system = updater.scan, updater.system
    geometry = system.geometry
    n_voxels = geometry.n_voxels
    hooks = resilience_hooks(driver, checkpoint, checkpoint_every, resume_from, sentinel, metrics)
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
    stop = StopRule(
        n_voxels=n_voxels,
        max_updates=max_equits * n_voxels,
        max_iterations=max_iterations,
        stop_rmse=stop_rmse,
        stop_delta_hu=stop_delta_hu,
    )
    while (reason := stop.reason(history, total_updates)) is None:
        iteration += 1
        x_before = x.copy() if stop_delta_hu is not None else None
        with rec.span("iteration", index=iteration):
            updates, svs_updated = step(iteration, x, e, rng)
            total_updates += updates
            img = x.reshape(geometry.n_pixels, geometry.n_pixels)
            with rec.span("bookkeeping"):
                cost = (
                    map_cost(img, scan, system, updater.prior, updater.neighborhood)
                    if track_cost
                    else float("nan")
                )
                rmse = rmse_hu(img, golden) if golden is not None else None
                delta_hu = None if x_before is None else abs_change_hu(x, x_before)
        history.append(
            IterationRecord(
                iteration=iteration,
                equits=total_updates / n_voxels,
                cost=cost,
                rmse=rmse,
                updates=updates,
                svs_updated=svs_updated,
                delta_hu=delta_hu,
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

    history.stop_reason = reason
    history.mark_converged_if_below(stop_rmse if stop_rmse is not None else RMSE_CONVERGED_HU)
    return (
        x.reshape(geometry.n_pixels, geometry.n_pixels),
        history,
        e.reshape(geometry.sinogram_shape),
    )


@dataclass
class ICDResult:
    """Output of a reconstruction driver."""

    image: np.ndarray
    history: RunHistory
    error_sinogram: np.ndarray  # final e = y - Ax, shape (n_views, n_channels)
    #: The recorder passed as ``metrics=`` (None when uninstrumented).
    metrics: MetricsRecorder | None = None


def icd_reconstruct(
    scan: ScanData,
    system: SystemMatrix,
    *,
    prior: Prior | None = None,
    max_equits: float = 20.0,
    max_iterations: int | None = None,
    golden: np.ndarray | None = None,
    stop_rmse: float | None = None,
    stop_delta_hu: float | None = None,
    init: str | np.ndarray = "fbp",
    zero_skip: bool = True,
    voxel_subset: np.ndarray | None = None,
    positivity: bool = True,
    seed: int | np.random.Generator | None = 0,
    track_cost: bool = True,
    neighborhood: Neighborhood | None = None,
    metrics: MetricsRecorder | None = None,
    checkpoint=None,
    checkpoint_every: int = 1,
    resume_from=None,
    sentinel=None,
) -> ICDResult:
    """Reconstruct by sequential ICD.

    Parameters
    ----------
    scan, system:
        Measurements and geometry model.
    prior:
        MRF prior; defaults to :func:`default_prior`.
    max_equits:
        Stop after this many equivalent iterations.
    max_iterations:
        If set, also stop after this many outer sweeps — the exact-count
        stop a rows-mode shard group's children need (``max_equits``
        counts *actual* updates, which zero-skipping makes data-dependent).
    golden:
        Converged reference image; enables RMSE tracking.
    stop_rmse:
        If set (HU), stop as soon as RMSE vs ``golden`` drops below it.
    stop_delta_hu:
        If set (HU), stop once the mean ``|dx|`` per voxel update over the
        trailing equit of iterations drops below it — a stop that needs no
        golden image (:class:`~repro.core.convergence.StopRule`).  Each
        record's ``delta_hu`` is computed only when this is set.
        ``history.stop_reason`` says which stop ended the run.
    init:
        Starting image ("fbp", "zero", or an ``(n, n)`` mu-units array —
        see :func:`initial_image`).
    zero_skip:
        Skip voxels whose value and neighborhood are all zero.
    voxel_subset:
        If set, only these flat voxel indices are visited (in randomized
        order) each sweep; all other voxels stay frozen.  The error
        sinogram still tracks the full image, so the data term is exact —
        this is the building block for halo-exchanged row-stripe shards.
        Equits still count updates against the full raster, so one subset
        sweep advances ``equits`` by roughly ``subset.size / n_voxels``.
    positivity:
        Clip voxel values at zero.
    seed:
        RNG for the randomized visit order.
    track_cost:
        Evaluate the MAP cost each outer iteration (costs one forward
        projection; disable in benchmarks).
    neighborhood:
        Optionally a prebuilt :class:`Neighborhood`; defaults to the
        process-wide shared instance for this image size.
    metrics:
        Optionally a :class:`~repro.observability.MetricsRecorder`; when
        given it records one span per outer iteration (with ``sweep`` and
        ``bookkeeping`` children) plus per-kernel-flavor counters, and is
        attached to the result.  Instrumentation never changes iterates.
    checkpoint, checkpoint_every, resume_from, sentinel:
        Resilience layer (all disabled by default; see
        :mod:`repro.resilience` and DESIGN.md §11).  ``checkpoint`` is a
        :class:`~repro.resilience.CheckpointManager` or a directory path;
        full resumable state is persisted atomically every
        ``checkpoint_every`` iterations.  ``resume_from`` (a checkpoint
        file/dir, a :class:`~repro.resilience.Checkpoint`, or ``"latest"``)
        restores that state exactly — a resumed run is bit-identical to an
        uninterrupted one.  ``sentinel`` (an
        :class:`~repro.resilience.IntegritySentinel`) guards ``x``/``e``
        against NaN/Inf each iteration and can periodically recompute
        ``y - Ax`` to bound error-sinogram drift; on detected corruption
        the run rolls back to the last valid checkpoint (or raises
        :class:`~repro.resilience.StateCorruptionError` when none exists).
    """
    prior = prior if prior is not None else default_prior()
    rec = as_recorder(metrics)
    check_finite("scan.sinogram", scan.sinogram)
    check_finite("scan.weights", scan.weights)
    geometry = system.geometry
    if neighborhood is None:
        neighborhood = shared_neighborhood(geometry.n_pixels)
    updater = SliceUpdater(system, scan, prior, neighborhood, positivity=positivity)
    rng = resolve_rng(seed)
    n_voxels = geometry.n_voxels
    if max_iterations is not None and max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    subset = None
    if voxel_subset is not None:
        subset = np.asarray(voxel_subset, dtype=np.int64).ravel()
        if subset.size == 0:
            raise ValueError("voxel_subset must not be empty")
        if subset.min() < 0 or subset.max() >= n_voxels:
            raise ValueError(
                f"voxel_subset indices must be in [0, {n_voxels}), got range "
                f"[{subset.min()}, {subset.max()}]"
            )

    def step(iteration, x, e, rng):
        order = (
            rng.permutation(n_voxels)
            if subset is None
            else subset[rng.permutation(subset.size)]
        )
        # Zero-skipping is suspended on the first iteration so a zero
        # (air) initialisation can bootstrap; afterwards a voxel whose
        # whole neighborhood is zero can never change and is skipped.
        with rec.span("sweep"):
            updates = run_sweep(
                updater, order, x, e, zero_skip=zero_skip and iteration > 1, metrics=rec
            )
        return updates, 0

    image, history, error = run_iterations(
        "icd", updater, step, init=init, rng=rng, max_equits=max_equits,
        max_iterations=max_iterations, golden=golden, stop_rmse=stop_rmse,
        stop_delta_hu=stop_delta_hu, track_cost=track_cost, metrics=metrics,
        checkpoint=checkpoint, checkpoint_every=checkpoint_every,
        resume_from=resume_from, sentinel=sentinel,
    )
    return ICDResult(image=image, history=history, error_sinogram=error, metrics=metrics)


def golden_reconstruction(
    scan: ScanData,
    system: SystemMatrix,
    *,
    prior: Prior | None = None,
    equits: float = 40.0,
    seed: int = 0,
) -> np.ndarray:
    """The paper's golden image: traditional ICD run to ``equits`` (§5.2)."""
    result = icd_reconstruct(
        scan,
        system,
        prior=prior,
        max_equits=equits,
        seed=seed,
        track_cost=False,
    )
    return result.image
