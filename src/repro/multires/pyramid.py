"""Coarse-to-fine (hierarchical) reconstruction on top of the ICD drivers.

:func:`multires_reconstruct` runs the pyramid: ICD at the coarsest level
from a cold start, then each finer level seeded with the bilinear
prolongation of the previous level's iterate.  The per-level work is done
by the *existing* drivers (``icd`` / ``psv_icd`` / ``gpu_icd``), so every
kernel flavor, checkpoint and sentinel works unchanged at every
level — this module only restricts the data down
(:mod:`repro.multires.resample`) and carries the iterate up.

Checkpoint layout: every level checkpoints into the one job checkpoint
directory through the caller's manager scoped to the level
(:meth:`~repro.resilience.CheckpointManager.scoped`), as
``ckpt-L<level>-<iteration>.ckpt``.  The prefix keeps each level to its
own files (listed, loaded and rotated apart, still matching the service's
``ckpt-*.ckpt`` glob), and ``meta["multires_level"]`` is stamped into
every snapshot beside the manager's own meta.  One manager writes every
level, so a service job's disk-fault degradation covers the pyramid.

Resume therefore lands in the correct pyramid stage with no other record:
each level resumes from its own latest checkpoint.  A finished level
stops before its first iteration, because the drivers ask the stop rule
about the restored history first, and hands its image up as an
uninterrupted run would; the interrupted level continues bit-identically;
levels not yet started are seeded exactly as in an uninterrupted run.

Equits accounting: a coarse sweep touches fewer voxels, so level equits
are also reported as *effective* fine-level equits scaled by
``(size/n)**2``.  The result's combined history re-bases the finest
level's records by the total effective coarse work — the honest x-axis for
"hierarchical reaches the RMSE target in fewer equits than cold start".
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import dataclass, field

import numpy as np

from repro.core.convergence import RMSE_CONVERGED_HU, RunHistory
from repro.core.gpu_icd import gpu_icd_reconstruct
from repro.core.icd import icd_reconstruct
from repro.core.psv_icd import psv_icd_reconstruct
from repro.ct.sinogram import ScanData
from repro.ct.system_matrix import SystemMatrix
from repro.multires.resample import coarse_system_for, prolong_image, restrict_scan
from repro.observability import MetricsRecorder, as_recorder
from repro.resilience import CheckpointManager

__all__ = [
    "BASE_DRIVERS",
    "LevelRun",
    "MultiresResult",
    "parse_levels",
    "multires_reconstruct",
]

BASE_DRIVERS = {
    "icd": icd_reconstruct,
    "psv_icd": psv_icd_reconstruct,
    "gpu_icd": gpu_icd_reconstruct,
}


def parse_levels(levels, geometry) -> tuple[int, ...]:
    """Resolve a pyramid spec to an ascending tuple of level sizes.

    Accepts ``None`` (automatic: factors 4/2/1 where they divide the
    geometry and the coarse side stays >= 16), an int level *count*
    (powers-of-two factors), a comma-separated string (``"64,128,256"``),
    or an iterable of sizes.  Every size must divide the finest raster,
    and its factor must also divide ``n_views`` and ``n_channels`` (the
    restriction operators are exact alignments, not resampling guesses).
    Raises ``ValueError`` for anything else — the CLI maps that to a usage
    error (exit code 2).
    """
    n = geometry.n_pixels

    def _factor_ok(f: int) -> bool:
        return (
            n % f == 0
            and geometry.n_views % f == 0
            and geometry.n_channels % f == 0
        )

    if levels is None:
        sizes = [n // f for f in (4, 2) if _factor_ok(f) and n // f >= 16]
        sizes.append(n)
        return tuple(sizes)
    if isinstance(levels, (int, np.integer)):
        count = int(levels)
        if count < 1:
            raise ValueError(f"pyramid level count must be >= 1, got {count}")
        sizes = [n // 2**k for k in reversed(range(count))]
    elif isinstance(levels, str):
        try:
            sizes = [int(tok) for tok in levels.replace(" ", "").split(",") if tok]
        except ValueError:
            raise ValueError(
                f"invalid pyramid spec {levels!r}: expected comma-separated sizes "
                f"like '64,128,256'"
            ) from None
        if not sizes:
            raise ValueError(f"invalid pyramid spec {levels!r}: no sizes given")
    else:
        try:
            sizes = [int(s) for s in levels]
        except (TypeError, ValueError):
            raise ValueError(
                f"invalid pyramid spec {levels!r}: expected sizes, a count, or a "
                f"'64,128,256' string"
            ) from None
        if not sizes:
            raise ValueError("pyramid spec must name at least one level")

    if sizes != sorted(set(sizes)):
        raise ValueError(f"pyramid levels must be strictly ascending, got {sizes}")
    if sizes[-1] != n:
        raise ValueError(
            f"finest pyramid level must equal the image side {n}, got {sizes[-1]}"
        )
    for size in sizes:
        if size < 4:
            raise ValueError(f"pyramid level {size} is too small (minimum side 4)")
        if n % size != 0:
            raise ValueError(
                f"pyramid level {size} does not divide the image side {n}"
            )
        f = n // size
        if not _factor_ok(f):
            raise ValueError(
                f"pyramid level {size} needs factor {f}, which does not divide "
                f"the geometry (n_views={geometry.n_views}, "
                f"n_channels={geometry.n_channels})"
            )
    return tuple(sizes)


def _level_scope(manager: CheckpointManager, level: int) -> CheckpointManager:
    """``manager`` scoped to one pyramid level of its directory.

    Files are named ``ckpt-L<level:02d>-<iteration:08d>.ckpt`` — they still
    match the service's ``ckpt-*.ckpt`` liveness globs (so first-life
    detection and dedup-vs-resume decisions keep working on multires
    jobs), but each level's view only lists, loads, and rotates its own
    level's files, and every snapshot records the level in
    ``meta["multires_level"]``.
    """
    return manager.scoped(f"L{level:02d}-", multires_level=level)


@dataclass(frozen=True)
class LevelRun:
    """What one pyramid level did."""

    level: int
    size: int
    factor: int
    equits: float  # equits *at this level's own resolution*
    effective_equits: float  # scaled to the finest raster: equits * (size/n)^2
    iterations: int
    seeded: bool  # init came from a coarser level's prolonged iterate


@dataclass
class MultiresResult:
    """Pyramid output; duck-types :class:`~repro.core.icd.ICDResult`."""

    image: np.ndarray
    history: RunHistory
    error_sinogram: np.ndarray
    metrics: MetricsRecorder | None = None
    levels: list[LevelRun] = field(default_factory=list)

    @property
    def total_effective_equits(self) -> float:
        """All pyramid work expressed in finest-raster equits."""
        return float(sum(run.effective_equits for run in self.levels))


def _coarse_equits_per_level(coarse_equits, n_levels: int) -> list[float]:
    if np.isscalar(coarse_equits):
        values = [float(coarse_equits)] * (n_levels - 1)
    else:
        values = [float(v) for v in coarse_equits]
        if len(values) != n_levels - 1:
            raise ValueError(
                f"coarse_equits lists one budget per coarse level "
                f"({n_levels - 1} here), got {len(values)}"
            )
    if any(v <= 0 for v in values):
        raise ValueError(f"coarse_equits must be > 0, got {values}")
    return values


def multires_reconstruct(
    scan: ScanData,
    system: SystemMatrix,
    *,
    levels=None,
    base_driver: str = "icd",
    coarse_equits=3.0,
    max_equits: float = 20.0,
    prior=None,
    golden: np.ndarray | None = None,
    stop_rmse: float | None = None,
    stop_delta_hu: float | None = None,
    init="fbp",
    seed: int | np.random.Generator | None = 0,
    track_cost: bool = True,
    metrics: MetricsRecorder | None = None,
    checkpoint=None,
    checkpoint_every: int = 1,
    resume_from=None,
    sentinel=None,
    **base_kwargs,
) -> MultiresResult:
    """Hierarchical (coarse-to-fine) reconstruction.

    Parameters mirror the base drivers where shared; the pyramid-specific
    ones:

    levels:
        Pyramid spec (see :func:`parse_levels`); ``None`` picks levels
        automatically from the geometry.
    base_driver:
        Which driver runs each level: ``"icd"`` (default), ``"psv_icd"``,
        or ``"gpu_icd"``.
    coarse_equits:
        Equit budget per *coarse* level (scalar, or one value per coarse
        level).  ``max_equits`` / ``golden`` / ``stop_rmse`` apply to the
        finest level only.
    stop_delta_hu:
        The base drivers' reference-free stop, forwarded to *every* level:
        a coarse level ends when it converges or spends its
        ``coarse_equits``, whichever comes first.  The result's
        ``history.stop_reason`` is the finest level's.
    init:
        Starting image for the *coarsest* level; finer levels are seeded
        by prolongation.
    checkpoint / resume_from:
        Same contract as the base drivers, with ``resume_from`` limited to
        ``None`` or ``"latest"``: on resume, every level resumes from its
        own latest checkpoint, so a completed level stops at once and the
        interrupted one continues bit-identically.  Coarse systems are
        built once per geometry through a process-wide cache.
    base_kwargs:
        Forwarded to the base driver (e.g. ``sv_side=``/``n_cores=`` for
        ``psv_icd``).  Unknown names raise ``TypeError`` up front rather
        than failing mid-pyramid.
    """
    try:
        driver_fn = BASE_DRIVERS[base_driver]
    except KeyError:
        raise ValueError(
            f"unknown base_driver {base_driver!r}; use one of {sorted(BASE_DRIVERS)}"
        ) from None
    geometry = scan.geometry
    if system.geometry.n_pixels != geometry.n_pixels:
        raise ValueError(
            f"system geometry ({system.geometry.n_pixels}px) does not match "
            f"scan geometry ({geometry.n_pixels}px)"
        )
    if resume_from is not None and resume_from != "latest":
        raise ValueError(
            f"multires_reconstruct supports resume_from=None or 'latest', "
            f"got {resume_from!r}"
        )
    accepted = set(inspect.signature(driver_fn).parameters)
    unknown = sorted(set(base_kwargs) - accepted)
    if unknown:
        raise TypeError(
            f"base driver {base_driver!r} does not accept {unknown}"
        )

    sizes = parse_levels(levels, geometry)
    n = geometry.n_pixels
    budgets = _coarse_equits_per_level(coarse_equits, len(sizes))
    rec = as_recorder(metrics)

    if checkpoint is None or isinstance(checkpoint, CheckpointManager):
        base = checkpoint
    else:
        base = CheckpointManager(checkpoint)

    level_runs: list[LevelRun] = []
    x_seed: np.ndarray | None = None
    final_result = None
    for k, size in enumerate(sizes):
        factor = n // size
        is_final = k == len(sizes) - 1
        scale = (size / n) ** 2

        scan_k = scan if factor == 1 else restrict_scan(scan, factor)
        system_k = system if factor == 1 else coarse_system_for(scan_k.geometry)
        seeded = x_seed is not None
        init_k = prolong_image(x_seed, size) if seeded else init
        manager = _level_scope(base, k) if base is not None else None
        with rec.span("multires_level", level=k, size=size):
            result = driver_fn(
                scan_k,
                system_k,
                prior=prior,
                max_equits=max_equits if is_final else budgets[k],
                golden=golden if is_final else None,
                stop_rmse=stop_rmse if is_final else None,
                stop_delta_hu=stop_delta_hu,
                init=init_k,
                seed=seed,
                track_cost=track_cost,
                metrics=metrics,
                checkpoint=manager,
                checkpoint_every=checkpoint_every,
                resume_from=resume_from if manager is not None else None,
                sentinel=sentinel,
                **base_kwargs,
            )
        records = result.history.records
        equits = float(records[-1].equits) if records else 0.0
        iterations = int(records[-1].iteration) if records else 0
        level_runs.append(
            LevelRun(
                level=k,
                size=size,
                factor=factor,
                equits=equits,
                effective_equits=equits * scale,
                iterations=iterations,
                seeded=seeded,
            )
        )
        rec.count("multires.levels_run")
        if is_final:
            final_result = result
        else:
            x_seed = np.asarray(result.image, dtype=np.float64)

    # Combined history: the finest level's records, re-based by the
    # effective cost of all coarse work so `history.equits` reads as total
    # finest-raster effort.
    offset = sum(run.effective_equits for run in level_runs[:-1])
    history = RunHistory()
    for record in final_result.history.records:
        history.append(dataclasses.replace(record, equits=record.equits + offset))
    history.stop_reason = final_result.history.stop_reason
    history.mark_converged_if_below(
        stop_rmse if stop_rmse is not None else RMSE_CONVERGED_HU
    )
    return MultiresResult(
        image=final_result.image,
        history=history,
        error_sinogram=final_result.error_sinogram,
        metrics=metrics,
        levels=level_runs,
    )
