"""Shared SuperVoxel processing engine for the PSV-ICD and GPU-ICD drivers.

Both drivers process a SuperVoxel the same way — update its member voxels
against a private SVB — and differ in *when* SVBs are snapshotted and merged
and in how many voxels within an SV update concurrently.  This module
provides the single engine both use, parameterised by ``stale_width``:

* ``stale_width = 1`` — strictly sequential voxel updates within the SV
  (PSV-ICD; Alg. 2 line 14's inner loop).
* ``stale_width = k > 1`` — voxels are processed in waves of ``k``: every
  voxel in a wave computes its update from the *same* SVB/image state, then
  all ``k`` deltas are applied.  This is a deterministic, bulk-synchronous
  emulation of GPU-ICD's intra-SV parallelism, where up to
  ``#threadblocks/SV`` voxel updates are in flight against one SVB at a
  time and only synchronise through atomic write-backs (Alg. 3 lines 4-13).
  The paper conjectures this staleness costs convergence ("We also suspect
  that the intra-SV parallelism slows the convergence", §5.4); the emulation
  makes that effect measurable.

:func:`process_supervoxel` updates one SV; its member loop is
:func:`repro.core.kernels.run_sv_visit`, which runs the updater's kernel.
:func:`run_sv_batch` runs one concurrent batch — a PSV-ICD wave or a
GPU-ICD kernel launch: extract every SVB from the same error sinogram,
update each SV, merge every delta back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.kernels import run_sv_visit
from repro.core.selection import SVSelector
from repro.core.supervoxel import SuperVoxel, SuperVoxelGrid
from repro.core.voxel_update import SliceUpdater
from repro.observability import NULL_RECORDER
from repro.utils import resolve_rng

__all__ = ["SVUpdateStats", "process_supervoxel"]


@dataclass(frozen=True)
class SVUpdateStats:
    """What happened while processing one SuperVoxel (feeds the perf model)."""

    sv_index: int
    updates: int  # voxel updates actually performed
    skipped: int  # voxels skipped by zero-skipping
    total_abs_delta: float  # sum |delta| — the SV "update amount" for selection


def process_supervoxel(
    sv: SuperVoxel,
    updater: SliceUpdater,
    x_flat: np.ndarray,
    svb: np.ndarray,
    *,
    rng: np.random.Generator | int | None = None,
    zero_skip: bool = True,
    stale_width: int = 1,
    metrics=NULL_RECORDER,
) -> SVUpdateStats:
    """Update all member voxels of ``sv`` against the flat SVB ``svb``.

    ``x_flat`` and ``svb`` are mutated in place; the caller owns snapshotting
    the SVB and merging the delta back into the global error sinogram.

    ``updater.kernel`` runs the visit.  The visit order is drawn from
    ``rng`` *before* dispatch, so every kernel consumes the same stream
    and — by the kernel layer's bit-exactness contract — produces the same
    iterates as the ``python`` path.  ``metrics`` (a
    :class:`~repro.observability.MetricsRecorder`) receives per-flavor
    ``kernel.<flavor>.{sv_visits,updates,skipped,waves}`` counters.
    """
    if stale_width < 1:
        raise ValueError(f"stale_width must be >= 1, got {stale_width}")
    rng = resolve_rng(rng)
    order = rng.permutation(sv.n_voxels)
    updates, skipped, total_abs_delta = run_sv_visit(
        updater,
        sv,
        order,
        x_flat,
        svb,
        zero_skip=zero_skip,
        stale_width=stale_width,
    )
    if metrics.enabled:
        kernel = updater.kernel
        metrics.count(f"kernel.{kernel}.sv_visits", 1)
        metrics.count(f"kernel.{kernel}.updates", updates)
        metrics.count(f"kernel.{kernel}.skipped", skipped)
        metrics.count(f"kernel.{kernel}.waves", -(-order.size // stale_width))
    return SVUpdateStats(
        sv_index=sv.index,
        updates=updates,
        skipped=skipped,
        total_abs_delta=total_abs_delta,
    )


def run_sv_batch(
    grid: SuperVoxelGrid,
    sv_ids,
    updater: SliceUpdater,
    selector: SVSelector,
    x_flat: np.ndarray,
    e_flat: np.ndarray,
    *,
    rng: np.random.Generator,
    zero_skip: bool,
    stale_width: int,
    metrics=NULL_RECORDER,
) -> tuple[SVUpdateStats, ...]:
    """Process the SVs ``sv_ids`` of ``grid`` as one concurrent batch.

    Every SVB is extracted from the same ``e_flat`` (SVs of a batch never
    see each other's updates), each SV is updated by
    :func:`process_supervoxel` in ``sv_ids`` order, drawing its visit
    order from ``rng``, its update amount goes to ``selector``, and then
    every SV's delta merges back into ``e_flat``.  The three phases are the
    ``extract`` / ``update`` / ``merge`` spans.  ``x_flat`` and ``e_flat``
    are mutated in place.
    """
    svs = [grid.svs[int(sv_id)] for sv_id in sv_ids]
    with metrics.span("extract"):
        svbs = [sv.extract(e_flat) for sv in svs]
        originals = [svb.copy() for svb in svbs]
    batch_stats = []
    with metrics.span("update"):
        for sv, svb in zip(svs, svbs):
            stats = process_supervoxel(
                sv,
                updater,
                x_flat,
                svb,
                rng=rng,
                zero_skip=zero_skip,
                stale_width=stale_width,
                metrics=metrics,
            )
            selector.record_update(sv.index, stats.total_abs_delta)
            batch_stats.append(stats)
    with metrics.span("merge"):
        for sv, svb, orig in zip(svs, svbs, originals):
            sv.accumulate_delta(svb, orig, e_flat)
    return tuple(batch_stats)
