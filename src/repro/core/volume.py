"""Multi-slice volume reconstruction.

The paper's dataset is 3200 *slices* reconstructed independently (the
Imatron C-300 acquires slice by slice; the 3-D helical case is explicitly
other work, §7).  This module handles the volume layer: stacks of slices
sharing one system matrix, reconstructed by any of the three drivers, with
aggregated convergence statistics and modeled batch times — i.e. what a
deployment would wrap around the per-slice core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.gpu_icd import GPUICDParams, gpu_icd_reconstruct
from repro.core.icd import ICDResult, icd_reconstruct
from repro.core.psv_icd import psv_icd_reconstruct
from repro.ct.sinogram import ScanData, simulate_scan
from repro.ct.system_matrix import SystemMatrix
from repro.utils import check_positive, resolve_rng

__all__ = ["VolumeResult", "reconstruct_volume", "simulate_volume_scan", "ellipsoid_volume"]


@dataclass
class VolumeResult:
    """A reconstructed stack of slices."""

    volume: np.ndarray  # (n_slices, n, n)
    slice_results: list[ICDResult] = field(repr=False, default_factory=list)

    @property
    def n_slices(self) -> int:
        """Number of slices in the stack."""
        return self.volume.shape[0]

    @property
    def total_equits(self) -> float:
        """Sum of per-slice equits (proportional to total work)."""
        return float(sum(r.history.equits for r in self.slice_results))

    @property
    def mean_equits(self) -> float:
        """Average equits per slice."""
        return self.total_equits / max(self.n_slices, 1)


def ellipsoid_volume(
    n_slices: int,
    n_pixels: int,
    *,
    value: float = 0.02,
    seed: int | np.random.Generator | None = 0,
) -> np.ndarray:
    """A simple 3-D test object: an ellipsoid with slice-varying inserts.

    Each slice is the ellipsoid's circular cross-section at that height,
    with a small bright insert whose position drifts across slices — enough
    structure that per-slice convergence genuinely varies.
    """
    check_positive("n_slices", n_slices)
    check_positive("n_pixels", n_pixels)
    rng = resolve_rng(seed)
    vol = np.zeros((n_slices, n_pixels, n_pixels))
    half = (n_pixels - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(n_pixels) - half, np.arange(n_pixels) - half,
                         indexing="ij")
    for k in range(n_slices):
        z = (k - (n_slices - 1) / 2.0) / max(n_slices / 2.0, 1.0)
        radius = 0.8 * half * np.sqrt(max(1.0 - z * z, 0.0))
        if radius <= 0:
            continue
        body = (xx**2 + yy**2) <= radius**2
        vol[k][body] = value
        # Drifting insert.
        cx = 0.4 * radius * np.cos(2 * np.pi * k / max(n_slices, 1))
        cy = 0.4 * radius * np.sin(2 * np.pi * k / max(n_slices, 1))
        insert = ((xx - cx) ** 2 + (yy - cy) ** 2) <= (0.15 * half) ** 2
        vol[k][insert & body] = 2.5 * value + 0.1 * value * float(rng.standard_normal())
    return vol


def simulate_volume_scan(
    volume: np.ndarray,
    system: SystemMatrix,
    *,
    dose: float = 1e5,
    seed: int | np.random.Generator | None = 0,
) -> list[ScanData]:
    """Acquire every slice of ``volume`` (independent noise per slice)."""
    rng = resolve_rng(seed)
    scans = []
    for k in range(volume.shape[0]):
        scans.append(simulate_scan(volume[k], system, dose=dose, seed=rng))
    return scans


def reconstruct_volume(
    scans: list[ScanData],
    system: SystemMatrix,
    *,
    method: str = "gpu",
    params: GPUICDParams | None = None,
    sv_side: int | None = None,
    progress: Callable[[int, ICDResult], None] | None = None,
    **kwargs,
) -> VolumeResult:
    """Reconstruct a stack of slices with one driver.

    Every slice shares one geometry, so the SV drivers build each
    SuperVoxel grid once, on the first slice, and share it through the
    system matrix (:func:`~repro.core.supervoxel.shared_grid`).

    Parameters
    ----------
    method:
        ``"gpu"`` (GPU-ICD), ``"psv"`` (PSV-ICD) or ``"seq"``.
    params / sv_side:
        Driver tuning (GPU params or the PSV SV side).
    progress:
        Optional callback invoked after each slice.
    kwargs:
        Forwarded to the slice driver (max_equits, seed, ...).
    """
    if not scans:
        raise ValueError("scans must be non-empty")
    n = system.geometry.n_pixels
    results: list[ICDResult] = []
    if method == "gpu":
        params = params if params is not None else GPUICDParams(
            sv_side=max(4, n // 8), threadblocks_per_sv=4, batch_size=8
        )
    elif method == "psv":
        sv_side = sv_side if sv_side is not None else max(3, n // 10)
    elif method != "seq":
        raise ValueError(f"unknown method {method!r}; use 'gpu', 'psv' or 'seq'")

    for k, scan in enumerate(scans):
        if method == "gpu":
            res: ICDResult = gpu_icd_reconstruct(scan, system, params=params, **kwargs)
        elif method == "psv":
            res = psv_icd_reconstruct(scan, system, sv_side=sv_side, **kwargs)
        else:
            res = icd_reconstruct(scan, system, **kwargs)
        results.append(res)
        if progress is not None:
            progress(k, res)

    volume = np.stack([r.image for r in results])
    return VolumeResult(volume=volume, slice_results=results)
