"""Restriction/prolongation operators for the multi-resolution pyramid.

Hierarchical MBIR (Kumar & Donatelli's smart-initialization scheme) runs
ICD on a coarsened problem first and seeds the fine problem with the
upsampled iterate.  That needs two pairs of grid-transfer operators, both
bit-reproducible (pure float64 NumPy, no data-dependent branching):

* **Sinogram restriction** — the measured data is moved to the coarse
  problem by *view decimation* plus *channel binning*.  Both are exact
  geometric alignments, not approximations of convenience:

  - view angles are ``i * pi / n_views``; with ``n_views`` divisible by
    the factor ``f``, every coarse angle ``j * pi / (n_views/f)`` equals
    the fine angle at index ``j * f`` exactly, so the coarse problem keeps
    a subset of the *measured* angles;
  - a coarse channel of pitch ``f * s`` spans exactly ``f`` adjacent fine
    channels of pitch ``s`` (same detector origin convention), so the
    coarse measurement is the mean line integral over the rays the wider
    channel would have collected.

  Weights are combined by the same channel mean — an intensive average
  that preserves the unit-mean normalisation
  :func:`repro.ct.sinogram.simulate_scan` establishes, keeping the prior
  strength comparable across pyramid levels.

* **Image restriction / prolongation** — block mean down, bilinear up,
  both in mu (attenuation) units, which are intensive: a coarse pixel
  holds the average attenuation of the fine pixels it covers, so constant
  images map to the same constant in either direction and Hounsfield
  conversion commutes with both operators.

Coarse geometries shrink the raster but keep the field of view: the pixel
side grows by the factor, and the channel pitch likewise, so the coarse
image depicts the same physical slice at lower resolution.
"""

from __future__ import annotations

import numpy as np

from repro.ct.geometry import ParallelBeamGeometry
from repro.ct.sinogram import ScanData
from repro.ct.system_matrix import SystemMatrix, shared_system

__all__ = [
    "coarsen_geometry",
    "restrict_sinogram",
    "restrict_scan",
    "restrict_image",
    "restrict_image_adjoint",
    "prolong_image",
    "coarse_system_for",
]


def _check_factor(geometry: ParallelBeamGeometry, factor: int) -> None:
    if factor < 1:
        raise ValueError(f"coarsening factor must be >= 1, got {factor}")
    bad = [
        name
        for name, value in (
            ("n_pixels", geometry.n_pixels),
            ("n_views", geometry.n_views),
            ("n_channels", geometry.n_channels),
        )
        if value % factor != 0
    ]
    if bad:
        raise ValueError(
            f"coarsening factor {factor} does not divide geometry "
            f"{', '.join(f'{b}={getattr(geometry, b)}' for b in bad)}; "
            f"pick pyramid levels whose factors divide all three"
        )


def coarsen_geometry(geometry: ParallelBeamGeometry, factor: int) -> ParallelBeamGeometry:
    """The geometry of the same physical scan at ``1/factor`` resolution.

    Pixel side and channel pitch grow by ``factor`` so the field of view is
    unchanged; view angles become every ``factor``-th fine angle (exactly —
    see the module docstring).
    """
    _check_factor(geometry, factor)
    if factor == 1:
        return geometry
    return ParallelBeamGeometry(
        n_pixels=geometry.n_pixels // factor,
        n_views=geometry.n_views // factor,
        n_channels=geometry.n_channels // factor,
        pixel_size=geometry.pixel_size * factor,
        channel_spacing=geometry.channel_spacing * factor,
    )


def _bin_channels(sino: np.ndarray, factor: int) -> np.ndarray:
    """Mean over groups of ``factor`` adjacent channels (views untouched)."""
    n_views, n_channels = sino.shape
    grouped = np.asarray(sino, dtype=np.float64).reshape(
        n_views, n_channels // factor, factor
    )
    return grouped.mean(axis=2)


def restrict_sinogram(
    sinogram: np.ndarray, factor: int
) -> np.ndarray:
    """View-decimate and channel-bin a sinogram by ``factor``.

    ``sinogram`` is ``(n_views, n_channels)`` with both divisible by
    ``factor``; the result is ``(n_views/factor, n_channels/factor)``.
    """
    sino = np.asarray(sinogram, dtype=np.float64)
    if sino.ndim != 2:
        raise ValueError(f"sinogram must be 2-D, got shape {sino.shape}")
    if sino.shape[0] % factor or sino.shape[1] % factor:
        raise ValueError(
            f"restriction factor {factor} does not divide sinogram shape {sino.shape}"
        )
    return _bin_channels(sino[::factor], factor)


def restrict_scan(scan: ScanData, factor: int) -> ScanData:
    """The coarse-problem scan: decimated views, binned channels/weights.

    Deterministic given ``scan`` — every pyramid level restricts from the
    *finest* measured data, never from another restriction, so the coarse
    problems a resumed run rebuilds are bit-identical to the original's.
    """
    _check_factor(scan.geometry, factor)
    if factor == 1:
        return scan
    coarse_geom = coarsen_geometry(scan.geometry, factor)
    ground_truth = scan.ground_truth
    if ground_truth is not None:
        n = scan.geometry.n_pixels
        if ground_truth.shape == (n, n):
            ground_truth = restrict_image(ground_truth, factor)
        else:  # non-raster truth (e.g. volume slice stacks): drop, don't guess
            ground_truth = None
    return ScanData(
        geometry=coarse_geom,
        sinogram=restrict_sinogram(scan.sinogram, factor),
        weights=restrict_sinogram(scan.weights, factor),
        ground_truth=ground_truth,
    )


def restrict_image(image: np.ndarray, factor: int) -> np.ndarray:
    """Block-mean an ``(n, n)`` image down by ``factor`` (mu units)."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2 or img.shape[0] != img.shape[1]:
        raise ValueError(f"image must be square 2-D, got shape {img.shape}")
    n = img.shape[0]
    if n % factor:
        raise ValueError(f"restriction factor {factor} does not divide image side {n}")
    if factor == 1:
        return img.copy()
    m = n // factor
    return img.reshape(m, factor, m, factor).mean(axis=(1, 3))


def restrict_image_adjoint(coarse: np.ndarray, factor: int) -> np.ndarray:
    """The exact adjoint of :func:`restrict_image` up to the ``factor**2`` scale.

    Block-mean restriction ``R`` satisfies
    ``<R x, y> * factor**2 == <x, R^T y>`` with ``R^T y`` the replication
    of each coarse pixel over its fine block divided by ``factor**2``;
    this returns the replication (so the identity reads
    ``<R x, y> == <x, adjoint(y)> / factor**2 * factor**2`` — tests pin
    the exact scaling).
    """
    arr = np.asarray(coarse, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"coarse image must be square 2-D, got shape {arr.shape}")
    return np.repeat(np.repeat(arr, factor, axis=0), factor, axis=1) / float(factor**2)


def _prolong_matrix(n_fine: int, n_coarse: int) -> np.ndarray:
    """1-D bilinear interpolation matrix mapping ``n_coarse`` -> ``n_fine``.

    Pixel centres of both rasters cover the same physical extent: fine
    centre ``i`` sits at coarse index ``(i + 0.5) * n_coarse/n_fine - 0.5``
    (edge-clamped).  Rows sum to 1, so constants — and affine unit maps
    like Hounsfield conversion — are preserved exactly.
    """
    if n_fine < 1 or n_coarse < 1:
        raise ValueError(f"sizes must be >= 1, got n_fine={n_fine} n_coarse={n_coarse}")
    u = (np.arange(n_fine, dtype=np.float64) + 0.5) * (n_coarse / n_fine) - 0.5
    u = np.clip(u, 0.0, float(n_coarse - 1))
    if n_coarse == 1:
        return np.ones((n_fine, 1), dtype=np.float64)
    i0 = np.minimum(u.astype(np.int64), n_coarse - 2)
    t = u - i0
    weights = np.zeros((n_fine, n_coarse), dtype=np.float64)
    rows = np.arange(n_fine)
    weights[rows, i0] = 1.0 - t
    weights[rows, i0 + 1] += t
    return weights


def prolong_image(coarse: np.ndarray, n_fine: int) -> np.ndarray:
    """Bilinearly upsample a square image to ``(n_fine, n_fine)`` (mu units).

    Works for any ``n_fine >= n_coarse`` (odd sizes and non-integer ratios
    included); deterministic float64 throughout.
    """
    img = np.asarray(coarse, dtype=np.float64)
    if img.ndim != 2 or img.shape[0] != img.shape[1]:
        raise ValueError(f"coarse image must be square 2-D, got shape {img.shape}")
    n_coarse = img.shape[0]
    if n_fine < n_coarse:
        raise ValueError(
            f"prolongation target {n_fine} is smaller than the source {n_coarse}; "
            f"use restrict_image to go down"
        )
    weights = _prolong_matrix(n_fine, n_coarse)
    return weights @ img @ weights.T


def coarse_system_for(geometry: ParallelBeamGeometry) -> SystemMatrix:
    """The shared system matrix for a coarse-level geometry."""
    return shared_system(geometry)
