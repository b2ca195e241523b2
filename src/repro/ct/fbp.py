"""Filtered backprojection (FBP) — the direct-method baseline.

The paper's introduction contrasts MBIR against "the alternative class of
direct methods, which are commonly referred to as filtered back projection".
This module provides that baseline: ramp filtering of each view in the
frequency domain followed by pixel-driven backprojection with linear
interpolation.  It is used by the examples (to show the image-quality gap at
low dose / sparse views that motivates MBIR) and by the harness to quantify
the paper's "up to two orders of magnitude more compute operations" claim.
It is also every driver's default initial image, so it runs once per
driver call.

The backprojection of every view runs in one call of the ``c`` kernel
(:func:`repro.core.kernels.backproject`) where the library builds, and in
the NumPy loop below, its bit-identical oracle, where it does not.  Both
paths read each view's cosine and sine from
:meth:`~repro.ct.geometry.ParallelBeamGeometry.view_cos_sin`, one NumPy
scalar call per view, because a vectorised ``np.cos`` need not match them.
"""

from __future__ import annotations

import numpy as np

from repro.ct.geometry import ParallelBeamGeometry

__all__ = ["ramp_filter", "fbp_reconstruct", "fbp_flop_estimate", "mbir_flop_estimate"]


def ramp_filter(n_channels: int, spacing: float, *, window: str = "ramp") -> np.ndarray:
    """Frequency response of the reconstruction filter, length ``2*n_channels``.

    Implemented as the DFT of the band-limited ramp's exact spatial kernel
    (Kak & Slaney eq. 61) to avoid the DC bias of a naive ``|f|`` ramp.

    Parameters
    ----------
    n_channels:
        Number of detector channels (filter is built at 2x length to make
        the linear convolution circular-safe).
    spacing:
        Channel pitch.
    window:
        ``"ramp"`` (Ram-Lak) or ``"hamming"`` for a Hamming-apodised ramp
        that trades resolution for noise suppression.
    """
    size = 2 * n_channels
    n = np.arange(size)
    # Exact spatial kernel of the band-limited ramp filter.
    kernel = np.zeros(size, dtype=np.float64)
    kernel[0] = 1.0 / (4.0 * spacing**2)
    odd = n[1:] % 2 == 1
    shifted = np.minimum(n[1:], size - n[1:])  # circular distance
    kernel[1:][odd] = -1.0 / (np.pi * shifted[odd] * spacing) ** 2
    response = np.real(np.fft.fft(kernel))
    if window == "hamming":
        freq = np.fft.fftfreq(size)
        response *= 0.54 + 0.46 * np.cos(2.0 * np.pi * freq)
    elif window != "ramp":
        raise ValueError(f"unknown window {window!r}; use 'ramp' or 'hamming'")
    return response


def fbp_reconstruct(
    sinogram: np.ndarray,
    geometry: ParallelBeamGeometry,
    *,
    window: str = "ramp",
    clip_negative: bool = True,
) -> np.ndarray:
    """Reconstruct a slice from ``sinogram`` by filtered backprojection."""
    sino = np.asarray(sinogram, dtype=np.float64)
    if sino.shape != geometry.sinogram_shape:
        raise ValueError(f"sinogram shape {sino.shape} != {geometry.sinogram_shape}")
    n_chan = geometry.n_channels
    spacing = geometry.channel_spacing
    response = ramp_filter(n_chan, spacing, window=window)

    padded = np.zeros((geometry.n_views, 2 * n_chan), dtype=np.float64)
    padded[:, :n_chan] = sino
    filtered = np.real(np.fft.ifft(np.fft.fft(padded, axis=1) * response[None, :], axis=1))
    filtered = filtered[:, :n_chan]

    x, y = geometry.pixel_centers()
    cos_v, sin_v = geometry.view_cos_sin()
    center = (n_chan - 1) / 2.0
    # Function-local: repro.core imports repro.ct at module load.
    from repro.core.kernels import backproject, load_c_kernel

    if load_c_kernel() is None:
        recon = backproject(
            np.ascontiguousarray(filtered), x.ravel(), y.ravel(), cos_v, sin_v, spacing, center
        ).reshape(x.shape)
    else:
        recon = np.zeros_like(x)
        # Continuous channel coordinate of each pixel centre per view, then
        # linear interpolation of the filtered view.
        chan_coords = np.arange(n_chan)
        for view in range(geometry.n_views):
            t = x * cos_v[view] + y * sin_v[view]
            c = t / spacing + center
            recon += np.interp(
                c.ravel(), chan_coords, filtered[view], left=0.0, right=0.0
            ).reshape(x.shape)
    recon *= np.pi / geometry.n_views * spacing
    if clip_negative:
        np.clip(recon, 0.0, None, out=recon)
    return recon


def fbp_flop_estimate(geometry: ParallelBeamGeometry) -> float:
    """Rough floating-point-operation count of one FBP reconstruction.

    Filtering: an FFT/IFFT pair per view (``5 * m * log2(m)`` real flops per
    transform, ``m = 2 * n_channels``) plus the spectral multiply;
    backprojection: ~8 flops per (pixel, view) pair.
    """
    m = 2 * geometry.n_channels
    fft_flops = geometry.n_views * (2 * 5.0 * m * np.log2(m) + 6.0 * m)
    bp_flops = 8.0 * geometry.n_voxels * geometry.n_views
    return fft_flops + bp_flops


def mbir_flop_estimate(geometry: ParallelBeamGeometry, equits: float) -> float:
    """Rough flop count of an ICD MBIR run at ``equits`` equivalent iterations.

    Each voxel update reads its full sinogram footprint twice (theta1/theta2)
    and writes it once, ~6 flops per entry, plus a constant prior cost.
    Dividing by :func:`fbp_flop_estimate` reproduces the paper's "up to two
    orders of magnitude more compute" framing.
    """
    per_voxel_entries = geometry.n_views * geometry.mean_channels_per_view()
    per_update = 6.0 * per_voxel_entries + 100.0
    return equits * geometry.n_voxels * per_update
