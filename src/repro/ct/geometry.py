"""Parallel-beam CT acquisition geometry.

The paper's benchmark data comes from an Imatron C-300 scanner operated in
parallel-beam mode: 720 uniformly distributed views over 180 degrees, a
1024-channel linear sensor array, and 512x512 reconstruction slices.  This
module captures exactly that description: image raster, view angles, and
detector channel coordinates, plus the analytic pixel-footprint quantities
(trapezoid widths) that both the system-matrix builder and the performance
model's footprint statistics need.

Coordinate conventions
----------------------
* The image is an ``n x n`` raster of square pixels of side ``pixel_size``;
  pixel ``(row, col)`` has centre ``x = (col - (n-1)/2) * pixel_size`` and
  ``y = ((n-1)/2 - row) * pixel_size`` (row 0 at the top, as displayed).
* A view at angle ``theta`` projects the point ``(x, y)`` to detector
  coordinate ``t = x*cos(theta) + y*sin(theta)``.
* Channel ``c`` spans ``t`` in
  ``[(c - n_channels/2) * channel_spacing, (c + 1 - n_channels/2) * channel_spacing)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils import check_positive

__all__ = ["ParallelBeamGeometry", "paper_geometry", "scaled_geometry"]


@dataclass(frozen=True)
class ParallelBeamGeometry:
    """Immutable description of a 2-D parallel-beam scan.

    Parameters
    ----------
    n_pixels:
        Side length of the square reconstruction raster (paper: 512).
    n_views:
        Number of view angles, uniformly spaced over ``[0, pi)`` (paper: 720).
    n_channels:
        Number of detector channels (paper: 1024).
    pixel_size:
        Physical pixel side length (arbitrary length unit; default 1.0).
    channel_spacing:
        Detector channel pitch in the same unit.  The default of
        ``sqrt(2) * n_pixels * pixel_size / n_channels`` makes the detector
        exactly cover the image diagonal, so every pixel is measured at every
        angle — matching a scanner field of view that circumscribes the
        reconstruction circle.
    """

    n_pixels: int
    n_views: int
    n_channels: int
    pixel_size: float = 1.0
    channel_spacing: float | None = None
    # Derived, filled in __post_init__ (kept out of __init__ comparisons).
    angles: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_positive("n_pixels", self.n_pixels)
        check_positive("n_views", self.n_views)
        check_positive("n_channels", self.n_channels)
        check_positive("pixel_size", self.pixel_size)
        if self.channel_spacing is None:
            spacing = float(np.sqrt(2.0) * self.n_pixels * self.pixel_size / self.n_channels)
            object.__setattr__(self, "channel_spacing", spacing)
        check_positive("channel_spacing", self.channel_spacing)
        angles = np.linspace(0.0, np.pi, self.n_views, endpoint=False)
        angles.setflags(write=False)
        object.__setattr__(self, "angles", angles)

    # ------------------------------------------------------------------
    # Raster coordinates
    # ------------------------------------------------------------------
    @property
    def n_voxels(self) -> int:
        """Total number of voxels (pixels) in a slice."""
        return self.n_pixels * self.n_pixels

    @property
    def sinogram_shape(self) -> tuple[int, int]:
        """Shape of a sinogram array, ``(n_views, n_channels)``."""
        return (self.n_views, self.n_channels)

    def pixel_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(x, y)`` centre coordinates, each of shape ``(n, n)``."""
        n = self.n_pixels
        half = (n - 1) / 2.0
        cols = (np.arange(n) - half) * self.pixel_size
        rows = (half - np.arange(n)) * self.pixel_size
        x = np.broadcast_to(cols[None, :], (n, n))
        y = np.broadcast_to(rows[:, None], (n, n))
        return x, y

    def voxel_index(self, row: np.ndarray | int, col: np.ndarray | int) -> np.ndarray | int:
        """Flattened (C-order) voxel index for raster coordinates."""
        return np.asarray(row) * self.n_pixels + np.asarray(col)

    # ------------------------------------------------------------------
    # Detector coordinates
    # ------------------------------------------------------------------
    def view_cos_sin(self) -> tuple[np.ndarray, np.ndarray]:
        """Each view's ``(cos, sin)``, one NumPy scalar call per view.

        The ``c`` kernel's matrix build and FBP backprojection read these
        bits, as their NumPy oracles do; a vectorised ``np.cos`` over
        ``angles`` need not match them.
        """
        cos_v = np.array([np.cos(theta) for theta in self.angles])
        sin_v = np.array([np.sin(theta) for theta in self.angles])
        return cos_v, sin_v

    def detector_coordinate(self, x: np.ndarray, y: np.ndarray, view: int) -> np.ndarray:
        """Project points onto the detector axis of ``view``."""
        theta = self.angles[view]
        return x * np.cos(theta) + y * np.sin(theta)

    def channel_lo_edge(self, channel: np.ndarray | int) -> np.ndarray | float:
        """Detector-axis coordinate of the low edge of ``channel``."""
        return (np.asarray(channel, dtype=np.float64) - self.n_channels / 2.0) * self.channel_spacing

    def channel_of(self, t: np.ndarray) -> np.ndarray:
        """Channel index containing detector coordinate ``t`` (may be out of range)."""
        return np.floor(t / self.channel_spacing + self.n_channels / 2.0).astype(np.int64)

    # ------------------------------------------------------------------
    # Pixel footprint (trapezoid) parameters
    # ------------------------------------------------------------------
    def footprint_widths(self, view: int | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Box widths ``(w1, w2)`` whose convolution is the pixel footprint.

        A square pixel of side ``h`` viewed at angle ``theta`` casts a
        trapezoidal line-integral profile on the detector: the convolution of
        boxes of widths ``h*|cos(theta)|`` and ``h*|sin(theta)|``.
        """
        theta = self.angles[view]
        h = self.pixel_size
        return np.abs(h * np.cos(theta)), np.abs(h * np.sin(theta))

    def footprint_span(self, view: int | np.ndarray) -> np.ndarray:
        """Total detector-axis support of the footprint at ``view`` (w1+w2)."""
        w1, w2 = self.footprint_widths(view)
        return w1 + w2

    def mean_channels_per_view(self) -> float:
        """Average number of channels a pixel footprint overlaps per view.

        Used by the performance model to estimate per-voxel work on the
        paper's full-size geometry without materialising the system matrix.
        """
        spans = self.footprint_span(np.arange(self.n_views))
        return float(np.mean(spans / self.channel_spacing + 1.0))


def paper_geometry() -> ParallelBeamGeometry:
    """The exact geometry of the paper's benchmark suite (§5.1)."""
    return ParallelBeamGeometry(n_pixels=512, n_views=720, n_channels=1024)


def scaled_geometry(n_pixels: int = 128) -> ParallelBeamGeometry:
    """A proportionally scaled geometry for fast real-numerics runs.

    Keeps the paper's ratios: views ≈ 1.4 * n_pixels, channels = 2 * n_pixels.
    """
    check_positive("n_pixels", n_pixels)
    n_views = max(8, int(round(720 * n_pixels / 512)))
    n_channels = 2 * n_pixels
    return ParallelBeamGeometry(n_pixels=n_pixels, n_views=n_views, n_channels=n_channels)
