"""Shard planning: row stripes with halos, and stitching.

Two sharding shapes feed the shard groups in :mod:`repro.multires.shards`:

* **Slice shards** — a multi-slice volume splits into per-slice jobs.
  Parallel-beam slices are independent (no z-coupling in this library's
  model), so the stitched stack is *exactly* the unsharded per-slice
  reconstruction.

* **Row stripes (in-plane)** — one oversized slice splits into horizontal
  stripes.  Each stripe job updates its *owned* rows plus ``halo`` extra
  rows on each side (restricted-additive-Schwarz style): the halo rows
  give border voxels a correct q-GGMRF neighborhood and let information
  flow across the cut, while stitching keeps only the owned rows.
  Between rounds the group re-seeds every stripe with the full
  stitched image — that re-seeding *is* the halo exchange: each shard's
  next round sees its neighbors' latest owned rows.

The data term needs no decomposition at all — every stripe job keeps the
full sinogram and full error-sinogram bookkeeping, freezing only the
out-of-stripe voxels during its sweep — so the only approximation in the
whole scheme is block-Jacobi staleness across one round, which the pinned
RMSE-tolerance tests bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Stripe", "plan_stripes", "stripe_voxel_indices", "stitch_stripes"]


@dataclass(frozen=True)
class Stripe:
    """One row-stripe shard: owned rows ``[lo, hi)``, context ``[halo_lo, halo_hi)``."""

    index: int
    lo: int
    hi: int
    halo_lo: int
    halo_hi: int

    @property
    def n_owned(self) -> int:
        return self.hi - self.lo


def plan_stripes(n_rows: int, n_shards: int, halo: int) -> list[Stripe]:
    """Split ``n_rows`` into ``n_shards`` balanced stripes with ``halo`` overlap.

    Stripe sizes differ by at most one row; halos are clamped at the image
    border.  Raises ``ValueError`` on an unsatisfiable plan (more shards
    than rows, negative halo, a halo so deep it swallows a neighbor).
    """
    if n_rows < 1:
        raise ValueError(f"n_rows must be >= 1, got {n_rows}")
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if n_shards > n_rows:
        raise ValueError(f"cannot cut {n_rows} rows into {n_shards} shards")
    if halo < 0:
        raise ValueError(f"halo must be >= 0, got {halo}")
    base = n_rows // n_shards
    if halo > base:
        raise ValueError(
            f"halo {halo} exceeds the stripe height {base} "
            f"({n_rows} rows / {n_shards} shards); shrink the halo or the shard count"
        )
    remainder = n_rows % n_shards
    stripes = []
    lo = 0
    for index in range(n_shards):
        hi = lo + base + (1 if index < remainder else 0)
        stripes.append(
            Stripe(
                index=index,
                lo=lo,
                hi=hi,
                halo_lo=max(0, lo - halo),
                halo_hi=min(n_rows, hi + halo),
            )
        )
        lo = hi
    return stripes


def stripe_voxel_indices(n_pixels: int, stripe: Stripe) -> np.ndarray:
    """Flat (C-order) voxel indices of the stripe's update region (owned + halo)."""
    rows = np.arange(stripe.halo_lo, stripe.halo_hi, dtype=np.int64)
    cols = np.arange(n_pixels, dtype=np.int64)
    return (rows[:, None] * n_pixels + cols[None, :]).ravel()


def stitch_stripes(images: list[np.ndarray], stripes: list[Stripe]) -> np.ndarray:
    """Assemble the full image from each shard's owned rows.

    Each entry of ``images`` is a *full-raster* image from a stripe job
    (stripe jobs carry the whole grid; they just only updated their
    subset).  Only the owned rows of each shard survive into the stitch.
    """
    if len(images) != len(stripes):
        raise ValueError(
            f"got {len(images)} images for {len(stripes)} stripes"
        )
    first = np.asarray(images[0], dtype=np.float64)
    out = np.empty_like(first)
    for image, stripe in zip(images, stripes):
        img = np.asarray(image, dtype=np.float64)
        if img.shape != out.shape:
            raise ValueError(
                f"stripe {stripe.index} image shape {img.shape} != {out.shape}"
            )
        out[stripe.lo : stripe.hi, :] = img[stripe.lo : stripe.hi, :]
    return out
