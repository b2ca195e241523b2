"""Hierarchical multi-resolution reconstruction and volume sharding.

Two cooperating layers (DESIGN.md §17):

* the **pyramid solver** (:mod:`repro.multires.pyramid`,
  :mod:`repro.multires.resample`) — coarse-to-fine ICD with
  bit-reproducible restriction/prolongation operators and level-aware
  checkpoints, reusing the existing drivers at every level;
* the **shard scheduler** (:mod:`repro.multires.shards`,
  :mod:`repro.multires.halo`) — multi-slice / oversized volumes split
  into job groups on :class:`~repro.service.service.ReconstructionService`
  with halo exchange at stripe borders.

``shards`` is loaded lazily: the service's runner imports the pyramid
driver while the service package is still initialising, and the shard
layer imports service types — the lazy hop keeps that graph acyclic.
"""

from repro.multires.halo import (
    Stripe,
    plan_stripes,
    stitch_stripes,
    stripe_voxel_indices,
)
from repro.multires.pyramid import (
    LevelRun,
    MultiresResult,
    multires_reconstruct,
    parse_levels,
)
from repro.multires.resample import (
    coarse_system_for,
    coarsen_geometry,
    prolong_image,
    restrict_image,
    restrict_image_adjoint,
    restrict_scan,
    restrict_sinogram,
)

__all__ = [
    "Stripe",
    "plan_stripes",
    "stitch_stripes",
    "stripe_voxel_indices",
    "LevelRun",
    "MultiresResult",
    "multires_reconstruct",
    "parse_levels",
    "coarse_system_for",
    "coarsen_geometry",
    "prolong_image",
    "restrict_image",
    "restrict_image_adjoint",
    "restrict_scan",
    "restrict_sinogram",
    "ShardGroup",
    "submit_volume",
    "submit_sharded",
]

_LAZY_SHARDS = {"ShardGroup", "submit_volume", "submit_sharded"}


def __getattr__(name: str):
    if name in _LAZY_SHARDS:
        from repro.multires import shards

        return getattr(shards, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
