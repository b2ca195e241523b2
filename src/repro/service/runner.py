"""Job execution: dispatch a JobSpec to the right driver, resiliently.

One function — :func:`run_job` — turns a spec into a driver call:

* the system matrix is built once per acquisition geometry and shared
  across jobs through a process-wide cache (:func:`system_for` —
  :func:`~repro.ct.system_matrix.build_system_matrix` is deterministic and
  read-only, so concurrent jobs on the same geometry reuse one instance);
* every job runs with an attached per-job
  :class:`~repro.resilience.CheckpointManager` and
  ``resume_from="latest"`` — a fresh job finds no checkpoint and starts
  clean, a job whose previous worker was killed resumes bit-identically
  from its last snapshot instead of recomputing from scratch;
* a spec that does not name ``stop_delta_hu`` runs with
  :data:`DEFAULT_STOP_DELTA_HU`, so a job stops when it converges rather
  than at ``max_equits``; an explicit ``None`` (JSON ``null``) turns the
  rule off;
* for ``gpu_icd``, spec params naming :class:`GPUICDParams` fields are
  folded into the ``params=`` object the driver expects;
* the test-only ``fault`` hook arms an
  :class:`~repro.resilience.IntegritySentinel` with a kill-at-iteration
  injector — but only on the job's first life, so kill-and-resume drills
  cannot kill the resumed run again.
"""

from __future__ import annotations

import dataclasses
import signal as signal_mod
import threading
from pathlib import Path
from typing import Any

from repro.core.gpu_icd import GPUICDParams, gpu_icd_reconstruct
from repro.core.icd import icd_reconstruct
from repro.core.psv_icd import psv_icd_reconstruct
from repro.ct.geometry import ParallelBeamGeometry
from repro.ct.system_matrix import SystemMatrix, build_system_matrix
from repro.multires.pyramid import multires_reconstruct
from repro.resilience import FaultInjector, IntegritySentinel
from repro.service.faults import DegradingCheckpointManager
from repro.service.jobs import JobSpec

__all__ = [
    "DEFAULT_STOP_DELTA_HU",
    "system_for",
    "clear_system_cache",
    "run_job",
    "cache_key_defaults",
]

#: The service's ``stop_delta_hu`` when a spec does not name one: mean
#: ``|dx|`` per voxel update over the trailing equit, in HU.  Calibrated on
#: the harness cases at 64² and 128² (DESIGN.md §18): wherever it fires,
#: the stop lands within 5 HU of the 40-equit golden image.
DEFAULT_STOP_DELTA_HU = 0.25

_DRIVER_FNS = {
    "icd": icd_reconstruct,
    "psv_icd": psv_icd_reconstruct,
    "gpu_icd": gpu_icd_reconstruct,
    "multires": multires_reconstruct,
}

_GPU_PARAM_FIELDS = frozenset(f.name for f in dataclasses.fields(GPUICDParams))

# -- system-matrix cache ------------------------------------------------
_system_lock = threading.Lock()
_system_cache: dict[tuple, SystemMatrix] = {}


def _geometry_key(geometry: ParallelBeamGeometry) -> tuple:
    return (
        geometry.n_pixels,
        geometry.n_views,
        geometry.n_channels,
        geometry.pixel_size,
        geometry.channel_spacing,
    )


def system_for(geometry: ParallelBeamGeometry) -> SystemMatrix:
    """The shared system matrix for ``geometry`` (built once, process-wide)."""
    key = _geometry_key(geometry)
    with _system_lock:
        system = _system_cache.get(key)
    if system is not None:
        return system
    built = build_system_matrix(geometry)
    with _system_lock:
        # A concurrent builder may have won the race; keep the first one so
        # every job sees the same instance.
        return _system_cache.setdefault(key, built)


def clear_system_cache() -> None:
    """Drop all cached system matrices (tests, memory pressure)."""
    with _system_lock:
        _system_cache.clear()


# -- dispatch -----------------------------------------------------------
def cache_key_defaults(driver: str, params: dict[str, Any]) -> dict[str, Any]:
    """The defaults :func:`run_job` resolves for a job, as cache-key entries.

    ``multires`` folds its resolved ``base_driver`` default into the key:
    an explicit ``base_driver="icd"`` and an omitted one run the identical
    pyramid, so they must share a cache entry — while
    ``base_driver="psv_icd"``, whose iterates validly differ, must not.
    Pyramid/shard params that arrive explicitly (``levels``,
    ``coarse_equits``, ``voxel_subset``, ndarray ``init`` seeds, ...) are
    spec params and therefore keyed already —
    :func:`repro.service.cache.cache_key` hashes ndarray values by content.

    The resolved ``stop_delta_hu`` is folded in the same way: an omitted
    one and an explicit :data:`DEFAULT_STOP_DELTA_HU` run the same job and
    share a key, while ``None`` (rule off) runs to the budget and does not.
    """
    defaults: dict[str, Any] = {}
    if "stop_delta_hu" not in params:
        defaults["stop_delta_hu"] = DEFAULT_STOP_DELTA_HU
    if driver == "multires" and "base_driver" not in params:
        defaults["base_driver"] = "icd"
    return defaults


def _split_gpu_params(params: dict[str, Any]) -> dict[str, Any]:
    """Fold GPUICDParams-field keys into a ``params=`` object."""
    fields = {k: v for k, v in params.items() if k in _GPU_PARAM_FIELDS}
    rest = {k: v for k, v in params.items() if k not in _GPU_PARAM_FIELDS}
    if fields:
        rest["params"] = GPUICDParams(**fields)
    return rest


def fault_sentinel(fault: dict[str, Any] | None) -> IntegritySentinel | None:
    """Build the kill-drill sentinel for a spec's ``fault`` hook, if any.

    ``{"kill_at_iteration": N}`` SIGKILLs the worker at iteration ``N``;
    an optional ``"signal"`` (int or name, e.g. ``"SIGSTOP"``) is sent
    instead — SIGSTOP leaves the worker alive but silent, the hang the
    heartbeat supervisor exists to catch.
    """
    if not fault:
        return None
    unknown = set(fault) - {"kill_at_iteration", "signal"}
    kill_at = fault.get("kill_at_iteration")
    if unknown or kill_at is None:
        raise ValueError(f"unsupported fault spec {fault!r}")
    sig = fault.get("signal", signal_mod.SIGKILL)
    if isinstance(sig, str):
        resolved = getattr(signal_mod, sig, None)
        if resolved is None:
            raise ValueError(f"unknown signal {sig!r} in fault spec {fault!r}")
        sig = resolved
    injector = FaultInjector().kill_at(int(kill_at), sig=int(sig))
    return IntegritySentinel(fault_injector=injector)


def run_job(
    spec: JobSpec,
    *,
    checkpoint_dir: str | Path,
    checkpoint_every: int = 1,
    metrics=None,
):
    """Execute ``spec``'s reconstruction, checkpointed and resumable.

    The job checkpoints into ``checkpoint_dir`` every ``checkpoint_every``
    iterations and always resumes from the newest valid snapshot there
    (none yet = fresh start).  Returns the driver's result object.

    A spec without a ``stop_delta_hu`` param runs with
    :data:`DEFAULT_STOP_DELTA_HU`; the spec's own value, ``None`` included,
    always wins.
    """
    driver_fn = _DRIVER_FNS[spec.driver]
    system = system_for(spec.scan.geometry)
    kwargs = {"stop_delta_hu": DEFAULT_STOP_DELTA_HU, **spec.params}
    if spec.driver == "gpu_icd":
        kwargs = _split_gpu_params(kwargs)

    # Degrading manager: a disk fault on the checkpoint directory suspends
    # checkpointing (CHECKPOINT_DEGRADED on the job, periodic re-probe)
    # instead of failing an otherwise-healthy reconstruction.
    manager = DegradingCheckpointManager(checkpoint_dir, recorder=metrics)
    first_life = not manager.paths()
    sentinel = fault_sentinel(spec.fault) if first_life else None

    return driver_fn(
        spec.scan,
        system,
        metrics=metrics,
        checkpoint=manager,
        checkpoint_every=checkpoint_every,
        resume_from="latest",
        sentinel=sentinel,
        **kwargs,
    )
