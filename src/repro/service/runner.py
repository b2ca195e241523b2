"""Job execution: check a JobSpec's params, then dispatch it resiliently.

One contract and one function turn a spec into a driver call:

* :func:`job_params`, the job contract read from the driver signatures,
  refuses a bad param at ``ReconstructionService.submit``, before a job is
  queued, and resolves the params the job is keyed on and run with;
* a spec that does not name ``stop_delta_hu`` runs with
  :data:`DEFAULT_STOP_DELTA_HU`, so a job stops when it converges rather
  than at ``max_equits``; an explicit ``None`` (JSON ``null``) turns the
  rule off;
* the system matrix is built once per acquisition geometry and shared
  across jobs through a process-wide cache (:func:`system_for` —
  :func:`~repro.ct.system_matrix.build_system_matrix` is deterministic and
  read-only, so concurrent jobs on the same geometry reuse one instance);
* every job runs with an attached per-job
  :class:`~repro.resilience.CheckpointManager` and
  ``resume_from="latest"`` — a fresh job finds no checkpoint and starts
  clean, a job whose previous worker was killed resumes bit-identically
  from its last snapshot instead of recomputing from scratch;
* spec params naming :class:`GPUICDParams` fields fold into the
  ``params=`` object ``gpu_icd`` expects, under ``multires`` too;
* the test-only ``fault`` hook arms an
  :class:`~repro.resilience.IntegritySentinel` with a kill-at-iteration
  injector — but only on the job's first life, so kill-and-resume drills
  cannot kill the resumed run again.
"""

from __future__ import annotations

import functools
import inspect
import numbers
import signal as signal_mod
from pathlib import Path
from typing import Any, get_args

import numpy as np

from repro.core.gpu_icd import GPUICDParams, gpu_icd_reconstruct
from repro.core.icd import icd_reconstruct
from repro.core.psv_icd import psv_icd_reconstruct
from repro.ct.geometry import ParallelBeamGeometry
from repro.ct.system_matrix import (
    SystemMatrix,
    build_system_matrix,
    clear_system_cache,
    shared_system,
)
from repro.multires.pyramid import BASE_DRIVERS, multires_reconstruct
from repro.resilience import FaultInjector, IntegritySentinel
from repro.service.faults import DegradingCheckpointManager
from repro.service.jobs import JobSpec

__all__ = [
    "DEFAULT_STOP_DELTA_HU",
    "system_for",
    "clear_system_cache",
    "job_params",
    "run_job",
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

#: Driver kwargs :func:`run_job` passes itself; a job may not name them.
_SERVICE_KWARGS = frozenset("metrics checkpoint checkpoint_every resume_from sentinel".split())
#: Driver kwargs that take objects a JSON job cannot carry.
_OBJECT_KWARGS = frozenset("prior grid neighborhood level_systems params".split())
#: The names a string-valued param may take.
_CHOICES = {"init": ("fbp", "zero")}


def _is_numeric_array(value) -> bool:
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nested lists
        return False
    return arr.ndim > 0 and arr.dtype.kind in "biuf"


#: What a value must be to pass as each annotated type; an unannotated
#: parameter takes any value, and a type not listed (a Generator) none.
_ADMITS = {
    inspect.Parameter.empty: lambda v: True,
    type(None): lambda v: v is None,
    bool: lambda v: isinstance(v, (bool, np.bool_)),
    int: lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
    float: lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
    str: lambda v: isinstance(v, str),
    np.ndarray: _is_numeric_array,
}


def system_for(geometry: ParallelBeamGeometry) -> SystemMatrix:
    """The shared system matrix for ``geometry`` (built once, process-wide)."""
    return shared_system(geometry, build=build_system_matrix)


# -- dispatch -----------------------------------------------------------
def _keywords(fn) -> dict[str, tuple]:
    """``fn``'s parameters that have defaults, each with its annotated types."""
    params = inspect.signature(fn, eval_str=True).parameters.values()
    return {
        p.name: get_args(p.annotation) or (p.annotation,)
        for p in params
        if p.default is not p.empty
    }


@functools.lru_cache(maxsize=None)
def _contract(driver: str, base_driver: str | None = None) -> dict[str, tuple]:
    """What a ``driver`` job may pass: each param with the types it admits.
    ``gpu_icd`` adds the GPUICDParams fields, ``multires`` its base driver's."""
    table = _keywords(_DRIVER_FNS[driver])
    if base_driver is not None:
        table.update(_contract(base_driver))
    elif driver == "gpu_icd":
        table.update(_keywords(GPUICDParams))
    return {k: v for k, v in table.items() if k not in _SERVICE_KWARGS | _OBJECT_KWARGS}


def job_params(driver: str, params: dict[str, Any]) -> dict[str, Any]:
    """A job's params, checked against its driver's contract, with defaults.

    Raises ``ValueError`` naming the first param the driver cannot take: an
    unknown or service-set name, a value its annotation does not admit, or
    an unknown ``init`` choice.  Returns ``params`` plus the
    defaults the service resolves (:data:`DEFAULT_STOP_DELTA_HU`, multires'
    ``base_driver="icd"``), so an omitted default and an explicit one share
    a cache key.
    """
    if driver not in _DRIVER_FNS:
        raise ValueError(f"unknown driver {driver!r}; use one of {sorted(_DRIVER_FNS)}")
    resolved = {"stop_delta_hu": DEFAULT_STOP_DELTA_HU, **params}
    base = None
    if driver == "multires":
        base = resolved.setdefault("base_driver", "icd")
        if not isinstance(base, str) or base not in BASE_DRIVERS:
            raise ValueError(
                f"param 'base_driver' must be one of {sorted(BASE_DRIVERS)}, got {base!r}"
            )
    contract = _contract(driver, base)
    for name, value in params.items():
        if name in _SERVICE_KWARGS:
            raise ValueError(f"param {name!r} is set by the service, not by a job")
        if name not in contract:
            over = f" over {base}" if base else ""
            raise ValueError(f"{driver}{over} takes no param {name!r}")
        kinds = contract[name]
        if not any(_ADMITS.get(kind, lambda v: False)(value) for kind in kinds):
            wanted = " or ".join(kind.__name__ for kind in kinds)
            raise ValueError(f"param {name!r} must be {wanted}, got {type(value).__name__}")
        if isinstance(value, str) and value not in _CHOICES.get(name, (value,)):
            raise ValueError(f"param {name!r} must be one of {_CHOICES[name]}, got {value!r}")
    return resolved


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

    The driver runs with :func:`job_params`' result: a spec without a
    ``stop_delta_hu`` param runs with :data:`DEFAULT_STOP_DELTA_HU`; the
    spec's own value, ``None`` included, always wins.
    """
    kwargs = job_params(spec.driver, spec.params)
    if kwargs.get("base_driver", spec.driver) == "gpu_icd":
        fields = {k: kwargs.pop(k) for k in _keywords(GPUICDParams) if k in kwargs}
        if fields:
            kwargs["params"] = GPUICDParams(**fields)
    driver_fn = _DRIVER_FNS[spec.driver]
    system = system_for(spec.scan.geometry)

    # Degrading manager: a disk fault on the checkpoint directory suspends
    # checkpointing (CHECKPOINT_DEGRADED on the job, one probe per save)
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
