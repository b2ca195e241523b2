"""Shard groups: volumes as job groups on :class:`ReconstructionService`.

A *shard group* is a :class:`~repro.service.jobs.Job` whose work is other
jobs.  :func:`submit_volume` and :func:`submit_sharded` register it under
the group id without queueing it and submit its children as ordinary
service jobs, which get the service's full treatment (priority queue,
checkpoints, dedup cache, supervision, TTL eviction).  One thread per
group waits on the child :class:`~repro.service.jobs.Job` objects it
holds, stitches their images (:mod:`repro.multires.halo`) and files the
group's terminal state.  Because a group is a job, the service's id rule,
tombstones, TTL eviction, ``job`` / ``status`` / ``result`` / ``cancel`` /
``drain`` and every ``/jobs/<id>`` route of the HTTP gateway serve it
through the job code.

Group lifecycle (the job state machine, filed by the group's thread)::

    RUNNING ──▶ DONE         every child finished; stitched result ready
       ├─────▶ FAILED        a child failed or timed out (siblings are cancelled)
       └─────▶ CANCELLED     cancel(), or a child was cancelled — every
                             child gets a cancel request

Two modes (see :mod:`repro.multires.halo` for the math):

* ``slices`` — one child per slice of a multi-slice volume; the stitched
  stack is bit-identical to reconstructing each slice unsharded.
* ``rows`` — one oversized slice cut into row stripes with halo overlap,
  run as block-Jacobi rounds: every round submits one child per stripe
  (full scan, ``voxel_subset`` restricted to owned+halo rows, seeded with
  the current stitched image), then stitches owned rows and re-seeds —
  the halo exchange.  Child jobs differing only in their seed image or
  subset hash to different cache keys (see ``_json_fallback`` ndarray
  support in :mod:`repro.service.cache`), so rounds never alias.
"""

from __future__ import annotations

import threading
import uuid
from typing import Any, Callable

import numpy as np

from repro.ct.sinogram import ScanData
from repro.multires.halo import Stripe, plan_stripes, stitch_stripes, stripe_voxel_indices
from repro.service.cache import CachedResult
from repro.service.jobs import (
    Job,
    JobCancelledError,
    JobFailedError,
    JobSpec,
    JobState,
)
from repro.service.runner import job_params

__all__ = ["ShardGroup", "submit_volume", "submit_sharded", "RESULT_TIMEOUT_S"]

#: How long a group waits for any one child before it fails.
RESULT_TIMEOUT_S = 600.0


class ShardGroup(Job):
    """One job group: a job whose children are service jobs.

    ``spec`` carries what the children share (driver, params, priority,
    one slice's scan) and the group id (a fresh ``grp-…`` one when
    omitted).  While the group runs it holds its children's :class:`Job`
    objects, so a child the TTL reaper evicts still hands over its image;
    a terminal group keeps only their ids.
    """

    def __init__(
        self, service, spec: JobSpec, *, mode: str, n_children_per_round: int, rounds: int = 1
    ) -> None:
        job_id = spec.job_id or f"grp-{uuid.uuid4().hex[:12]}"
        super().__init__(job_id, spec, clock=service.clock)
        self.service = service
        self.mode = mode  # "slices" | "rows"
        self.n_children_per_round = n_children_per_round
        self.rounds = rounds
        self.child_ids: list[str] = []
        self.children_done = 0
        self.rounds_done = 0
        self._children: list[Job] = []

    # -- the job surface -------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """The job snapshot plus the group's progress and child ids."""
        snap = super().snapshot()
        with self._lock:
            total = self.n_children_per_round * self.rounds
            snap["group"] = {
                "mode": self.mode,
                "n_children": total,
                "children_done": self.children_done,
                "rounds": self.rounds,
                "rounds_done": self.rounds_done,
                "children": list(self.child_ids),
            }
            snap["progress"] = (self.children_done / total) if total else 0.0
        return snap

    def result_metadata(self) -> dict[str, Any]:
        with self._lock:
            return {"job_id": self.job_id, "mode": self.mode, "children": list(self.child_ids)}

    def request_cancel(self) -> bool:
        """Cancel the group and every child it has submitted."""
        if not super().request_cancel():
            return False
        with self._lock:
            children = list(self._children)
        for child in children:
            child.request_cancel()
        return True

    # -- children --------------------------------------------------------
    def submit_child(self, child_id: str, scan: ScanData, params: dict[str, Any]) -> Job:
        """Submit one child job and hold it."""
        spec = JobSpec(
            driver=self.spec.driver,
            scan=scan,
            params=params,
            priority=self.spec.priority,
            job_id=child_id,
        )
        self.service.submit(spec)
        child = self.service.job(child_id)
        with self._lock:
            self._children.append(child)
            self.child_ids.append(child_id)
        # A cancel that read the child list before this append set the
        # flag first, so it is seen here.
        if self.cancel_requested:
            child.request_cancel()
        return child

    def await_round(self, children: list[Job]) -> list[np.ndarray]:
        """Wait for one round's children in order; return their images."""
        images = []
        for child in children:
            if not child.wait(RESULT_TIMEOUT_S):
                raise TimeoutError(f"job {child.job_id} unfinished after {RESULT_TIMEOUT_S:g}s")
            if child.state is JobState.FAILED:
                raise JobFailedError(f"job {child.job_id} failed: {child.error}")
            if child.state is JobState.CANCELLED:
                raise JobCancelledError(f"job {child.job_id} was cancelled")
            images.append(np.asarray(child.result.image, dtype=np.float64))
            with self._lock:
                self.children_done += 1
            if self.cancel_requested:
                raise JobCancelledError(f"group {self.job_id} cancelled")
        with self._lock:
            self.rounds_done += 1
        return images

    # -- the group's thread ----------------------------------------------
    def start(self, body: Callable[..., np.ndarray], *args) -> None:
        """Move to RUNNING and run ``body(self, *args)`` on the group's thread."""
        self.transition(JobState.RUNNING)
        threading.Thread(
            target=self._run,
            args=(body, *args),
            name=f"shard-group-{self.job_id}",
            daemon=True,
        ).start()

    def _run(self, body: Callable[..., np.ndarray], *args) -> None:
        try:
            image = body(self, *args)
        except JobCancelledError:
            self.finish(JobState.CANCELLED, error="group cancelled")
        except Exception as exc:
            self.finish(JobState.FAILED, error=str(exc))
        else:
            self.result = CachedResult(image=image, history=None, metadata=self.result_metadata())
            self.finish(JobState.DONE)

    def finish(self, state: JobState, *, error: str | None = None) -> None:
        """File ``state``, drop the held children and cancel any still running."""
        with self._lock:
            children, self._children = self._children, []
        for child in children:
            child.request_cancel()  # a no-op on a finished child
        self.transition(state, error=error)


def _child_seed(base_seed: int, shard: int, round_index: int) -> int:
    """A deterministic, JSON-safe per-(shard, round) seed."""
    ss = np.random.SeedSequence(entropy=[int(base_seed), int(round_index), int(shard)])
    return int(ss.generate_state(1, dtype=np.uint32)[0])


# -- slices mode -----------------------------------------------------------
def submit_volume(
    service,
    scans: list[ScanData],
    *,
    driver: str = "icd",
    params: dict[str, Any] | None = None,
    priority: int = 0,
    group_id: str | None = None,
) -> str:
    """Submit a multi-slice volume as one child job per slice.

    Returns the group id.  The group result's image has shape
    ``(n_slices, n, n)``; each slice is bit-identical to an unsharded
    reconstruction of that slice with the same driver/params.  A child
    the service refuses (a duplicate id, backpressure, a closed queue)
    refuses the whole group: the children already submitted are
    cancelled, the group id is withdrawn, and the service's error is raised.
    """
    params = dict(params or {})
    job_params(driver, params)
    if not scans:
        raise ValueError("submit_volume needs at least one slice scan")
    geom = scans[0].geometry
    for k, scan in enumerate(scans):
        if scan.geometry != geom:
            raise ValueError(
                f"slice {k} geometry differs from slice 0; a volume shares "
                f"one acquisition geometry"
            )
    spec = JobSpec(driver=driver, scan=scans[0], params=params, priority=priority, job_id=group_id)
    group = ShardGroup(service, spec, mode="slices", n_children_per_round=len(scans))
    service.register(group)
    try:
        children = [
            group.submit_child(f"{group.job_id}-s{k:03d}", scan, dict(params))
            for k, scan in enumerate(scans)
        ]
    except Exception as exc:
        group.finish(JobState.FAILED, error=str(exc))
        service.withdraw(group)
        raise
    group.start(_run_slices, children)
    return group.job_id


def _run_slices(group: ShardGroup, children: list[Job]) -> np.ndarray:
    return np.stack(group.await_round(children), axis=0)


# -- rows mode -------------------------------------------------------------
def submit_sharded(
    service,
    scan: ScanData,
    *,
    params: dict[str, Any] | None = None,
    n_shards: int = 2,
    halo: int = 1,
    rounds: int = 2,
    sweeps_per_round: int = 1,
    seed: int = 0,
    priority: int = 0,
    group_id: str | None = None,
) -> str:
    """Submit one oversized slice as halo-exchanged row-stripe rounds.

    Each round runs ``n_shards`` children (sequential-ICD jobs over
    the stripe's owned+halo rows, seeded with the current stitched
    image) and stitches their owned rows; the stitched result after
    the last round is the group result.  Raises ``ValueError`` for
    unsatisfiable plans or params before anything is registered.
    """
    n = scan.geometry.n_pixels
    stripes = plan_stripes(n, n_shards, halo)  # validates the plan
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if sweeps_per_round < 1:
        raise ValueError(f"sweeps_per_round must be >= 1, got {sweeps_per_round}")
    params = dict(params or {})
    for reserved in ("voxel_subset", "max_iterations"):
        if reserved in params:
            raise ValueError(f"param {reserved!r} is managed by the shard group")
    job_params("icd", params)
    spec = JobSpec(driver="icd", scan=scan, params=params, priority=priority, job_id=group_id)
    group = ShardGroup(
        service, spec, mode="rows", n_children_per_round=len(stripes), rounds=rounds
    )
    service.register(group)
    group.start(_run_rows, stripes, sweeps_per_round, seed)
    return group.job_id


def _run_rows(
    group: ShardGroup, stripes: list[Stripe], sweeps_per_round: int, seed: int
) -> np.ndarray:
    scan, params = group.spec.scan, group.spec.params
    subsets = [stripe_voxel_indices(scan.geometry.n_pixels, stripe) for stripe in stripes]
    stitched: np.ndarray | None = None
    for round_index in range(group.rounds):
        children = []
        for stripe, subset in zip(stripes, subsets):
            child_params = {
                **params,
                "voxel_subset": subset,
                "max_iterations": sweeps_per_round,
                "seed": _child_seed(seed, stripe.index, round_index),
                "track_cost": params.get("track_cost", False),
            }
            if stitched is not None:
                child_params["init"] = stitched
            cid = f"{group.job_id}-r{round_index:02d}-s{stripe.index:03d}"
            children.append(group.submit_child(cid, scan, child_params))
        stitched = stitch_stripes(group.await_round(children), stripes)
    return stitched
