"""Shard scheduler: volumes as job groups on :class:`ReconstructionService`.

A *job group* is a parent id plus independently schedulable child jobs
submitted through the ordinary service API — children get the service's
full treatment (priority queue, checkpoints, dedup cache, supervision,
TTL eviction) with zero scheduler changes.  The coordinator tracks the
group, stitches child results (:mod:`repro.multires.halo`), and exposes a
job-like surface (``status`` / ``result`` / ``cancel``) the HTTP gateway
maps onto the existing ``/jobs/<id>`` routes.

Group state machine::

    RUNNING ──▶ DONE         every child finished; stitched result ready
       │─────▶ FAILED        a child failed (siblings are cancelled)
       └─────▶ CANCELLED     cancel() — children get cancel requests too

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
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.ct.sinogram import ScanData
from repro.multires.halo import Stripe, plan_stripes, stitch_stripes, stripe_voxel_indices
from repro.service.cache import CachedResult
from repro.service.jobs import (
    JobCancelledError,
    JobFailedError,
    JobSpec,
    JobStateError,
    UnknownJobError,
)
from repro.service.runner import job_params

__all__ = ["ShardGroup", "ShardCoordinator", "GroupFailedError", "GroupCancelledError"]


class GroupFailedError(JobFailedError):
    """A shard group failed (one of its children failed)."""


class GroupCancelledError(JobCancelledError):
    """A shard group was cancelled before completing."""


@dataclass
class ShardGroup:
    """Live state of one job group."""

    group_id: str
    mode: str  # "slices" | "rows"
    n_children_per_round: int
    rounds: int = 1
    priority: int = 0
    state: str = "running"  # running | done | failed | cancelled
    error: str | None = None
    child_ids: list[str] = field(default_factory=list)
    children_done: int = 0
    rounds_done: int = 0
    result: CachedResult | None = None
    cancel_requested: bool = False
    _done: threading.Event = field(default_factory=threading.Event, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def snapshot(self) -> dict[str, Any]:
        """A status document shaped like a job snapshot, plus group detail."""
        with self._lock:
            total = self.n_children_per_round * self.rounds
            return {
                "job_id": self.group_id,
                "state": self.state.upper(),
                "group": {
                    "mode": self.mode,
                    "n_children": total,
                    "children_done": self.children_done,
                    "rounds": self.rounds,
                    "rounds_done": self.rounds_done,
                    "children": list(self.child_ids),
                },
                "progress": (self.children_done / total) if total else 0.0,
                "error": self.error,
            }

    def _finish(self, state: str, *, error: str | None = None, result=None) -> None:
        with self._lock:
            if self.state != "running":
                return
            self.state = state
            self.error = error
            self.result = result
        self._done.set()

    def wait(self, timeout: float | None = None) -> bool:
        return self._done.wait(timeout)


def _child_seed(base_seed: int, shard: int, round_index: int) -> int:
    """A deterministic, JSON-safe per-(shard, round) seed."""
    ss = np.random.SeedSequence(entropy=[int(base_seed), int(round_index), int(shard)])
    return int(ss.generate_state(1, dtype=np.uint32)[0])


class ShardCoordinator:
    """Submit, supervise, and stitch shard job groups on a service.

    The coordinator holds no scheduling state of its own: children are
    ordinary service jobs, and one background thread per group waits on
    their results.  ``result_timeout_s`` bounds how long a group will wait
    for any single child before declaring the group failed.
    """

    def __init__(self, service, *, result_timeout_s: float = 600.0) -> None:
        self.service = service
        self.result_timeout_s = float(result_timeout_s)
        self._lock = threading.Lock()
        self._groups: dict[str, ShardGroup] = {}

    # -- registry --------------------------------------------------------
    def has(self, group_id: str) -> bool:
        with self._lock:
            return group_id in self._groups

    def __contains__(self, group_id: str) -> bool:
        return self.has(group_id)

    def group(self, group_id: str) -> ShardGroup:
        with self._lock:
            try:
                return self._groups[group_id]
            except KeyError:
                raise KeyError(f"unknown shard group {group_id!r}") from None

    def _register(self, group: ShardGroup) -> None:
        """Claim the group's id, which an active job must not hold either."""
        gid = group.group_id
        with self._lock:
            if gid in self._groups:
                raise JobStateError(f"shard group id {gid!r} already exists")
            try:
                active = not self.service.job(gid).terminal
            except UnknownJobError:  # never seen, or evicted
                active = False
            if active:
                raise JobStateError(f"job id {gid!r} is already active")
            self._groups[gid] = group

    @staticmethod
    def _new_group_id() -> str:
        return f"grp-{uuid.uuid4().hex[:12]}"

    # -- slices mode -----------------------------------------------------
    def submit_volume(
        self,
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
        cancelled, no group record stays, and the service's error is raised.
        """
        job_params(driver, params or {})
        if not scans:
            raise ValueError("submit_volume needs at least one slice scan")
        geom = scans[0].geometry
        for k, scan in enumerate(scans):
            if scan.geometry != geom:
                raise ValueError(
                    f"slice {k} geometry differs from slice 0; a volume shares "
                    f"one acquisition geometry"
                )
        gid = group_id or self._new_group_id()
        group = ShardGroup(
            group_id=gid,
            mode="slices",
            n_children_per_round=len(scans),
            rounds=1,
            priority=priority,
        )
        self._register(group)
        params = dict(params or {})
        try:
            for k, scan in enumerate(scans):
                cid = f"{gid}-s{k:03d}"
                self.service.submit(
                    JobSpec(
                        driver=driver,
                        scan=scan,
                        params=dict(params),
                        priority=priority,
                        job_id=cid,
                    )
                )
                with group._lock:
                    group.child_ids.append(cid)
        except Exception:
            self._cancel_children(group)
            with self._lock:
                del self._groups[gid]
            raise
        threading.Thread(
            target=self._run_slices,
            args=(group,),
            name=f"shard-group-{gid}",
            daemon=True,
        ).start()
        return gid

    def _run_slices(self, group: ShardGroup) -> None:
        images = []
        histories = []
        try:
            for cid in list(group.child_ids):
                result = self.service.result(cid, timeout=self.result_timeout_s)
                images.append(np.asarray(result.image, dtype=np.float64))
                histories.append(getattr(result, "history", None))
                with group._lock:
                    group.children_done += 1
                if group.cancel_requested:
                    raise GroupCancelledError(f"group {group.group_id} cancelled")
        except (GroupCancelledError, JobCancelledError):
            self._cancel_children(group)
            group._finish("cancelled", error="group cancelled")
            return
        except Exception as exc:
            self._cancel_children(group)
            group._finish("failed", error=str(exc))
            return
        stitched = np.stack(images, axis=0)
        with group._lock:
            group.rounds_done = 1
        group._finish(
            "done",
            result=CachedResult(
                image=stitched,
                history=None,
                metadata={
                    "group_id": group.group_id,
                    "mode": "slices",
                    "n_slices": len(images),
                    "children": list(group.child_ids),
                },
            ),
        )

    # -- rows mode -------------------------------------------------------
    def submit_sharded(
        self,
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
                raise ValueError(
                    f"param {reserved!r} is managed by the shard coordinator"
                )
        job_params("icd", params)
        gid = group_id or self._new_group_id()
        group = ShardGroup(
            group_id=gid,
            mode="rows",
            n_children_per_round=len(stripes),
            rounds=rounds,
            priority=priority,
        )
        self._register(group)
        threading.Thread(
            target=self._run_rows,
            args=(group, scan, stripes, halo, params, rounds, sweeps_per_round, seed),
            name=f"shard-group-{gid}",
            daemon=True,
        ).start()
        return gid

    def _run_rows(
        self,
        group: ShardGroup,
        scan: ScanData,
        stripes: list[Stripe],
        halo: int,
        params: dict[str, Any],
        rounds: int,
        sweeps_per_round: int,
        seed: int,
    ) -> None:
        n = scan.geometry.n_pixels
        subsets = [stripe_voxel_indices(n, stripe) for stripe in stripes]
        stitched: np.ndarray | None = None
        try:
            for round_index in range(rounds):
                round_ids = []
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
                    cid = f"{group.group_id}-r{round_index:02d}-s{stripe.index:03d}"
                    self.service.submit(
                        JobSpec(
                            driver="icd",
                            scan=scan,
                            params=child_params,
                            priority=group.priority,
                            job_id=cid,
                        )
                    )
                    round_ids.append(cid)
                    with group._lock:
                        group.child_ids.append(cid)
                images = []
                for cid in round_ids:
                    result = self.service.result(cid, timeout=self.result_timeout_s)
                    images.append(np.asarray(result.image, dtype=np.float64))
                    with group._lock:
                        group.children_done += 1
                    if group.cancel_requested:
                        raise GroupCancelledError(f"group {group.group_id} cancelled")
                stitched = stitch_stripes(images, stripes)
                with group._lock:
                    group.rounds_done = round_index + 1
        except (GroupCancelledError, JobCancelledError):
            self._cancel_children(group)
            group._finish("cancelled", error="group cancelled")
            return
        except Exception as exc:
            self._cancel_children(group)
            group._finish("failed", error=str(exc))
            return
        group._finish(
            "done",
            result=CachedResult(
                image=stitched,
                history=None,
                metadata={
                    "group_id": group.group_id,
                    "mode": "rows",
                    "n_shards": len(stripes),
                    "halo": halo,
                    "rounds": rounds,
                    "children": list(group.child_ids),
                },
            ),
        )

    # -- group surface ---------------------------------------------------
    def status(self, group_id: str) -> dict[str, Any]:
        return self.group(group_id).snapshot()

    def result(self, group_id: str, timeout: float | None = None) -> CachedResult:
        """Block for the stitched group result (mirrors ``service.result``)."""
        group = self.group(group_id)
        if not group.wait(timeout):
            raise TimeoutError(
                f"group {group_id} still {group.state} after {timeout}s"
            )
        if group.state == "failed":
            raise GroupFailedError(f"group {group_id} failed: {group.error}")
        if group.state == "cancelled":
            raise GroupCancelledError(f"group {group_id} was cancelled")
        return group.result

    def cancel(self, group_id: str) -> bool:
        """Request cancellation of the group and all its children."""
        group = self.group(group_id)
        with group._lock:
            if group.state != "running":
                return False
            group.cancel_requested = True
        self._cancel_children(group)
        return True

    def _cancel_children(self, group: ShardGroup) -> None:
        with group._lock:
            ids = list(group.child_ids)
        for cid in ids:
            try:
                self.service.cancel(cid)
            except Exception:
                pass  # already terminal / evicted / unknown: nothing to cancel
