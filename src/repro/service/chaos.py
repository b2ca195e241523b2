"""End-to-end chaos campaigns against the reconstruction service.

A *campaign* boots a real :class:`~repro.service.service.ReconstructionService`
(plus its :class:`~repro.service.http.HttpGateway`), submits a seeded random
mix of clean and fault-injected jobs, drains, and then checks **global
invariants** — the properties that must hold no matter which faults fired:

* every accepted job reaches exactly one terminal state (the only tolerated
  exception: a job accepted in the close race that stays PENDING after the
  service shut down);
* every DONE result is **bit-identical** to an uninterrupted single-process
  reference reconstruction of the same spec — kills, hangs, checkpoint-disk
  faults, and dedup hits must not perturb iterates;
* injected faults leave their fingerprints: a SIGKILLed worker logs
  ``WORKER_CRASHED``, a SIGSTOPped one ``WORKER_HUNG``
  (``reason=heartbeat_timeout``), a checkpoint-disk fault
  ``CHECKPOINT_DEGRADED``, and an unwritable *result* directory is the one
  fault that is allowed (required) to end FAILED, with
  ``ResultPersistError`` in the error;
* the gateway never answers 5xx on the paths a correct client exercises
  (503 + ``Retry-After`` during the close race is sanctioned backpressure;
  result fetches are only issued for DONE jobs);
* TTL eviction leaves tombstones, not holes: an evicted id answers
  **410 Gone**, and the tombstone set stays bounded;
* every campaign also POSTs one slices-mode shard group (a 2-slice
  volume on the campaign geometry) over HTTP: it reaches exactly one
  terminal state, as do its children, and a DONE stack equals the
  per-slice references bit for bit.

Fault vocabulary (per job, chosen by the campaign's seeded RNG):

==============  ========================================================
kind            injection
==============  ========================================================
``none``        clean job (submitted through the HTTP gateway)
``dup``         byte-identical resubmission of the campaign's first job
                (exercises the content-addressed cache / dedup path)
``cancel``      cancel shortly after submission (either outcome —
                CANCELLED or a DONE photo-finish — is legal)
``ckpt_fault``  ``.disk-fault`` sentinel armed in the job's checkpoint
                directory pre-submit, disarmed on its first iteration
                event → checkpoint writes degrade, job still finishes
``cache_fault`` sentinel armed on the shared cache directory for the
                whole campaign → disk-tier persists fail, dedup falls
                back to memory, jobs still finish
``kill``        ``fault={"kill_at_iteration": 2}`` — SIGKILL mid-run,
                resume from checkpoint
``hang``        SIGSTOP instead of SIGKILL — worker goes silent, the
                heartbeat supervisor must detect and kill it
``result_out``  sentinel armed on the job's *result* directory (never
                cleared) → the worker's result persist fails after
                retries; the job must FAIL typed, not hang or crash
                the service
==============  ========================================================

Campaign-level injections (seeded coin flips): a ``DELETE`` of the
shard group right after its POST (CANCELLED or a DONE photo-finish are
both legal); after the drain, TTL eviction via
``evict_terminal(older_than_s=0)`` with HTTP 410 probes of an evicted job
and of the evicted group; and a queue-close race — submissions fired
concurrently with ``service.close()`` must either land or fail with the
typed queue-closed/service-closed errors, never anything else.

``python -m repro chaos --campaigns N --seed S`` runs N campaigns and
exits non-zero on any violation; its ``--report-json`` carries each
campaign's duration and fault-kind counts.  Everything here is
deterministic given the seed *except* scheduling interleavings — which
is the point: the invariants must hold across interleavings, and CI
runs many seeds.
"""

from __future__ import annotations

import json
import random
import signal
import tempfile
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core.volume import ellipsoid_volume, simulate_volume_scan
from repro.ct import build_system_matrix, scaled_geometry, shepp_logan, simulate_scan
from repro.io import arm_disk_fault, disarm_disk_fault, save_scan, save_volume_scan
from repro.service.http import HttpGateway
from repro.service.jobs import JobSpec, JobState
from repro.service.queue import QueueClosedError
from repro.service.runner import run_job
from repro.service.service import ReconstructionService

__all__ = [
    "FAULT_KINDS",
    "ChaosJob",
    "ChaosPlan",
    "CampaignResult",
    "run_campaign",
    "run_campaigns",
    "summarize",
]

#: Fault kinds a planned job draws from (uniformly, by the plan's RNG).
FAULT_KINDS = (
    "none",
    "dup",
    "cancel",
    "ckpt_fault",
    "cache_fault",
    "kill",
    "hang",
    "result_out",
)

_TERMINAL_KINDS = frozenset(s.value for s in (JobState.DONE, JobState.FAILED, JobState.CANCELLED))

# Campaigns reuse one small scan and one 2-slice volume (16^2, fixed
# seeds) — chaos exercises the service's fault domains, not the numerics,
# and shared inputs let the per-spec reference reconstructions amortise
# across every campaign.
_SCAN_LOCK = threading.Lock()
_INPUTS = None
_REFERENCES: dict[str, np.ndarray] = {}
#: What each campaign's shard group runs per slice.
GROUP_PARAMS = {"max_equits": 3.0, "seed": 0, "track_cost": False}


def _campaign_inputs():
    """The campaign scan and the campaign volume's per-slice scans."""
    global _INPUTS
    with _SCAN_LOCK:
        if _INPUTS is None:
            system = build_system_matrix(scaled_geometry(16))
            _INPUTS = (
                simulate_scan(shepp_logan(16), system, dose=1e5, seed=7),
                simulate_volume_scan(ellipsoid_volume(2, 16, seed=7), system, seed=7),
            )
        return _INPUTS


def _reference_image(params: dict[str, Any], slice_index: int | None = None) -> np.ndarray:
    """Uninterrupted single-process reconstruction for ``params`` (cached)
    of the campaign scan, or of one slice of the campaign volume."""
    key = json.dumps([slice_index, params], sort_keys=True)
    with _SCAN_LOCK:
        cached = _REFERENCES.get(key)
    if cached is not None:
        return cached
    scan, volume = _campaign_inputs()
    if slice_index is not None:
        scan = volume[slice_index]
    with tempfile.TemporaryDirectory(prefix="chaos-ref-") as tmp:
        result = run_job(
            JobSpec(driver="icd", scan=scan, params=dict(params)),
            checkpoint_dir=Path(tmp) / "checkpoints",
        )
    image = np.array(result.image, copy=True)
    with _SCAN_LOCK:
        _REFERENCES.setdefault(key, image)
    return image


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChaosJob:
    """One planned submission: its spec ingredients plus the fault to arm."""

    index: int
    job_id: str
    kind: str
    params: dict[str, Any]
    fault: dict[str, Any] | None = None
    via_http: bool = False


@dataclass(frozen=True)
class ChaosPlan:
    """A seeded campaign plan: the jobs plus the campaign-level coin flips."""

    seed: int
    jobs: tuple[ChaosJob, ...]
    evict_after_drain: bool
    close_race_submissions: int
    cancel_group: bool = False

    @classmethod
    def generate(cls, seed: int, *, n_jobs: int = 6) -> "ChaosPlan":
        """Deterministically expand ``seed`` into a full campaign plan.

        Job 0 is always clean — it is the dedup target and anchors the
        bit-identity baseline inside the campaign itself.
        """
        if n_jobs < 2:
            raise ValueError(f"n_jobs must be >= 2, got {n_jobs}")
        rng = random.Random(seed)
        jobs: list[ChaosJob] = []
        for i in range(n_jobs):
            kind = "none" if i == 0 else rng.choice(FAULT_KINDS)
            # >= 3 iterations so kill/hang at iteration 2 always fires and
            # always leaves a checkpoint to resume from.
            params: dict[str, Any] = {
                "max_equits": float(rng.choice((3.0, 4.0))),
                "seed": rng.choice((0, 1, 2)),
                "track_cost": False,
            }
            fault = None
            if kind == "dup":
                params = dict(jobs[0].params)
            elif kind in ("kill", "hang", "ckpt_fault", "result_out"):
                # A faulted job whose params collide with an already-DONE
                # job is (correctly) served from the dedup cache and never
                # runs — its fault never fires.  Unique seed → unique
                # cache key → the injection is guaranteed to execute.
                params["seed"] = 100 + i
            if kind == "kill":
                fault = {"kill_at_iteration": 2}
            elif kind == "hang":
                fault = {"kill_at_iteration": 2, "signal": int(signal.SIGSTOP)}
            jobs.append(
                ChaosJob(
                    index=i,
                    job_id=f"chaos-{seed}-{i:02d}",
                    kind=kind,
                    params=params,
                    fault=fault,
                    # The gateway has no fault-spec field (faults are a
                    # test-only hook), and sentinel/cancel jobs need
                    # in-process callbacks — clean jobs go over HTTP so
                    # every campaign exercises the network edge too.
                    via_http=kind in ("none", "dup"),
                )
            )
        # Keyword arguments evaluate in order: the group's coin is drawn
        # after every older draw, so a seed keeps its job plan.
        return cls(
            seed=seed,
            jobs=tuple(jobs),
            evict_after_drain=rng.random() < 0.5,
            close_race_submissions=rng.choice((0, 2, 3)),
            cancel_group=rng.random() < 0.5,
        )


# ----------------------------------------------------------------------
# Campaign execution
# ----------------------------------------------------------------------
@dataclass
class CampaignResult:
    """What one campaign did and every invariant violation it found."""

    seed: int
    n_jobs: int
    duration_s: float = 0.0
    violations: list[str] = field(default_factory=list)
    job_states: dict[str, str] = field(default_factory=dict)
    group_state: str | None = None
    kind_counts: dict[str, int] = field(default_factory=dict)
    http_codes: dict[str, int] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "n_jobs": self.n_jobs,
            "duration_s": round(self.duration_s, 3),
            "ok": self.ok,
            "violations": list(self.violations),
            "job_states": dict(self.job_states),
            "group_state": self.group_state,
            "kind_counts": dict(self.kind_counts),
            "http_codes": dict(self.http_codes),
            "counters": dict(self.counters),
        }


def _http(
    base_url: str, method: str, path: str, body: dict | None = None, timeout: float = 30.0
) -> tuple[int, bytes]:
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        base_url.rstrip("/") + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, exc.read()


def run_campaign(
    plan: ChaosPlan,
    *,
    root: str | Path | None = None,
    drain_timeout_s: float = 180.0,
) -> CampaignResult:
    """Execute one campaign plan against a real service + gateway.

    Returns a :class:`CampaignResult`; ``result.ok`` is the verdict.  The
    campaign never raises for an invariant violation — violations are
    *data* (the CLI and CI turn them into exit codes) — but programming
    errors inside the harness itself do propagate.
    """
    res = CampaignResult(seed=plan.seed, n_jobs=len(plan.jobs))
    for planned in plan.jobs:
        res.kind_counts[planned.kind] = res.kind_counts.get(planned.kind, 0) + 1
    started = time.monotonic()
    tmp = None
    if root is None:
        tmp = tempfile.TemporaryDirectory(prefix="chaos-")
        root = tmp.name
    root = Path(root)
    scan, volume = _campaign_inputs()
    scan_dir = root / "scans"
    scan_dir.mkdir(parents=True, exist_ok=True)
    save_scan(scan_dir / "scan.npz", scan)
    save_volume_scan(scan_dir / "volume.npz", volume)
    group_id = f"chaos-{plan.seed}-grp"
    ckpt_root = root / "ckpts"
    cache_dir = root / "cache"

    def violate(msg: str) -> None:
        res.violations.append(msg)

    def checked_http(method: str, path: str, body: dict | None = None) -> tuple[int, bytes]:
        code, payload = _http(gw.url, method, path, body)
        res.http_codes[str(code)] = res.http_codes.get(str(code), 0) + 1
        if code >= 500:
            violate(f"gateway answered {code} on {method} {path}: {payload[:120]!r}")
        return code, payload

    service = ReconstructionService(
        n_workers=2,
        max_restarts=3,
        # Tight enough that a SIGSTOPped worker is caught in-campaign,
        # loose enough that a CI-loaded box doesn't false-positive.
        heartbeat_timeout_s=1.0,
        checkpoint_root=ckpt_root,
        cache_dir=cache_dir,
        checkpoint_every=1,
    )
    gw = HttpGateway(service, scan_root=scan_dir).start()
    cache_faulted = any(j.kind == "cache_fault" for j in plan.jobs)
    try:
        if cache_faulted:
            arm_disk_fault(cache_dir)
        for planned in plan.jobs:
            if planned.kind == "ckpt_fault":
                arm_disk_fault(ckpt_root / planned.job_id / "checkpoints")
            elif planned.kind == "result_out":
                arm_disk_fault(ckpt_root / planned.job_id)
            on_progress = None
            if planned.kind == "ckpt_fault":
                ckpt_dir = ckpt_root / planned.job_id / "checkpoints"

                # Checkpoint saves run *after* the iteration span closes
                # (ResilienceHooks.after_iteration), so iteration 1's
                # event precedes iteration 1's save: disarming from
                # iteration 2 guarantees the first save hits the fault
                # and a later save observes the recovery.
                def on_progress(event, _dir=ckpt_dir):
                    if event.kind == "iteration" and event.iteration >= 2:
                        disarm_disk_fault(_dir)

            if planned.via_http:
                code, payload = checked_http(
                    "POST",
                    "/jobs",
                    {
                        "driver": "icd",
                        "scan": "scan.npz",
                        "params": planned.params,
                        "job_id": planned.job_id,
                    },
                )
                if code != 201:
                    violate(
                        f"{planned.job_id} ({planned.kind}): HTTP submit -> {code}"
                    )
                    continue
            else:
                spec = JobSpec(
                    driver="icd",
                    scan=scan,
                    params=dict(planned.params),
                    job_id=planned.job_id,
                    fault=dict(planned.fault) if planned.fault else None,
                )
                service.submit(spec, on_progress=on_progress)
            if planned.kind == "cancel":
                service.cancel(planned.job_id)

        body = {"driver": "icd", "scan": "volume.npz", "params": GROUP_PARAMS,
                "shards": {"mode": "slices"}, "job_id": group_id}
        group_submitted = checked_http("POST", "/jobs", body)[0] == 201
        if not group_submitted:
            violate(f"{group_id} (group): HTTP submit refused")
        elif plan.cancel_group and checked_http("DELETE", f"/jobs/{group_id}")[0] != 202:
            violate(f"{group_id} (group): DELETE refused")

        if not service.drain(timeout=drain_timeout_s):
            violate(f"drain did not finish within {drain_timeout_s:g}s")

        # -- per-job invariants ----------------------------------------
        for planned in plan.jobs:
            job = service.job(planned.job_id)
            res.job_states[planned.job_id] = job.state.value
            label = f"{planned.job_id} ({planned.kind})"
            if not job.terminal:
                violate(f"{label}: not terminal after drain ({job.state.value})")
                continue
            terminal_events = [e for e in job.events if e.kind in _TERMINAL_KINDS]
            if len(terminal_events) != 1:
                violate(
                    f"{label}: {len(terminal_events)} terminal events "
                    f"({[e.kind for e in terminal_events]})"
                )
            event_kinds = {e.kind for e in job.events}
            if planned.kind == "result_out":
                if job.state is not JobState.FAILED:
                    violate(f"{label}: expected FAILED, got {job.state.value}")
                elif "ResultPersistError" not in (job.error or ""):
                    violate(f"{label}: FAILED without typed error: {job.error!r}")
                continue
            if planned.kind == "cancel":
                if job.state not in (JobState.CANCELLED, JobState.DONE):
                    violate(f"{label}: expected CANCELLED/DONE, got {job.state.value}")
            elif job.state is not JobState.DONE:
                violate(
                    f"{label}: expected DONE, got {job.state.value} ({job.error!r})"
                )
            if planned.kind == "kill" and "WORKER_CRASHED" not in event_kinds:
                violate(f"{label}: SIGKILL left no WORKER_CRASHED event")
            if planned.kind == "hang":
                hung = [e for e in job.events if e.kind == "WORKER_HUNG"]
                if not hung:
                    violate(f"{label}: SIGSTOP left no WORKER_HUNG event")
                elif hung[0].detail.get("reason") != "heartbeat_timeout":
                    violate(f"{label}: WORKER_HUNG reason {hung[0].detail!r}")
            if planned.kind == "ckpt_fault" and "CHECKPOINT_DEGRADED" not in event_kinds:
                violate(f"{label}: disk fault left no CHECKPOINT_DEGRADED event")
            if job.state is JobState.DONE and job.result is not None:
                reference = _reference_image(planned.params)
                if not np.array_equal(np.asarray(job.result.image), reference):
                    violate(f"{label}: DONE image not bit-identical to reference")

        if group_submitted:
            _check_group(service, group_id, plan.cancel_group, res, violate)

        if cache_faulted and service.cache.disk_write_failures < 1:
            violate("cache_fault campaign recorded no cache disk_write_failures")

        # -- gateway reads: statuses, health, metrics ------------------
        read_ids = [p.job_id for p in plan.jobs] + ([group_id] if group_submitted else [])
        for job_id in read_ids:
            code, _ = checked_http("GET", f"/jobs/{job_id}")
            if code != 200:
                violate(f"{job_id}: status read -> {code}")
        done_http = [
            p
            for p in plan.jobs
            if res.job_states.get(p.job_id) == "DONE" and p.kind != "cancel"
        ]
        fetch_ids = [p.job_id for p in done_http[:2]]
        if res.group_state == "DONE":
            fetch_ids.append(group_id)
        for job_id in fetch_ids:
            code, payload = checked_http("GET", f"/jobs/{job_id}/result")
            if code != 200 or not payload:
                violate(f"{job_id}: result fetch -> {code}, {len(payload)}B")
        code, payload = checked_http("GET", "/healthz")
        try:
            health = json.loads(payload)
        except ValueError:
            health = None
        if code != 200 or not isinstance(health, dict) or health.get("status") not in (
            "ok",
            "degraded",
        ):
            violate(f"healthz -> {code}: {payload[:120]!r}")
        code, _ = checked_http("GET", "/metrics")
        if code != 200:
            violate(f"metrics -> {code}")

        # -- campaign-level injections ---------------------------------
        if plan.evict_after_drain:
            evicted = service.evict_terminal(older_than_s=0.0)
            for job_id in evicted[:1] + [group_id]:  # one job and the group
                code, _ = checked_http("GET", f"/jobs/{job_id}")
                if job_id in evicted and code != 410:
                    violate(f"evicted id {job_id} answered {code}, want 410")
        report = service.report()
        res.counters = {
            k: int(v)
            for k, v in report["counters"].items()
            if k.startswith("service.")
        }
        if res.counters.get("service.tombstones", 0) > 10_000:
            violate("tombstone set unbounded")

        # Close race: submissions concurrent with close() must land or
        # fail typed — never raise anything else, never corrupt state.
        race_errors: list[str] = []
        race_ids: list[str] = []

        def racer() -> None:
            for i in range(plan.close_race_submissions):
                spec = JobSpec(
                    driver="icd",
                    scan=scan,
                    params={"max_equits": 1.0, "seed": 0, "track_cost": False},
                    job_id=f"chaos-{plan.seed}-late-{i}",
                )
                try:
                    race_ids.append(service.submit(spec))
                except (QueueClosedError, RuntimeError):
                    pass
                except Exception as exc:  # noqa: BLE001 — the invariant
                    race_errors.append(f"close-race submit raised {exc!r}")

        racer_thread = threading.Thread(target=racer)
        racer_thread.start()
        service.close()
        racer_thread.join(timeout=30)
        res.violations.extend(race_errors)
        for job_id in race_ids:
            job = service.job(job_id)
            if not job.terminal and job.state is not JobState.PENDING:
                violate(
                    f"close-race job {job_id} neither terminal nor PENDING "
                    f"({job.state.value})"
                )
    finally:
        disarm_disk_fault(cache_dir)
        gw.close()
        service.close()
        if tmp is not None:
            tmp.cleanup()
    res.duration_s = time.monotonic() - started
    return res


def _check_group(service, group_id, cancelled, res, violate) -> None:
    """The shard group's invariants after the drain."""
    group = service.job(group_id)
    res.group_state = group.state.value
    label = f"{group_id} (group)"
    for job in [group] + [service.job(cid) for cid in group.child_ids]:
        terminal = [e.kind for e in job.events if e.kind in _TERMINAL_KINDS]
        if len(terminal) != 1:
            violate(f"{label}: {job.job_id} has terminal events {terminal}")
    legal = ("CANCELLED", "DONE") if cancelled else ("DONE",)
    if res.group_state not in legal:
        violate(f"{label}: expected {'/'.join(legal)}, got {res.group_state} ({group.error!r})")
    if group.state is JobState.DONE:
        for k, image in enumerate(group.result.image):
            if not np.array_equal(image, _reference_image(GROUP_PARAMS, k)):
                violate(f"{label}: DONE slice {k} not bit-identical to reference")


def run_campaigns(
    campaigns: int,
    *,
    seed: int = 0,
    n_jobs: int = 6,
    progress: Callable[[str], None] | None = None,
) -> list[CampaignResult]:
    """Run ``campaigns`` seeded campaigns.

    Campaign ``i`` uses seed ``seed + i``, so one ``--campaigns 20`` run
    covers 20 distinct fault mixes.
    """
    if campaigns < 1:
        raise ValueError(f"campaigns must be >= 1, got {campaigns}")
    results: list[CampaignResult] = []
    for i in range(campaigns):
        plan = ChaosPlan.generate(seed + i, n_jobs=n_jobs)
        result = run_campaign(plan)
        results.append(result)
        if progress is not None:
            verdict = "ok" if result.ok else f"{len(result.violations)} VIOLATIONS"
            progress(
                f"campaign seed={plan.seed} jobs={result.n_jobs} "
                f"{result.duration_s:.2f}s -> {verdict}"
            )
    return results


def summarize(results: list[CampaignResult]) -> dict[str, Any]:
    """Aggregate campaign results into the CLI/CI report document."""
    violations = [v for r in results for v in r.violations]
    kind_counts: dict[str, int] = {}
    for r in results:
        for kind, n in r.kind_counts.items():
            kind_counts[kind] = kind_counts.get(kind, 0) + n
    return {
        "campaigns": len(results),
        "ok": not violations,
        "violations": violations,
        "total_jobs": sum(r.n_jobs for r in results),
        "kind_counts": kind_counts,
        "total_duration_s": round(sum(r.duration_s for r in results), 3),
        "by_campaign": [r.to_dict() for r in results],
    }
