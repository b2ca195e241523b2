"""Load generation against the HTTP gateway: closed- and open-loop.

Following the load-profile + metrics-capture methodology of the service
benchmarking literature (PAPERS.md), two canonical load shapes:

**closed loop** (``mode="closed"``)
    ``concurrency`` client threads each run submit → poll status → fetch
    result → next job, so offered load adapts to service speed.  Measures
    sustainable throughput and latency under a fixed multiprogramming
    level — a 429 here is retried after its ``Retry-After``, because a
    closed-loop client *wants* the job to land.

**open loop** (``mode="open"``)
    Submissions fire at a fixed arrival ``rate`` (jobs/sec) from a
    scheduler thread regardless of completions — the shape that exposes
    queueing collapse.  A 429 is recorded and **dropped** (no retry): the
    arrival process must not stall on backpressure, and the 429 *rate* is
    the measurement.

Every job contributes one :class:`JobRecord`; the :class:`LoadReport`
aggregates p50/p95/p99 end-to-end latency (submit → terminal observed),
achieved throughput, per-status-code counts, the 429 rate, 5xx count, and
SLO violations (jobs whose latency exceeded ``slo_s``).

The measurement path is standard library only (``urllib`` + ``time``);
NumPy never touches it.  Closed-loop 429 retries back off with
*decorrelated jitter* (:func:`repro.service.faults.next_backoff`) floored
at the server's ``Retry-After`` hint, so a thundering herd of rejected
clients does not re-collide in lockstep.  ``python -m repro loadtest`` is
the CLI.
"""

from __future__ import annotations

import json
import random
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.service.faults import next_backoff

__all__ = ["JobRecord", "LoadReport", "default_spec_factory", "run_load"]


# ----------------------------------------------------------------------
# HTTP plumbing (stdlib only)
# ----------------------------------------------------------------------
def _request(
    base_url: str,
    method: str,
    path: str,
    body: dict[str, Any] | None = None,
    timeout: float = 30.0,
) -> tuple[int, dict[str, str], bytes]:
    """One HTTP exchange; returns (status, headers, body bytes).

    4xx/5xx come back as ordinary return values, not exceptions — the load
    generator's whole job is to count them.
    """
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        base_url.rstrip("/") + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, dict(exc.headers), exc.read()


def _percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated percentile of an already-sorted list."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


# ----------------------------------------------------------------------
# Records and the report
# ----------------------------------------------------------------------
@dataclass
class JobRecord:
    """One load-generated submission's fate."""

    index: int
    priority: int
    submit_code: int  # HTTP status of the (final) submission attempt
    job_id: str | None = None
    rejected_429: int = 0  # number of 429s this job saw
    submitted_at: float | None = None  # monotonic, after acceptance
    finished_at: float | None = None  # monotonic, terminal observed
    terminal_state: str | None = None
    result_code: int | None = None  # GET .../result status, when fetched
    result_bytes: int = 0
    error: str | None = None

    @property
    def latency_s(self) -> float | None:
        """End-to-end submit→terminal latency (None if never finished)."""
        if self.submitted_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at


@dataclass
class LoadReport:
    """Aggregated outcome of one load run (``loadtest --report-json``)."""

    mode: str
    n_jobs: int
    duration_s: float
    offered_rate_jobs_per_s: float | None
    records: list[JobRecord] = field(default_factory=list)
    slo_s: float | None = None

    # -- derived ---------------------------------------------------------
    @property
    def completed(self) -> list[JobRecord]:
        return [r for r in self.records if r.terminal_state == "DONE"]

    @property
    def latencies_s(self) -> list[float]:
        return sorted(
            r.latency_s for r in self.records if r.latency_s is not None
        )

    def status_counts(self) -> dict[str, int]:
        """Submission-attempt HTTP status tallies (429s counted per retry)."""
        counts: dict[str, int] = {}
        for r in self.records:
            counts[str(r.submit_code)] = counts.get(str(r.submit_code), 0) + 1
            if r.rejected_429 and r.submit_code != 429:
                # closed-loop retries: rejections that eventually succeeded
                counts["429"] = counts.get("429", 0) + r.rejected_429
        return counts

    @property
    def rejected_429(self) -> int:
        return sum(r.rejected_429 for r in self.records) + sum(
            1 for r in self.records if r.submit_code == 429 and not r.rejected_429
        )

    @property
    def server_errors_5xx(self) -> int:
        n = sum(1 for r in self.records if r.submit_code >= 500)
        n += sum(1 for r in self.records if (r.result_code or 0) >= 500)
        return n

    @property
    def slo_violations(self) -> int:
        if self.slo_s is None:
            return 0
        return sum(1 for lat in self.latencies_s if lat > self.slo_s)

    def to_dict(self) -> dict[str, Any]:
        lat = self.latencies_s
        completed = self.completed
        accepted = [r for r in self.records if r.job_id is not None]
        return {
            "mode": self.mode,
            "n_jobs": self.n_jobs,
            "duration_s": round(self.duration_s, 4),
            "offered_rate_jobs_per_s": self.offered_rate_jobs_per_s,
            "accepted": len(accepted),
            "completed": len(completed),
            "throughput_jobs_per_s": round(
                len(completed) / self.duration_s, 3
            )
            if self.duration_s > 0
            else 0.0,
            "latency": {
                "p50_s": round(_percentile(lat, 0.50), 4),
                "p95_s": round(_percentile(lat, 0.95), 4),
                "p99_s": round(_percentile(lat, 0.99), 4),
                "mean_s": round(sum(lat) / len(lat), 4) if lat else 0.0,
                "max_s": round(lat[-1], 4) if lat else 0.0,
            },
            "status_counts": self.status_counts(),
            "rejected_429": self.rejected_429,
            "rejected_429_rate": round(self.rejected_429 / self.n_jobs, 4)
            if self.n_jobs
            else 0.0,
            "server_errors_5xx": self.server_errors_5xx,
            "slo_s": self.slo_s,
            "slo_violations": self.slo_violations,
            "from_cache": sum(
                1 for r in self.records if r.terminal_state == "DONE" and r.result_bytes
            ),
        }

    def format(self) -> str:
        d = self.to_dict()
        lines = [
            f"{self.mode}-loop: {d['completed']}/{self.n_jobs} jobs in "
            f"{d['duration_s']:.2f}s -> {d['throughput_jobs_per_s']:.2f} jobs/s",
            f"  latency p50 {d['latency']['p50_s']:.3f}s  "
            f"p95 {d['latency']['p95_s']:.3f}s  p99 {d['latency']['p99_s']:.3f}s",
            f"  429s {d['rejected_429']} ({100 * d['rejected_429_rate']:.1f}% of jobs)"
            f"  5xx {d['server_errors_5xx']}"
            + (
                f"  SLO>{self.slo_s:g}s violations {d['slo_violations']}"
                if self.slo_s is not None
                else ""
            ),
        ]
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The generator
# ----------------------------------------------------------------------
def default_spec_factory(
    *,
    driver: str = "icd",
    scan: str = "scan.npz",
    params: dict[str, Any] | None = None,
    priorities: tuple[int, ...] = (0, 1, 2),
    distinct_seeds: int = 0,
) -> Callable[[int], dict[str, Any]]:
    """A submission-body factory cycling priorities (and optionally seeds).

    ``distinct_seeds=K > 0`` spreads ``seed`` over ``i % K`` so a long run
    exercises both fresh reconstructions and content-addressed dedup hits;
    ``0`` leaves the seed to the caller-supplied ``params``.
    """
    base = dict(params or {})

    def factory(i: int) -> dict[str, Any]:
        p = dict(base)
        if distinct_seeds > 0:
            p["seed"] = i % distinct_seeds
        return {
            "driver": driver,
            "scan": scan,
            "params": p,
            "priority": priorities[i % len(priorities)],
        }

    return factory


def _await_terminal(
    base_url: str,
    record: JobRecord,
    *,
    poll_s: float,
    deadline: float,
    request_timeout_s: float,
    fetch_result: bool,
) -> None:
    """Poll one accepted job to a terminal state; optionally fetch bytes."""
    terminal = {"DONE", "FAILED", "CANCELLED"}
    while time.monotonic() < deadline:
        code, _, body = _request(
            base_url, "GET", f"/jobs/{record.job_id}", timeout=request_timeout_s
        )
        if code == 200:
            state = json.loads(body)["state"]
            if state in terminal:
                record.finished_at = time.monotonic()
                record.terminal_state = state
                break
        else:
            record.error = f"status poll -> {code}"
            return
        time.sleep(poll_s)
    else:
        record.error = "drain deadline hit before terminal"
        return
    if fetch_result and record.terminal_state == "DONE":
        code, _, body = _request(
            base_url,
            "GET",
            f"/jobs/{record.job_id}/result",
            timeout=request_timeout_s,
        )
        record.result_code = code
        if code == 200:
            record.result_bytes = len(body)


def run_load(
    base_url: str,
    *,
    mode: str = "closed",
    n_jobs: int = 50,
    rate: float | None = None,
    concurrency: int = 4,
    spec_factory: Callable[[int], dict[str, Any]] | None = None,
    slo_s: float | None = None,
    poll_s: float = 0.02,
    request_timeout_s: float = 30.0,
    drain_timeout_s: float = 600.0,
    fetch_results: bool = True,
    max_submit_retries: int = 50,
) -> LoadReport:
    """Drive ``n_jobs`` submissions at the gateway; returns the report.

    ``mode="closed"`` runs ``concurrency`` submit→poll→fetch client loops;
    ``mode="open"`` fires submissions at ``rate`` jobs/sec (required) and
    polls accepted jobs on ``concurrency`` watcher threads.
    """
    if mode not in ("closed", "open"):
        raise ValueError(f"mode must be 'closed' or 'open', got {mode!r}")
    if mode == "open" and (rate is None or rate <= 0):
        raise ValueError("open-loop mode requires a positive rate")
    factory = spec_factory or default_spec_factory()
    records = [JobRecord(index=i, priority=0, submit_code=0) for i in range(n_jobs)]
    t0 = time.monotonic()
    deadline = t0 + drain_timeout_s

    def submit(record: JobRecord, *, retry_429: bool) -> bool:
        """POST one job; True once accepted.  Closed loops retry 429s.

        Retries back off with decorrelated jitter (seeded per record, so a
        run is reproducible): the server's ``Retry-After`` is the floor, but
        ``concurrency`` clients sleeping the *same* literal hint would wake
        in lockstep and re-collide on the admission gate.
        """
        body = factory(record.index)
        record.priority = int(body.get("priority", 0))
        rng = random.Random(record.index)
        delay: float | None = None
        while True:
            code, headers, payload = _request(
                base_url, "POST", "/jobs", body, timeout=request_timeout_s
            )
            record.submit_code = code
            if code == 201:
                record.job_id = json.loads(payload)["job_id"]
                record.submitted_at = time.monotonic()
                return True
            if code == 429:
                record.rejected_429 += 1
                if not retry_429 or record.rejected_429 > max_submit_retries:
                    return False
                retry_after = float(headers.get("Retry-After") or poll_s)
                delay = next_backoff(
                    delay if delay is not None else retry_after,
                    base_s=retry_after,
                    cap_s=5.0,
                    rng=rng,
                )
                if time.monotonic() + delay >= deadline:
                    return False
                time.sleep(delay)
                continue
            record.error = f"submit -> {code}: {payload[:200]!r}"
            return False

    if mode == "closed":
        cursor = iter(range(n_jobs))
        cursor_lock = threading.Lock()

        def client() -> None:
            while True:
                with cursor_lock:
                    i = next(cursor, None)
                if i is None:
                    return
                record = records[i]
                if submit(record, retry_429=True):
                    _await_terminal(
                        base_url,
                        record,
                        poll_s=poll_s,
                        deadline=deadline,
                        request_timeout_s=request_timeout_s,
                        fetch_result=fetch_results,
                    )

        threads = [
            threading.Thread(target=client, name=f"loadgen-{t}", daemon=True)
            for t in range(max(1, concurrency))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    else:
        # Open loop: one arrival scheduler, a pool of completion watchers.
        accepted: list[JobRecord] = []
        accepted_lock = threading.Lock()
        arrivals_done = threading.Event()

        def arrivals() -> None:
            for i in range(n_jobs):
                target = t0 + i / rate
                delay = target - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                record = records[i]
                if submit(record, retry_429=False):
                    with accepted_lock:
                        accepted.append(record)
            arrivals_done.set()

        def watcher() -> None:
            while True:
                with accepted_lock:
                    record = accepted.pop() if accepted else None
                if record is None:
                    if arrivals_done.is_set():
                        with accepted_lock:
                            if not accepted:
                                return
                        continue
                    time.sleep(poll_s)
                    continue
                _await_terminal(
                    base_url,
                    record,
                    poll_s=poll_s,
                    deadline=deadline,
                    request_timeout_s=request_timeout_s,
                    fetch_result=fetch_results,
                )

        threads = [threading.Thread(target=arrivals, name="loadgen-arrivals", daemon=True)]
        threads += [
            threading.Thread(target=watcher, name=f"loadgen-watch-{t}", daemon=True)
            for t in range(max(1, concurrency))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    return LoadReport(
        mode=mode,
        n_jobs=n_jobs,
        duration_s=time.monotonic() - t0,
        offered_rate_jobs_per_s=rate,
        records=records,
        slo_s=slo_s,
    )
