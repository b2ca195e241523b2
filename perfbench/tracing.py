"""Spans recorded from outside the program, around calls into its layers.

A :class:`Tracer` replaces a function where its caller looks it up with a
wrapper that records one span per call: name, start and end on the wall
clock (shared by every process on the host), self time (duration minus
the spans it encloses on the same thread), the job it served, and an
optional byte count.  Spans stay in memory; :meth:`Tracer.dump` writes
them as JSON lines when the process is done.  After a fork the child
starts with an empty list, so each process writes only its own spans.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans.clear()
        self._local = threading.local()

    # -- context ----------------------------------------------------------
    @property
    def job(self) -> str | None:
        return getattr(self._local, "job", None)

    @job.setter
    def job(self, job_id: str | None) -> None:
        self._local.job = job_id

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording --------------------------------------------------------
    def wrap(self, name: str, fn, *, size=None, job_of=None):
        """``fn`` wrapped to record a ``name`` span per call.

        ``size(args, kwargs, result)`` returns a byte count for the span;
        ``job_of(args, kwargs)`` names the job when the thread has none.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            stack.append([0.0])
            start = time.time()
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = time.perf_counter() - t0
                (children,) = stack.pop()
                if stack:
                    stack[-1][0] += dur
                job = self.job
                if job is None and job_of is not None:
                    job = job_of(args, kwargs)
                span = {
                    "name": name, "start": start, "dur": dur, "self": dur - children,
                    "job": job, "pid": os.getpid(), "depth": len(stack),
                }
                if size is not None:
                    try:
                        span["bytes"] = int(size(args, kwargs, result))
                    except (OSError, TypeError, ValueError):
                        pass
                self.spans.append(span)

        return traced

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        """Replace ``owner.attr`` (a module or class) with its traced wrapper."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kw))

    def dump(self, directory: Path) -> Path:
        path = Path(directory) / f"spans-{os.getpid()}.jsonl"
        with open(path, "a") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
        self.spans.clear()
        return path


def load_spans(directory: Path) -> list[dict]:
    spans = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with open(path) as f:
            spans.extend(json.loads(line) for line in f if line.strip())
    return spans


def by_name(spans) -> dict[str, list[dict]]:
    out = defaultdict(list)
    for s in spans:
        out[s["name"]].append(s)
    return out


def by_job(spans) -> dict[str, list[dict]]:
    out = defaultdict(list)
    for s in spans:
        if s.get("job"):
            out[s["job"]].append(s)
    return out


def driver_of(job_spans) -> dict | None:
    """A job's driver-call span, recorded in its worker."""
    return next((s for s in job_spans if s["name"].startswith("core.")), None)


def job_parts(snap: dict, job_spans) -> dict:
    """One job's time from submission to ``finished_at``, as measured
    intervals: queue wait, worker start (to ``run_job`` entry), job set-up
    (to driver entry), the driver call, and the job's result saves and
    loads between the driver's return and ``finished_at``; a cache hit has
    only its cache reads.  What they leave out is unattributed."""
    driver = driver_of(job_spans)
    end = snap["finished_at"]
    if driver is None:
        return {"cache read": sum(
            s["dur"] for s in job_spans if s["name"] == "service.cache_get" and s["start"] < end)}
    run_job = next((s for s in job_spans if s["name"] == "service.run_job"), None)
    entered = run_job["start"] if run_job is not None else driver["start"]
    returned = driver["start"] + driver["dur"]
    return {
        "queue wait": snap["started_at"] - snap["submitted_at"],
        "worker start": entered - snap["started_at"],
        "job set-up": driver["start"] - entered,
        "driver": driver["dur"],
        # The gateway's spool of the HTTP result also carries the job id;
        # it runs after ``finished_at``, inside the client's download.
        "result save + load": sum(
            s["dur"] for s in job_spans
            if s["name"] in ("io.result_save", "io.result_load") and returned <= s["start"] < end),
    }


def service_layers(spans, snaps) -> dict:
    """Per-layer figures of a traced server, over the jobs whose status
    snapshots are ``snaps`` (medians unless named as a count)."""
    from common import median

    names = by_name(spans)
    jobs = by_job(spans)
    ran = [(snap, driver_of(jobs.get(snap["job_id"], ()))) for snap in snaps]
    ran = [(snap, d) for snap, d in ran if d is not None]
    saves = names.get("resilience.checkpoint_save", [])
    results = names.get("io.result_save", [])
    return {
        "ct.system_matrix_build_s": median(s["dur"] for s in names.get("ct.system_matrix_build", [])),
        "io.scan_load_s": median(s["dur"] for s in names.get("io.scan_load", [])),
        "io.result_save_s": median(s["dur"] for s in results),
        "io.result_bytes": median(s.get("bytes", 0) for s in results),
        "resilience.checkpoint_save_s": median(s["dur"] for s in saves),
        "resilience.checkpoint_bytes": median(s.get("bytes", 0) for s in saves),
        "resilience.checkpoint_saves_per_job": len(saves) / max(1, len(ran)),
        "service.driver_s": median(d["dur"] for _, d in ran),
        "service.worker_start_s": median(d["start"] - snap["started_at"] for snap, d in ran),
        "service.overhead_s": median(
            snap["finished_at"] - snap["started_at"] - d["dur"] for snap, d in ran),
    }
