"""HTTP gateway: a REST front end on :class:`ReconstructionService`.

The job service (DESIGN.md §12) was in-process / file-protocol only; this
module makes it network-facing with nothing but the standard library —
:class:`http.server.ThreadingHTTPServer` spawns one handler thread per
request, so submissions, status polls, result fetches, and cancels all hit
the service concurrently.  That is exactly the multi-writer workload that
motivated the PR-7 concurrency fixes underneath: the queue's deadline-aware
wait loop, the intake quarantine, and the thread-safe
:class:`~repro.observability.MetricsRecorder` a gateway shares across
request handlers and Scheduler workers (DESIGN.md §14).

Endpoints (all JSON unless noted):

========  ======================  =============================================
method    path                    behaviour
========  ======================  =============================================
POST      ``/jobs``               submit ``{"driver", "scan", "params",
                                  "priority", "job_id"?}`` → 201 + job id;
                                  429 + ``Retry-After`` when admission control
                                  rejects (queue full); 400 malformed or
                                  refused params (``runner.job_params``);
                                  409 id held by an active job or group;
                                  503 + ``Retry-After`` closed/closing service.
                                  An optional ``"shards"`` object turns the
                                  submission into a *shard group*
                                  (:mod:`repro.multires.shards`), itself a
                                  job: ``{"mode": "slices"}`` fans a
                                  volume-scan file
                                  (``repro.io.save_volume_scan``) out as one
                                  child per slice; ``{"mode": "rows",
                                  "n_shards", "halo"?, "rounds"?,
                                  "sweeps_per_round"?}`` runs one oversized
                                  slice as halo-exchanged row stripes.  The
                                  201 body adds ``"group": true``; bad
                                  shards/params → 400
GET       ``/jobs/<id>``          status snapshot (404 unknown, 410 evicted);
                                  a group's adds its child count/progress/
                                  rounds and child ids
GET       ``/jobs/<id>/result``   the reconstruction as ``result.npz`` bytes
                                  (``application/octet-stream``); optional
                                  ``?timeout=S`` blocks for a finish; 409 +
                                  ``Retry-After`` while PENDING/RUNNING,
                                  410 if CANCELLED, 500 if FAILED.  A
                                  group's is the *stitched* volume
DELETE    ``/jobs/<id>``          request cancellation → 202 (404 unknown);
                                  a group cancels every child too
GET       ``/metrics``            Prometheus text format: every recorder
                                  counter + span total, plus live gauges
                                  (queue depth, known jobs, tombstones,
                                  the result cache's failed disk writes
                                  and reads)
GET       ``/healthz``            liveness + degradation probe: 200 once
                                  serving, body reports ``"degraded": true``
                                  plus reasons while checkpoint writes are
                                  failing or hung workers have been killed
========  ======================  =============================================

The ``scan`` field names a scan file on the *server* (``repro.io.save_scan``
format), resolved against the gateway's ``scan_root``; loaded scans are
cached by (path, mtime) so a load generator submitting hundreds of jobs
against one scan file does not re-read it per request.  The cache is
LRU-bounded (``scan_cache_size``) so a gateway fed many distinct scan files
over a long life does not pin them all in memory.

Ids the service's TTL reaper evicted answer **410 Gone** (with
``"evicted": true`` in the body) on status/result/cancel — distinct from
404 for ids the service never saw — and submissions against a closing
service's queue answer **503** with a ``Retry-After`` hint, so clients use
the same backoff discipline for drain windows as for admission control.

``python -m repro serve-http`` wraps this in a CLI;
:mod:`repro.service.loadgen` drives it under sustained load.
"""

from __future__ import annotations

import json
import re
import tempfile
import threading
from collections import OrderedDict
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any

from repro.ct.sinogram import ScanData
from repro.io import save_reconstruction
from repro.io import load_scan as _load_scan
from repro.io import load_volume_scan as _load_volume_scan
from repro.observability import MetricsRecorder
from repro.service.jobs import (
    EvictedJobError,
    JobSpec,
    JobState,
    JobStateError,
    UnknownJobError,
)
from repro.service.queue import AdmissionError, QueueClosedError
from repro.service.service import ReconstructionService

__all__ = ["HttpGateway"]

_JOB_PATH = re.compile(r"^/jobs/(?P<job_id>[A-Za-z0-9._-]+)$")
_RESULT_PATH = re.compile(r"^/jobs/(?P<job_id>[A-Za-z0-9._-]+)/result$")

#: Content type of the Prometheus text exposition format.
_PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class HttpGateway:
    """Serve a :class:`ReconstructionService` over HTTP.

    Parameters
    ----------
    service:
        The (started) service to front.  The gateway does not own it unless
        ``own_service=True`` — then :meth:`close` also closes the service.
    host, port:
        Bind address.  ``port=0`` picks a free port (read it back from
        :attr:`port` / :attr:`url`).
    scan_root:
        Directory against which relative ``scan`` paths in submissions
        resolve.  Absolute paths are honoured as-is (the gateway trusts its
        submitters; it is an internal service, not an internet edge).
    retry_after_s:
        Value of the ``Retry-After`` header on 429 responses.
    scan_cache_size:
        LRU bound on the (path, mtime) scan cache — distinct scan files
        held in memory at once.
    """

    def __init__(
        self,
        service: ReconstructionService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        scan_root: str | Path | None = None,
        retry_after_s: float = 1.0,
        scan_cache_size: int = 8,
        own_service: bool = False,
    ) -> None:
        if scan_cache_size < 1:
            raise ValueError(f"scan_cache_size must be >= 1, got {scan_cache_size}")
        self.service = service
        self.scan_root = Path(scan_root) if scan_root is not None else None
        self.retry_after_s = float(retry_after_s)
        self.scan_cache_size = int(scan_cache_size)
        self._own_service = own_service
        self._scan_lock = threading.Lock()
        self._scan_cache: OrderedDict[tuple[str, int], ScanData] = OrderedDict()
        handler = type("BoundHandler", (_Handler,), {"gateway": self})
        self.server = ThreadingHTTPServer((host, int(port)), handler)
        self.server.daemon_threads = True
        self._thread: threading.Thread | None = None
        self._closed = False

    # -- lifecycle -------------------------------------------------------
    @property
    def host(self) -> str:
        return self.server.server_address[0]

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should talk to."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "HttpGateway":
        """Serve in a background thread (idempotent); returns self."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.server.serve_forever,
                name="repro-http-gateway",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` (CLI mode)."""
        self.server.serve_forever()

    def close(self) -> None:
        """Stop accepting requests; join the server thread."""
        if self._closed:
            return
        self._closed = True
        self.server.shutdown()
        self.server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        if self._own_service:
            self.service.close()

    def __enter__(self) -> "HttpGateway":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- scan resolution -------------------------------------------------
    def _resolve(self, scan: str) -> Path:
        path = Path(scan)
        if not path.is_absolute() and self.scan_root is not None:
            path = self.scan_root / path
        return path

    def load_scan(self, scan: str) -> ScanData:
        """The scan named by a submission, via the (path, mtime) cache."""
        path = self._resolve(scan)
        stat = path.stat()  # raises FileNotFoundError -> 400 at the handler
        key = (str(path), stat.st_mtime_ns)
        with self._scan_lock:
            cached = self._scan_cache.get(key)
            if cached is not None:
                self._scan_cache.move_to_end(key)
                return cached
        loaded = _load_scan(path)
        with self._scan_lock:
            # Drop entries for stale mtimes of the same file.
            for k in [k for k in self._scan_cache if k[0] == key[0] and k != key]:
                del self._scan_cache[k]
            entry = self._scan_cache.setdefault(key, loaded)
            self._scan_cache.move_to_end(key)
            while len(self._scan_cache) > self.scan_cache_size:
                self._scan_cache.popitem(last=False)
            return entry

    def load_volume(self, scan: str) -> list[ScanData]:
        """The volume scan (per-slice stack) named by a sharded submission.

        Uncached: volume submissions are rare relative to the single-scan
        load-generator workload the (path, mtime) cache exists for, and the
        stacks are large.
        """
        return _load_volume_scan(self._resolve(scan))

    # -- metrics ---------------------------------------------------------
    @property
    def rec(self) -> MetricsRecorder:
        return self.service.rec

    def metrics_text(self) -> str:
        """The Prometheus exposition for ``GET /metrics``."""
        return self.rec.to_prometheus(
            gauges={
                "queue_depth": self.service.queue.depth,
                "jobs_known": len(self.service.jobs),
                "tombstones": self.service.tombstone_count,
                "cache_disk_write_failures": self.service.cache.disk_write_failures,
                "cache_disk_read_failures": self.service.cache.disk_read_failures,
            }
        )


class _Handler(BaseHTTPRequestHandler):
    """One HTTP request against the gateway (a fresh thread per request)."""

    #: bound by HttpGateway.__init__ via a subclass attribute
    gateway: HttpGateway

    server_version = "repro-gateway/1.0"
    protocol_version = "HTTP/1.1"  # keep-alive: load generators reuse sockets

    # -- plumbing --------------------------------------------------------
    def log_message(self, format: str, *args) -> None:
        """Silence per-request stderr logging; metrics carry the tallies."""

    def _send_bytes(
        self,
        code: int,
        body: bytes,
        content_type: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        self.gateway.rec.count(f"http.status.{code}")

    def _send_json(
        self, code: int, doc: dict[str, Any], headers: dict[str, str] | None = None
    ) -> None:
        body = (json.dumps(doc, sort_keys=True) + "\n").encode()
        self._send_bytes(code, body, "application/json", headers)

    def _send_error_json(
        self, code: int, error: str, headers: dict[str, str] | None = None, **extra
    ) -> None:
        self._send_json(code, {"error": error, **extra}, headers)

    def _read_json_body(self) -> dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        doc = json.loads(raw.decode() or "{}")
        if not isinstance(doc, dict):
            raise ValueError("request body must be a JSON object")
        return doc

    def _query(self) -> dict[str, str]:
        if "?" not in self.path:
            return {}
        out = {}
        for pair in self.path.split("?", 1)[1].split("&"):
            if "=" in pair:
                k, v = pair.split("=", 1)
                out[k] = v
        return out

    @property
    def _route(self) -> str:
        return self.path.split("?", 1)[0]

    # -- dispatch --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self.gateway.rec.count("http.requests")
        route = self._route
        if route == "/metrics":
            return self._get_metrics()
        if route == "/healthz":
            # "degraded" is advisory (still serving): checkpoint-write
            # degradation or hung-worker kills, with reasons listed.
            return self._send_json(200, self.gateway.service.health())
        m = _RESULT_PATH.match(route)
        if m:
            return self._get_result(m.group("job_id"))
        m = _JOB_PATH.match(route)
        if m:
            return self._get_status(m.group("job_id"))
        self._send_error_json(404, f"no such route: GET {route}")

    def do_POST(self) -> None:  # noqa: N802
        self.gateway.rec.count("http.requests")
        if self._route != "/jobs":
            return self._send_error_json(404, f"no such route: POST {self._route}")
        self._post_job()

    def do_DELETE(self) -> None:  # noqa: N802
        self.gateway.rec.count("http.requests")
        m = _JOB_PATH.match(self._route)
        if not m:
            return self._send_error_json(404, f"no such route: DELETE {self._route}")
        self._delete_job(m.group("job_id"))

    # -- endpoints -------------------------------------------------------
    def _post_job(self) -> None:
        gw = self.gateway
        try:
            doc = self._read_json_body()
        except (ValueError, UnicodeDecodeError) as exc:
            return self._send_error_json(400, f"invalid JSON body: {exc}")
        try:
            driver = doc["driver"]
            scan_name = doc["scan"]
        except KeyError as exc:
            return self._send_error_json(400, f"missing required field {exc}")
        unknown = set(doc) - {"driver", "scan", "params", "priority", "job_id", "shards"}
        if unknown:
            return self._send_error_json(400, f"unknown fields {sorted(unknown)}")
        group = doc.get("shards") is not None
        try:
            if group:
                submit = self._group_submission(doc, driver, scan_name)
            else:
                spec = JobSpec(
                    driver=driver,
                    scan=gw.load_scan(scan_name),
                    params=dict(doc.get("params") or {}),
                    priority=int(doc.get("priority") or 0),
                    job_id=doc.get("job_id"),
                )
                submit = partial(gw.service.submit, spec)
        except (OSError, ValueError, TypeError) as exc:
            return self._send_error_json(400, f"bad submission: {exc}")
        try:
            job_id = submit()
        except AdmissionError as exc:
            gw.rec.count("http.jobs_rejected_429")
            return self._send_error_json(
                429,
                str(exc),
                headers={"Retry-After": f"{gw.retry_after_s:g}"},
                depth=exc.depth,
                max_depth=exc.max_depth,
            )
        except JobStateError as exc:  # the id, or a group child's id, is active
            return self._send_error_json(409, str(exc))
        except (TypeError, ValueError) as exc:  # unserialisable params etc.
            return self._send_error_json(400, f"bad submission: {exc}")
        except (QueueClosedError, RuntimeError) as exc:  # closed queue or service
            gw.rec.count("http.jobs_rejected_503")
            # 503 is backpressure too (drain/restart windows): give clients
            # the same Retry-After hint the 429 path sends.
            return self._send_error_json(
                503, str(exc), headers={"Retry-After": f"{gw.retry_after_s:g}"}
            )
        body = {"job_id": job_id, "state": gw.service.status(job_id)["state"]}
        if group:
            body["group"] = True
        self._send_json(201, body, headers={"Location": f"/jobs/{job_id}"})

    def _group_submission(self, doc: dict[str, Any], driver: str, scan_name: str):
        """The call that submits the shard group a ``"shards"`` object asks for.

        Raises ``ValueError`` (HTTP 400) for a shards object it cannot run.
        Imported lazily: the shards module imports service types.
        """
        from repro.multires.shards import submit_sharded, submit_volume

        gw = self.gateway
        shards = doc["shards"]
        if not isinstance(shards, dict):
            raise ValueError("shards must be a JSON object")
        known = {"mode", "n_shards", "halo", "rounds", "sweeps_per_round", "seed"}
        unknown = set(shards) - known
        if unknown:
            raise ValueError(f"unknown shards fields {sorted(unknown)}")
        common = {
            "params": dict(doc.get("params") or {}),
            "priority": int(doc.get("priority") or 0),
            "group_id": doc.get("job_id"),
        }
        mode = shards.get("mode")
        if mode == "slices":
            extra = set(shards) - {"mode"}
            if extra:
                raise ValueError(f"shards fields {sorted(extra)} only apply to mode 'rows'")
            scans = gw.load_volume(scan_name)
            return partial(submit_volume, gw.service, scans, driver=driver, **common)
        if mode == "rows":
            if driver != "icd":
                raise ValueError(
                    f"rows-mode sharding runs sequential ICD children; "
                    f"driver must be 'icd', got {driver!r}"
                )
            plan = {
                "n_shards": int(shards.get("n_shards", 2)),
                "halo": int(shards.get("halo", 1)),
                "rounds": int(shards.get("rounds", 2)),
                "sweeps_per_round": int(shards.get("sweeps_per_round", 1)),
                "seed": int(shards.get("seed", 0)),
            }
            scan = gw.load_scan(scan_name)
            return partial(submit_sharded, gw.service, scan, **plan, **common)
        raise ValueError(f"shards.mode must be 'slices' or 'rows', got {mode!r}")

    def _get_status(self, job_id: str) -> None:
        try:
            snap = self.gateway.service.status(job_id)
        except EvictedJobError as exc:
            return self._send_error_json(410, str(exc), evicted=True)
        except UnknownJobError:
            return self._send_error_json(404, f"unknown job id {job_id!r}")
        self._send_json(200, snap)

    def _get_result(self, job_id: str) -> None:
        gw = self.gateway
        try:
            job = gw.service.job(job_id)
        except EvictedJobError as exc:
            return self._send_error_json(410, str(exc), evicted=True)
        except UnknownJobError:
            return self._send_error_json(404, f"unknown job id {job_id!r}")
        timeout = self._query().get("timeout")
        if timeout is not None:
            try:
                # Capped: a handler thread must not be parkable forever by a
                # client-supplied wait.
                job.wait(min(max(0.0, float(timeout)), 300.0))
            except ValueError:
                return self._send_error_json(400, f"bad timeout {timeout!r}")
        state = job.state
        if state is JobState.FAILED:
            return self._send_error_json(500, f"job failed: {job.error}", state=state.value)
        if state is JobState.CANCELLED:
            return self._send_error_json(410, "job was cancelled", state=state.value)
        if state is not JobState.DONE or job.result is None:
            return self._send_error_json(
                409,
                f"job is {state.value}; result not available yet",
                headers={"Retry-After": f"{gw.retry_after_s:g}"},
                state=state.value,
            )
        # save_reconstruction writes atomically to a path; spool through a
        # temp file to reuse the exact on-disk npz container byte format.
        with tempfile.TemporaryDirectory(prefix="repro-http-") as tmp:
            path = Path(tmp) / "result.npz"
            save_reconstruction(
                path,
                job.result.image,
                getattr(job.result, "history", None),
                metadata=job.result_metadata(),
            )
            body = path.read_bytes()
        self._send_bytes(
            200,
            body,
            "application/octet-stream",
            headers={
                "Content-Disposition": f'attachment; filename="{job_id}.npz"',
                "X-Repro-From-Cache": str(job.from_cache).lower(),
            },
        )

    def _delete_job(self, job_id: str) -> None:
        try:
            cancelled = self.gateway.service.cancel(job_id)
        except EvictedJobError as exc:
            return self._send_error_json(410, str(exc), evicted=True)
        except UnknownJobError:
            return self._send_error_json(404, f"unknown job id {job_id!r}")
        self._send_json(202, {"job_id": job_id, "cancel_requested": cancelled})

    def _get_metrics(self) -> None:
        self._send_bytes(200, self.gateway.metrics_text().encode(), _PROMETHEUS_CONTENT_TYPE)
