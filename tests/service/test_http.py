"""HTTP gateway: REST round-trips, backpressure, metrics, concurrency."""

from __future__ import annotations

import json
import re
import tempfile
import threading
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.io import arm_disk_fault, load_reconstruction, save_scan
from repro.service import CachedResult, HttpGateway, ReconstructionService

PARAMS = {"max_equits": 1.0, "seed": 3, "track_cost": False}


def load_result_bytes(raw: bytes):
    """Decode a ``GET .../result`` body through the on-disk npz reader."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "result.npz"
        path.write_bytes(raw)
        return load_reconstruction(path)


def http(gateway, method, path, body=None, timeout=30.0):
    """One exchange against the gateway; (status, headers, bytes).

    Error statuses come back as values, not exceptions — the tests assert
    on them directly.
    """
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        gateway.url + path,
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


def http_json(gateway, method, path, body=None):
    code, headers, raw = http(gateway, method, path, body)
    return code, headers, json.loads(raw)


@pytest.fixture()
def gateway(tmp_path, scan16):
    save_scan(tmp_path / "scan.npz", scan16)
    service = ReconstructionService(
        n_workers=2, cache_dir=tmp_path / "cache", start=True
    )
    with HttpGateway(service, scan_root=tmp_path, own_service=True) as gw:
        yield gw


def submit(gateway, **overrides):
    body = {"driver": "icd", "scan": "scan.npz", "params": dict(PARAMS)}
    body.update(overrides)
    return http_json(gateway, "POST", "/jobs", body)


class TestLifecycle:
    def test_submit_status_result_round_trip(self, gateway):
        code, headers, doc = submit(gateway)
        assert code == 201
        job_id = doc["job_id"]
        assert headers["Location"] == f"/jobs/{job_id}"

        code, _, status = http_json(gateway, "GET", f"/jobs/{job_id}")
        assert code == 200
        assert status["job_id"] == job_id

        code, headers, raw = http(
            gateway, "GET", f"/jobs/{job_id}/result?timeout=120"
        )
        assert code == 200
        assert headers["Content-Type"] == "application/octet-stream"
        assert headers["X-Repro-From-Cache"] in {"true", "false"}
        image, history, meta = load_result_bytes(raw)
        assert image.shape == (16, 16)
        assert history is not None and len(history.records) >= 1
        assert meta["job_id"] == job_id and meta["driver"] == "icd"

        code, _, status = http_json(gateway, "GET", f"/jobs/{job_id}")
        assert status["state"] == "DONE"

    def test_result_bytes_match_direct_service_result(self, gateway):
        code, _, doc = submit(gateway)
        job_id = doc["job_id"]
        _, _, raw = http(gateway, "GET", f"/jobs/{job_id}/result?timeout=120")
        image, _, _ = load_result_bytes(raw)
        direct = gateway.service.result(job_id).image
        np.testing.assert_array_equal(image, direct)

    def test_result_before_done_is_409_with_retry_after(self, gateway):
        code, _, doc = submit(gateway, params=dict(PARAMS, max_equits=500.0))
        job_id = doc["job_id"]
        code, headers, doc = http_json(gateway, "GET", f"/jobs/{job_id}/result")
        assert code == 409
        assert doc["state"] in {"PENDING", "RUNNING"}
        assert float(headers["Retry-After"]) > 0
        http_json(gateway, "DELETE", f"/jobs/{job_id}")

    def test_cancel_then_result_is_410(self, gateway):
        code, _, doc = submit(gateway, params=dict(PARAMS, max_equits=500.0))
        job_id = doc["job_id"]
        code, _, doc = http_json(gateway, "DELETE", f"/jobs/{job_id}")
        assert code == 202
        assert doc["cancel_requested"] is True
        gateway.service.job(job_id).wait(120)
        code, _, doc = http_json(gateway, "GET", f"/jobs/{job_id}/result")
        assert code == 410
        assert doc["state"] == "CANCELLED"

    def test_failed_job_result_is_500(self, gateway):
        # The contract takes any numeric init array; the driver rejects a
        # 2x2 image for the 16² scan, so the job is accepted and fails.
        code, _, doc = submit(
            gateway, params={"max_equits": 1.0, "init": [[0.0, 0.0], [0.0, 0.0]]}
        )
        assert code == 201
        job_id = doc["job_id"]
        code, _, doc = http_json(
            gateway, "GET", f"/jobs/{job_id}/result?timeout=120"
        )
        assert code == 500
        assert doc["state"] == "FAILED"

    def test_client_supplied_job_id_round_trips(self, gateway):
        code, _, doc = submit(gateway, job_id="my-job.1")
        assert code == 201 and doc["job_id"] == "my-job.1"
        code, _, _ = http_json(gateway, "GET", "/jobs/my-job.1")
        assert code == 200


class TestRejections:
    def test_unknown_job_is_404_everywhere(self, gateway):
        for method, path in [
            ("GET", "/jobs/ghost"),
            ("GET", "/jobs/ghost/result"),
            ("DELETE", "/jobs/ghost"),
        ]:
            code, _, doc = http_json(gateway, method, path)
            assert code == 404, (method, path)
            assert "ghost" in doc["error"]

    def test_unknown_routes_are_404(self, gateway):
        assert http(gateway, "GET", "/nope")[0] == 404
        assert http(gateway, "POST", "/jobs/extra/deep", {})[0] == 404
        assert http(gateway, "DELETE", "/jobs")[0] == 404

    def test_malformed_submissions_are_400(self, gateway):
        assert submit(gateway, scan="missing.npz")[0] == 400
        assert submit(gateway, driver="warp_drive")[0] == 400
        assert submit(gateway, threads=64)[0] == 400  # unknown field
        code, _, doc = http_json(gateway, "POST", "/jobs", {"driver": "icd"})
        assert code == 400 and "scan" in doc["error"]
        req = urllib.request.Request(
            gateway.url + "/jobs", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(req, timeout=30)
        with exc_info.value as exc:
            assert exc.code == 400

    def test_duplicate_active_job_id_is_409(self, gateway):
        code, _, doc = submit(
            gateway, job_id="dup", params=dict(PARAMS, max_equits=500.0)
        )
        assert code == 201
        code, _, _ = submit(gateway, job_id="dup")
        assert code == 409
        http_json(gateway, "DELETE", "/jobs/dup")

    def test_bad_timeout_is_400(self, gateway):
        code, _, doc = submit(gateway)
        job_id = doc["job_id"]
        code, _, _ = http_json(gateway, "GET", f"/jobs/{job_id}/result?timeout=soon")
        assert code == 400


class TestBackpressure:
    def test_429_with_retry_after_when_queue_full(self, tmp_path, scan16):
        save_scan(tmp_path / "scan.npz", scan16)
        service = ReconstructionService(
            n_workers=1, max_queue_depth=1, cache_dir=tmp_path / "cache", start=True
        )
        # Park the worker so the depth-1 queue fills deterministically.
        service.scheduler.stop(wait=True)
        with HttpGateway(
            service, scan_root=tmp_path, own_service=True, retry_after_s=0.25
        ) as gw:
            assert submit(gw)[0] == 201
            code, headers, doc = submit(gw, params=dict(PARAMS, seed=9))
            assert code == 429
            assert float(headers["Retry-After"]) == 0.25
            assert doc["depth"] == 1 and doc["max_depth"] == 1
            # Rejections are observable in the metrics endpoint.
            _, _, raw = http(gw, "GET", "/metrics")
            assert 'repro_counter_total{name="http.jobs_rejected_429"} 1' in (
                raw.decode()
            )
            service.scheduler.start()  # let close() drain cleanly


class TestMetrics:
    def test_cache_disk_failures_are_exported(self, tmp_path):
        """An armed cache directory's failed writes and reads reach the
        report and ``/metrics``, not only the cache object."""
        cache_dir = tmp_path / "cache"
        service = ReconstructionService(
            n_workers=1, cache_dir=cache_dir, cache_memory_entries=1, start=False
        )
        entry = CachedResult(image=np.zeros((4, 4)), history=None, metadata={})
        with HttpGateway(service, own_service=True) as gw:
            service.cache.put("a", entry)
            service.cache.put("b", entry)  # "a" is now on disk only
            arm_disk_fault(cache_dir)
            assert service.cache.get("a") is None
            service.cache.put("c", entry)
            counters = service.report()["counters"]
            text = http(gw, "GET", "/metrics")[2].decode()
        assert counters["service.cache_disk_write_failures"] == 1
        assert counters["service.cache_disk_read_failures"] == 1
        assert 'repro_gauge{name="cache_disk_write_failures"} 1' in text
        assert 'repro_gauge{name="cache_disk_read_failures"} 1' in text

    def test_metrics_is_valid_prometheus_text(self, gateway):
        code, _, doc = submit(gateway)
        http(gateway, "GET", f"/jobs/{doc['job_id']}/result?timeout=120")
        code, headers, raw = http(gateway, "GET", "/metrics")
        assert code == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        text = raw.decode()
        sample = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*\{[a-zA-Z_]+="(?:[^"\\]|\\.)*"\} '
            r"-?[0-9.e+-]+(?:[0-9])?$"
        )
        samples = [
            line for line in text.splitlines() if line and not line.startswith("#")
        ]
        assert samples
        for line in samples:
            assert sample.match(line), line
        assert 'repro_counter_total{name="service.jobs_submitted"} 1' in text
        assert 'repro_gauge{name="jobs_known"} 1' in text
        assert 'repro_counter_total{name="http.requests"}' in text

    def test_stop_reason_in_status_result_and_metrics(self, gateway):
        """A DONE job reports why it stopped; /metrics counts each reason."""
        stops = {
            "converged": {"max_equits": 30.0, "seed": 1},
            "budget": {"max_equits": 2.0, "seed": 2, "stop_delta_hu": None},
        }
        for reason, params in stops.items():
            _, _, doc = submit(gateway, params=params)
            job_id = doc["job_id"]
            code, _, raw = http(gateway, "GET", f"/jobs/{job_id}/result?timeout=120")
            assert code == 200
            _, history, _ = load_result_bytes(raw)
            assert history.stop_reason == reason
            _, _, status = http_json(gateway, "GET", f"/jobs/{job_id}")
            assert status["state"] == "DONE"
            assert status["stop_reason"] == reason
            assert status["equits"] < 30.0
        text = http(gateway, "GET", "/metrics")[2].decode()
        for reason in stops:
            assert f'repro_counter_total{{name="service.stop_reason.{reason}"}} 1' in text

    def test_healthz(self, gateway):
        code, _, doc = http_json(gateway, "GET", "/healthz")
        assert code == 200
        assert doc["status"] == "ok"
        assert doc["degraded"] is False
        assert doc["reasons"] == []
        assert doc["checkpoint_degraded_jobs"] == []
        assert doc["workers_hung"] == 0

    def test_healthz_reports_degraded_checkpoint_writes(self, gateway):
        """PR-9: a degraded checkpoint path flips healthz while it lasts.

        Driven through the scheduler's fault hook directly — the HTTP
        layer is under test here; the end-to-end disk-fault path is
        covered in test_fault_hardening.
        """
        service = gateway.service
        # Park the workers so the job can't finish (a finished job clears
        # its degraded flag) and the flip/flop below is deterministic.
        service.scheduler.stop(wait=True)
        code, _, doc = submit(gateway)
        job = service.job(doc["job_id"])
        service.scheduler._note_job_fault(
            job, "CHECKPOINT_DEGRADED", {"errno": 28, "error": "boom"}
        )
        code, _, health = http_json(gateway, "GET", "/healthz")
        assert code == 200
        assert health["status"] == "degraded" and health["degraded"] is True
        assert health["checkpoint_degraded_jobs"] == [job.job_id]
        assert any("checkpoint" in r for r in health["reasons"])
        service.scheduler._note_job_fault(
            job, "CHECKPOINT_RECOVERED", {"iteration": 2}
        )
        code, _, health = http_json(gateway, "GET", "/healthz")
        assert health["status"] == "ok" and health["degraded"] is False


class TestConcurrentClients:
    def test_mixed_priority_submissions_from_many_threads(self, gateway):
        """The tentpole end-to-end: concurrent clients, every job lands."""
        n_clients, per_client = 6, 3
        results: dict[str, bytes] = {}
        errors: list[str] = []
        lock = threading.Lock()

        def client(tid: int) -> None:
            for i in range(per_client):
                code, _, doc = submit(
                    gateway,
                    params=dict(PARAMS, seed=(tid * per_client + i) % 4),
                    priority=tid % 3,
                )
                if code != 201:
                    with lock:
                        errors.append(f"client {tid}: submit -> {code} {doc}")
                    return
                job_id = doc["job_id"]
                code, _, raw = http(
                    gateway, "GET", f"/jobs/{job_id}/result?timeout=120"
                )
                with lock:
                    if code != 200:
                        errors.append(f"client {tid}: result -> {code}")
                    else:
                        results[job_id] = raw

        threads = [
            threading.Thread(target=client, args=(t,)) for t in range(n_clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(results) == n_clients * per_client
        # Jobs sharing a seed share a cache key: their images must agree.
        by_seed: dict[int, np.ndarray] = {}
        for raw in results.values():
            image, _, meta = load_result_bytes(raw)
            seed = None
            for job in gateway.service.jobs:
                if job.job_id == meta["job_id"]:
                    seed = job.spec.params["seed"]
            assert seed is not None
            if seed in by_seed:
                np.testing.assert_array_equal(image, by_seed[seed])
            else:
                by_seed[seed] = image


class TestEvictionAndShutdown:
    """PR-8: TTL-evicted ids answer 410, closed-queue submissions 503."""

    def test_evicted_job_is_410_everywhere(self, tmp_path, scan16):
        from repro.io import save_scan as _save_scan

        _save_scan(tmp_path / "scan.npz", scan16)
        service = ReconstructionService(
            n_workers=1, job_ttl_s=3600.0, reap_interval_s=3600.0, start=True
        )
        with HttpGateway(service, scan_root=tmp_path, own_service=True) as gw:
            code, _, doc = submit(gw)
            assert code == 201
            job_id = doc["job_id"]
            code, _, _ = http(gw, "GET", f"/jobs/{job_id}/result?timeout=120")
            assert code == 200

            # Evict deterministically instead of waiting out the TTL.
            evicted = service.evict_terminal(older_than_s=0.0)
            assert evicted == [job_id]

            for method, path in [
                ("GET", f"/jobs/{job_id}"),
                ("GET", f"/jobs/{job_id}/result"),
                ("DELETE", f"/jobs/{job_id}"),
            ]:
                code, _, body = http_json(gw, method, path)
                assert code == 410, (method, path)
                assert body["evicted"] is True
            # Never-seen ids still distinguish as 404.
            code, _, _ = http_json(gw, "GET", "/jobs/never-seen")
            assert code == 404
            # The tombstone shows up as a gauge.
            _, _, raw = http(gw, "GET", "/metrics")
            assert 'repro_gauge{name="tombstones"} 1' in raw.decode()

    def test_submit_against_closed_queue_is_503(self, gateway):
        gateway.service.scheduler.stop(wait=True, close=True)
        code, headers, body = submit(gateway)
        assert code == 503
        assert "closed" in body["error"]
        # PR-9: 503s carry the same Retry-After hint as 429s, so clients
        # back off through drain windows instead of hammering.
        assert float(headers["Retry-After"]) > 0
        counters = gateway.service.report()["counters"]
        assert counters["http.jobs_rejected_503"] == 1


class TestScanCacheLRU:
    def test_scan_cache_evicts_least_recently_used(self, tmp_path, scan16):
        from repro.io import save_scan as _save_scan

        for i in range(3):
            _save_scan(tmp_path / f"scan-{i}.npz", scan16)
        service = ReconstructionService(n_workers=1, start=False)
        with HttpGateway(
            service, scan_root=tmp_path, scan_cache_size=2, own_service=True
        ) as gw:
            gw.load_scan("scan-0.npz")
            gw.load_scan("scan-1.npz")
            gw.load_scan("scan-0.npz")  # refresh 0: now 1 is the LRU entry
            gw.load_scan("scan-2.npz")  # evicts 1
            cached = [k[0] for k in gw._scan_cache]
            assert len(cached) == 2
            assert str(tmp_path / "scan-1.npz") not in cached
            assert str(tmp_path / "scan-0.npz") in cached
            assert str(tmp_path / "scan-2.npz") in cached

    def test_invalid_scan_cache_size_rejected(self, scan16):
        service = ReconstructionService(n_workers=1, start=False)
        try:
            with pytest.raises(ValueError, match="scan_cache_size"):
                HttpGateway(service, scan_cache_size=0)
        finally:
            service.close()
