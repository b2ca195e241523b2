"""HTTP gateway: sharded job groups through the ``shards`` field.

Groups ride the same ``/jobs`` routes as ordinary jobs: ``POST /jobs``
with ``"shards"`` returns a group id, ``GET /jobs/<gid>`` aggregates the
children, ``GET /jobs/<gid>/result`` streams the stitched npz, ``DELETE``
cancels the whole group.
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.core.icd import icd_reconstruct
from repro.core.volume import ellipsoid_volume, simulate_volume_scan
from repro.io import load_reconstruction, save_scan, save_volume_scan
from repro.multires.shards import ShardGroup
from repro.service import HttpGateway, ReconstructionService

PARAMS = {"max_equits": 1.0, "seed": 0, "track_cost": False}


def load_result_bytes(raw: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "result.npz"
        path.write_bytes(raw)
        return load_reconstruction(path)


def http(gateway, method, path, body=None, timeout=60.0):
    import urllib.error
    import urllib.request

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


@pytest.fixture(scope="module")
def volume_scans(mr_system):
    vol = ellipsoid_volume(3, 32, seed=3)
    return vol, simulate_volume_scan(vol, mr_system, dose=8e4, seed=5)


@pytest.fixture()
def gateway(tmp_path, mr_scan, volume_scans):
    save_scan(tmp_path / "scan.npz", mr_scan)
    save_volume_scan(tmp_path / "volume.npz", volume_scans[1])
    service = ReconstructionService(n_workers=2, start=True)
    with HttpGateway(service, scan_root=tmp_path, own_service=True) as gw:
        yield gw


class TestSliceGroupRoutes:
    def test_submit_status_result_round_trip(self, gateway, volume_scans, mr_system):
        code, headers, doc = http_json(
            gateway, "POST", "/jobs",
            {"driver": "icd", "scan": "volume.npz", "params": dict(PARAMS),
             "shards": {"mode": "slices"}},
        )
        assert code == 201
        gid = doc["job_id"]
        assert doc["group"] is True
        assert headers["Location"] == f"/jobs/{gid}"

        code, _, raw = http(gateway, "GET", f"/jobs/{gid}/result?timeout=300",
                            timeout=320.0)
        assert code == 200
        image, _, meta = load_result_bytes(raw)
        assert image.shape == (3, 32, 32)
        assert meta["job_id"] == gid
        assert meta["mode"] == "slices"

        # Stitched result is bit-identical to per-slice direct solves.
        _, scans = volume_scans
        for k, scan in enumerate(scans):
            ref = icd_reconstruct(scan, mr_system, **PARAMS)
            np.testing.assert_array_equal(image[k], ref.image)

        code, _, status = http_json(gateway, "GET", f"/jobs/{gid}")
        assert code == 200
        assert status["state"] == "DONE"
        assert status["group"]["mode"] == "slices"
        assert status["group"]["n_children"] == 3
        assert status["group"]["children_done"] == 3
        assert status["progress"] == 1.0

    def test_result_before_done_is_409_with_retry_after(self, gateway):
        code, _, doc = http_json(
            gateway, "POST", "/jobs",
            {"driver": "icd", "scan": "volume.npz",
             "params": dict(PARAMS, max_equits=500.0),
             "shards": {"mode": "slices"}},
        )
        gid = doc["job_id"]
        code, headers, doc = http_json(gateway, "GET", f"/jobs/{gid}/result")
        assert code == 409
        assert "Retry-After" in headers
        http(gateway, "DELETE", f"/jobs/{gid}")

    def test_delete_cancels_the_group(self, gateway):
        code, _, doc = http_json(
            gateway, "POST", "/jobs",
            {"driver": "icd", "scan": "volume.npz",
             "params": dict(PARAMS, max_equits=500.0),
             "shards": {"mode": "slices"}},
        )
        gid = doc["job_id"]
        code, _, doc = http_json(gateway, "DELETE", f"/jobs/{gid}")
        assert code == 202
        code, _, raw = http(gateway, "GET", f"/jobs/{gid}/result?timeout=120",
                            timeout=140.0)
        assert code == 410
        code, _, status = http_json(gateway, "GET", f"/jobs/{gid}")
        assert status["state"] == "CANCELLED"


class TestRowGroupRoutes:
    def test_rows_mode_round_trip(self, gateway, mr_scan, mr_system):
        code, _, doc = http_json(
            gateway, "POST", "/jobs",
            {"driver": "icd", "scan": "scan.npz", "params": {},
             "shards": {"mode": "rows", "n_shards": 2, "halo": 2,
                        "rounds": 2, "seed": 0}},
        )
        assert code == 201
        gid = doc["job_id"]
        code, _, raw = http(gateway, "GET", f"/jobs/{gid}/result?timeout=300",
                            timeout=320.0)
        assert code == 200
        image, _, meta = load_result_bytes(raw)
        assert image.shape == (32, 32)
        assert meta["mode"] == "rows"

        from repro import rmse_hu

        ref = icd_reconstruct(
            mr_scan, mr_system, max_iterations=2, track_cost=False, seed=0
        )
        assert rmse_hu(image, ref.image) < 8.0

        code, _, status = http_json(gateway, "GET", f"/jobs/{gid}")
        assert status["group"]["mode"] == "rows"
        assert status["group"]["rounds_done"] == 2


class TestInvalidShardSpecs:
    @pytest.mark.parametrize(
        "body_patch",
        [
            {"shards": {"mode": "diagonal"}},  # unknown mode
            {"shards": {"mode": "rows", "n_shards": 999}},  # oversubscribed
            {"shards": {"mode": "rows"}, "driver": "psv_icd"},  # rows need icd
            {"shards": {"mode": "slices", "n_shards": 2}},  # rows-only field
            {"shards": "slices"},  # not an object
            {"shards": {"mode": "rows", "bogus": 1}},  # unknown field
        ],
    )
    def test_bad_specs_are_400(self, gateway, body_patch):
        body = {"driver": "icd", "scan": "scan.npz", "params": dict(PARAMS)}
        body.update(body_patch)
        code, _, doc = http_json(gateway, "POST", "/jobs", body)
        assert code == 400
        assert "error" in doc

    @pytest.mark.parametrize(
        "scan,shards",
        [("volume.npz", {"mode": "slices"}), ("scan.npz", {"mode": "rows"})],
        ids=["slices", "rows"],
    )
    def test_refused_params_leave_no_group(self, gateway, scan, shards):
        code, _, doc = http_json(
            gateway, "POST", "/jobs",
            {"driver": "icd", "scan": scan, "params": {"max_equit": 2},
             "shards": shards, "job_id": "grp-refused"},
        )
        assert code == 400
        assert "max_equit" in doc["error"]
        code, _, _ = http_json(gateway, "GET", "/jobs/grp-refused")
        assert code == 404

    def test_child_id_collision_is_409_and_leaves_no_group(self, gateway):
        """A group whose second child id is taken by an active job is
        refused like a plain duplicate id, and leaves nothing behind."""
        long_run = dict(PARAMS, max_equits=500.0, stop_delta_hu=None)
        code, _, doc = http_json(
            gateway, "POST", "/jobs",
            {"driver": "icd", "scan": "scan.npz", "params": long_run,
             "job_id": "grp-x-s001"},
        )
        assert code == 201
        try:
            code, _, doc = http_json(
                gateway, "POST", "/jobs",
                {"driver": "icd", "scan": "volume.npz", "params": long_run,
                 "shards": {"mode": "slices"}, "job_id": "grp-x"},
            )
            assert code == 409
            assert "grp-x-s001" in doc["error"]
            code, _, _ = http_json(gateway, "GET", "/jobs/grp-x")
            assert code == 404
            # The child submitted before the collision was cancelled ...
            code, _, _ = http(gateway, "GET", "/jobs/grp-x-s000/result?timeout=60",
                              timeout=80.0)
            assert code == 410
            # ... and the job that owned the id was left alone.
            code, _, status = http_json(gateway, "GET", "/jobs/grp-x-s001")
            assert status["state"] in ("PENDING", "RUNNING")
        finally:
            http(gateway, "DELETE", "/jobs/grp-x-s001")

    def test_slices_mode_needs_a_volume_container(self, gateway):
        code, _, doc = http_json(
            gateway, "POST", "/jobs",
            {"driver": "icd", "scan": "scan.npz", "params": dict(PARAMS),
             "shards": {"mode": "slices"}},
        )
        assert code == 400

    def test_unknown_group_id_404(self, gateway):
        code, _, _ = http_json(gateway, "GET", "/jobs/grp-missing")
        assert code == 404


class TestOneIdNamespace:
    """Job and group ids share ``/jobs/<id>``: neither kind takes the
    other's id, and a refused POST registers nothing."""

    def post(self, gateway, job_id, *, group, **params):
        body = {"driver": "icd", "scan": "volume.npz" if group else "scan.npz",
                "params": {**PARAMS, **params}, "job_id": job_id}
        if group:
            body["shards"] = {"mode": "slices"}
        return http_json(gateway, "POST", "/jobs", body)

    def test_taken_group_id_is_409(self, gateway):
        assert self.post(gateway, "g1", group=True)[0] == 201
        group, jobs = gateway.service.job("g1"), gateway.service.jobs
        code, _, doc = self.post(gateway, "g1", group=True)
        assert code == 409 and "g1" in doc["error"], doc
        assert gateway.service.job("g1") is group
        assert gateway.service.jobs == jobs

    def test_group_cannot_take_an_active_job_id(self, gateway):
        long_run = {"max_equits": 500.0, "stop_delta_hu": None}
        assert self.post(gateway, "j1", group=False, **long_run)[0] == 201
        try:
            jobs = gateway.service.jobs
            code, _, doc = self.post(gateway, "j1", group=True, **long_run)
            assert code == 409 and "j1" in doc["error"], doc
            assert not isinstance(gateway.service.job("j1"), ShardGroup)
            assert gateway.service.jobs == jobs
            code, _, status = http_json(gateway, "GET", "/jobs/j1")
            assert status["state"] in ("PENDING", "RUNNING") and "group" not in status
        finally:
            http(gateway, "DELETE", "/jobs/j1")

    def test_job_cannot_take_a_group_id(self, gateway):
        long_run = {"max_equits": 500.0, "stop_delta_hu": None}
        assert self.post(gateway, "g2", group=True, **long_run)[0] == 201
        try:
            code, _, doc = self.post(gateway, "g2", group=False)
            assert code == 409 and "g2" in doc["error"], doc
            assert http_json(gateway, "GET", "/jobs/g2")[2]["group"]["mode"] == "slices"
        finally:
            http(gateway, "DELETE", "/jobs/g2")

    def test_concurrent_posts_of_one_id_have_one_winner(self, gateway):
        long_run = {"max_equits": 500.0, "stop_delta_hu": None}
        start = threading.Barrier(8)

        def post(group):
            start.wait(timeout=30)
            return self.post(gateway, "race", group=group, **long_run)[0]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                codes = sorted(pool.map(post, [True, False] * 4))
        finally:
            sys.setswitchinterval(interval)
            http(gateway, "DELETE", "/jobs/race")
        assert codes == [201] + [409] * 7


class FakeClock:
    def __init__(self, t=1000.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestGroupEviction:
    def test_an_evicted_group_answers_410(self, tmp_path, volume_scans):
        """The TTL reaper evicts a finished group like any job; its id then
        answers 410 on every route.  Driven on a fake clock with the reaper
        thread unstarted, as the registry-bound test does."""
        save_volume_scan(tmp_path / "volume.npz", volume_scans[1])
        clock = FakeClock()
        service = ReconstructionService(n_workers=2, job_ttl_s=10.0, start=False, clock=clock)
        service.scheduler.start()
        with HttpGateway(service, scan_root=tmp_path, own_service=True) as gw:
            code, _, doc = http_json(
                gw, "POST", "/jobs",
                {"driver": "icd", "scan": "volume.npz", "params": dict(PARAMS),
                 "shards": {"mode": "slices"}},
            )
            assert code == 201
            gid = doc["job_id"]
            children = service.status(gid)["group"]["children"]
            service.result(gid, timeout=300)
            clock.advance(9.0)
            assert gid not in service.reaper.reap_once()
            assert http_json(gw, "GET", f"/jobs/{gid}")[0] == 200
            clock.advance(2.0)
            assert sorted(service.reaper.reap_once()) == sorted([gid, *children])
            for method, path in [
                ("GET", f"/jobs/{gid}"),
                ("GET", f"/jobs/{gid}/result"),
                ("DELETE", f"/jobs/{gid}"),
            ]:
                code, _, body = http_json(gw, method, path)
                assert code == 410 and body["evicted"] is True, (method, path)
            assert service.jobs == []
