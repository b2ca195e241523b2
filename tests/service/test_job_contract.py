"""The job contract: what a job may pass, read from the driver signatures.

:func:`repro.service.runner.job_params` is the one check.
``ReconstructionService.submit`` calls it, so the HTTP gateway (400), the
queue directory (quarantine) and ``repro submit`` (exit 2) refuse a bad
job before any worker starts, and :func:`run_job` calls the driver with
exactly the params the job was keyed on.
"""

from __future__ import annotations

import functools
import inspect
import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.gpu_icd import GPUICDParams
from repro.harness.cli import EXIT_USAGE, main
from repro.io import save_scan
from repro.service import (
    DirectoryService,
    HttpGateway,
    JobSpec,
    ReconstructionService,
    read_status,
    write_job_spec,
)
from repro.service import runner
from repro.service.runner import job_params, run_job

#: Each refused spec, with the param its refusal must name.
REFUSED = [
    ({"max_equit": 2}, "max_equit"),
    ({"checkpoint_every": 2}, "checkpoint_every"),
    ({"golden": "x"}, "golden"),
    ({"kernel": "c"}, "kernel"),  # no job chooses the kernel
    ({"max_equits": "3"}, "max_equits"),
]
REFUSED_IDS = [name for _, name in REFUSED]


def post_job(gateway, body) -> tuple[int, dict]:
    """``POST /jobs``; (status, JSON body), error statuses included."""
    req = urllib.request.Request(
        gateway.url + "/jobs", data=json.dumps(body).encode(), method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, json.loads(exc.read())


class TestRefusedAtSubmit:
    @pytest.mark.parametrize("params,name", REFUSED, ids=REFUSED_IDS)
    def test_service_raises_and_registers_nothing(self, scan16, params, name):
        with ReconstructionService(n_workers=1, start=False) as svc:
            with pytest.raises(ValueError, match=name):
                svc.submit(JobSpec(driver="icd", scan=scan16, params=params))
            assert svc.jobs == []
            assert "service.jobs_submitted" not in svc.report()["counters"]

    @pytest.mark.parametrize("params,name", REFUSED, ids=REFUSED_IDS)
    def test_http_answers_400(self, scan16, tmp_path, params, name):
        save_scan(tmp_path / "scan.npz", scan16)
        service = ReconstructionService(n_workers=1, start=False)
        with HttpGateway(service, scan_root=tmp_path, own_service=True) as gw:
            code, doc = post_job(
                gw, {"driver": "icd", "scan": "scan.npz", "params": params}
            )
            assert code == 400
            assert name in doc["error"]
            assert service.jobs == []

    @pytest.mark.parametrize("params,name", REFUSED, ids=REFUSED_IDS)
    def test_queue_directory_quarantines_at_accept(self, scan16, tmp_path, params, name):
        save_scan(tmp_path / "scan.npz", scan16)
        write_job_spec(tmp_path, "bad", driver="icd", scan_path="scan.npz", params=params)
        with DirectoryService(tmp_path, n_workers=1) as service:
            assert service.poll_incoming() == []
            assert service.service.jobs == []  # nothing queued, no worker started
        status = read_status(tmp_path, "bad")
        assert status["state"] == "FAILED" and status["quarantined"] is True
        assert name in status["error"]

    @pytest.mark.parametrize("params,name", REFUSED, ids=REFUSED_IDS)
    def test_cli_submit_exits_2_and_writes_no_spec(self, tmp_path, capsys, params, name):
        assert main([
            "submit", str(tmp_path), "--driver", "icd", "--scan", "scan.npz",
            "--params", json.dumps(params), "--job-id", "bad",
        ]) == EXIT_USAGE
        assert name in capsys.readouterr().err
        assert not (tmp_path / "incoming").exists()

    def test_multires_checks_its_base_driver(self):
        with pytest.raises(ValueError, match="base_driver"):
            job_params("multires", {"base_driver": "multires"})
        with pytest.raises(ValueError, match="max_iterations"):
            job_params("multires", {"base_driver": "psv_icd", "max_iterations": 2})


#: Values that stay accepted: what a shard group's children, chaos, loadgen
#: and perfbench send, and the forms a JSON or in-process caller may use.
ACCEPTED = [
    ("icd", {"max_equits": 10.0, "seed": 3}),  # a slices group's children
    ("icd", {"voxel_subset": np.arange(8), "max_iterations": 1, "seed": 12345,
             "track_cost": False, "init": np.zeros((16, 16))}),  # a rows child
    ("icd", {"max_equits": 3.0, "seed": np.int64(1), "track_cost": False}),  # chaos
    ("icd", {"seed": 2}),  # loadgen
    ("icd", {"stop_delta_hu": None, "max_equits": np.float32(2.0),
             "track_cost": np.bool_(False)}),
    ("icd", {"init": [[0.0] * 16] * 16, "golden": [[1] * 16] * 16}),
    ("gpu_icd", {"sv_side": np.int64(4), "batch_size": 8, "use_threshold": False}),
    ("multires", {"levels": 2, "coarse_equits": [1.0, 2.0]}),
    ("multires", {"levels": "16,32"}),
    ("multires", {"levels": [16, 32], "base_driver": "gpu_icd", "sv_side": 8}),
]


@pytest.mark.parametrize("driver,params", ACCEPTED)
def test_traffic_stays_accepted_and_passes_through(driver, params):
    resolved = job_params(driver, params)
    assert all(resolved[k] is v for k, v in params.items())
    assert set(resolved) - set(params) <= {"stop_delta_hu", "base_driver"}


def _defaults(*fns) -> dict:
    out: dict = {}
    for fn in fns:
        for p in inspect.signature(fn).parameters.values():
            if p.default is not p.empty:
                out.setdefault(p.name, p.default)
    return out


@pytest.mark.parametrize(
    "driver,base",
    [("icd", None), ("psv_icd", None), ("gpu_icd", None),
     ("multires", "icd"), ("multires", "psv_icd"), ("multires", "gpu_icd")],
)
def test_every_accepted_param_binds_to_the_driver(scan16, tmp_path, monkeypatch, driver, base):
    """A spec naming every accepted param, each at its signature default,
    reaches the driver (and, for multires, the base driver) as kwargs its
    signature binds, so the contract cannot accept a name a driver rejects."""
    real = runner._DRIVER_FNS[driver]
    base_fn = runner._DRIVER_FNS[base] if base else None
    defaults = _defaults(real, *([base_fn] if base else []), GPUICDParams)
    params = {name: defaults[name] for name in runner._contract(driver, base)}
    if base:
        params["base_driver"] = base
    calls = []

    @functools.wraps(real)
    def capture(*args, **kwargs):
        calls.append(inspect.signature(real).bind(*args, **kwargs).arguments)

    monkeypatch.setitem(runner._DRIVER_FNS, driver, capture)
    run_job(JobSpec(driver=driver, scan=scan16, params=params), checkpoint_dir=tmp_path)
    (bound,) = calls
    forwarded = bound.get("base_kwargs", {})
    if base:
        inspect.signature(base_fn).bind(scan16, None, **forwarded)
    if (base or driver) == "gpu_icd":
        gpu = forwarded.get("params", bound.get("params"))
        assert gpu == GPUICDParams()

