"""SIGKILL a serving process mid-job; a rerun resumes and matches bit-for-bit.

The service-level crash drill (the driver-level one lives in
``tests/integration/test_resilience_kill.py``): a child process serves a
queue directory whose single job carries the ``kill_at_iteration`` fault
hook with ``SIGSTOP``, which freezes the job's worker subprocess inside
iteration 2 — before that iteration's snapshot, leaving iteration 1's on
disk.  The server runs in its own session; once iteration 1's checkpoint
lands, the test SIGKILLs its whole process group, server and frozen worker
alike.  A second server over the *same* queue directory recovers the
non-terminal job, resumes it from the surviving checkpoint (the fault is
not re-armed on a resumed life), and completes it.  The result must equal,
exactly, a reference run in a separate queue directory that was never
killed — separate so the shared-directory result cache cannot leak the
reference volume into the resumed run.

The last drill SIGKILLs a job's worker under a live ``serve-http``
gateway, which respawns it; the job resumes to DONE over HTTP.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.io import load_reconstruction, save_scan
from repro.resilience import CheckpointManager
from repro.service import DirectoryService, JobSpec, run_job, write_job_spec
from repro.service.worker import worker_result_path

KILL_AFTER = 2
FAULT = {"kill_at_iteration": KILL_AFTER, "signal": "SIGSTOP"}
PARAMS = {"max_equits": 6.0, "seed": 7, "track_cost": False}

_SRC = str(Path(__file__).resolve().parents[2] / "src")
_ENV = {"PYTHONPATH": _SRC, "PATH": "/usr/bin:/bin"}

_CHILD = """\
import sys
from repro.service import DirectoryService
service = DirectoryService(sys.argv[1], n_workers=1)
service.run(drain=True, max_seconds=240)
service.close()
print("UNREACHABLE: serve loop drained without being killed")
sys.exit(3)
"""


def kill_server_mid_job(cmd: list[str], ckpt_dir: Path) -> subprocess.CompletedProcess:
    """Serve in a fresh session; SIGKILL the process group at iteration 1's checkpoint."""
    proc = subprocess.Popen(cmd, env=_ENV, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        deadline = time.monotonic() + 240
        while not any(ckpt_dir.glob("ckpt-*.ckpt")):
            assert proc.poll() is None, "server exited before the first checkpoint"
            assert time.monotonic() < deadline, "no checkpoint within 240 s"
            time.sleep(0.02)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # the whole group already exited
            pass
        stdout, stderr = proc.communicate(timeout=60)
    return subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr)


@pytest.fixture()
def queue_dirs(tmp_path, scan16):
    """Two independent queue directories sharing one scan file."""
    killed, reference = tmp_path / "killed", tmp_path / "reference"
    for d in (killed, reference):
        d.mkdir()
        save_scan(d / "scan.npz", scan16)
    return killed, reference


def test_killed_worker_resumes_bit_identical(queue_dirs):
    killed, reference = queue_dirs
    write_job_spec(killed, "drill", driver="icd", scan_path="scan.npz",
                   params=PARAMS, fault=FAULT)

    # First life: the server dies by SIGKILL mid-job (no cleanup runs).
    ckpt_dir = killed / "jobs" / "drill" / "checkpoints"
    proc = kill_server_mid_job([sys.executable, "-c", _CHILD, str(killed)], ckpt_dir)
    assert proc.returncode == -signal.SIGKILL, (
        f"child exited {proc.returncode}; stdout={proc.stdout!r} "
        f"stderr={proc.stderr!r}"
    )

    # The worker froze inside iteration KILL_AFTER's sentinel check, before
    # that iteration's snapshot: the newest surviving checkpoint is
    # iteration KILL_AFTER - 1's.
    latest = CheckpointManager(ckpt_dir).load_latest()
    assert latest is not None
    assert latest.iteration == KILL_AFTER - 1

    # The published status never reached a terminal state.
    status = json.loads((killed / "jobs" / "drill" / "status.json").read_text())
    assert status["state"] in {"PENDING", "RUNNING"}

    # Second life: recovery resubmits the job under its original id; it
    # resumes from the checkpoint (the fault hook is not re-armed) and
    # completes.
    with DirectoryService(killed, n_workers=1) as service:
        assert service.run(drain=True, max_seconds=240)
        resumed_job = service.service.job("drill")
        assert resumed_job.state.value == "DONE"

    status = json.loads((killed / "jobs" / "drill" / "status.json").read_text())
    assert status["state"] == "DONE"

    # Reference: the same job, never killed, in an isolated queue dir.
    write_job_spec(reference, "ref", driver="icd", scan_path="scan.npz",
                   params=PARAMS)
    with DirectoryService(reference, n_workers=1) as service:
        assert service.run(drain=True, max_seconds=240)

    img_resumed, hist_resumed, _ = load_reconstruction(
        killed / "jobs" / "drill" / "result.npz"
    )
    img_ref, hist_ref, _ = load_reconstruction(
        reference / "jobs" / "ref" / "result.npz"
    )
    np.testing.assert_array_equal(img_resumed, img_ref)
    assert len(hist_resumed.records) == len(hist_ref.records)


def test_kill_drill_through_module_cli(queue_dirs):
    """The same drill driven end-to-end via ``python -m repro serve``."""
    killed, _ = queue_dirs
    submit = subprocess.run(
        [sys.executable, "-m", "repro", "submit", str(killed),
         "--driver", "icd", "--scan", "scan.npz",
         "--params", json.dumps(PARAMS), "--job-id", "cli-drill"],
        env=_ENV, capture_output=True, text=True, timeout=60,
    )
    assert submit.returncode == 0, submit.stderr
    # arm the fault by rewriting the accepted spec (the CLI exposes no
    # fault flag on purpose; it is a test-only hook)
    spec_path = killed / "incoming" / "cli-drill.json"
    doc = json.loads(spec_path.read_text())
    doc["fault"] = FAULT
    spec_path.write_text(json.dumps(doc))

    serve = [sys.executable, "-m", "repro", "serve", str(killed),
             "--workers", "1", "--drain", "--max-seconds", "240"]
    first = kill_server_mid_job(serve, killed / "jobs" / "cli-drill" / "checkpoints")
    assert first.returncode == -signal.SIGKILL, (
        f"exit {first.returncode}: {first.stderr!r}"
    )

    second = subprocess.run(serve, env=_ENV, capture_output=True, text=True,
                            timeout=300)
    assert second.returncode == 0, second.stderr
    assert "drained" in second.stdout

    status = subprocess.run(
        [sys.executable, "-m", "repro", "status", str(killed), "cli-drill"],
        env=_ENV, capture_output=True, text=True, timeout=60,
    )
    assert status.returncode == 0, status.stderr
    assert json.loads(status.stdout)["state"] == "DONE"
    assert (killed / "jobs" / "cli-drill" / "result.npz").exists()


# -- the same crash under a live ``serve-http`` gateway --------------------
#: Off the stop rule: the kill follows the first of about 60 checkpoints.
LIVE_PARAMS = {"max_equits": 60.0, "seed": 7, "track_cost": False, "stop_delta_hu": None}


def http(base: str, method: str, path: str, body=None) -> tuple[int, bytes]:
    """One exchange with the gateway; a 5xx anywhere fails the drill."""
    req = urllib.request.Request(base + path, body and json.dumps(body).encode(), method=method)
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        with exc:
            assert exc.code < 500, f"{method} {path} -> {exc.code}"
            return exc.code, exc.read()


def wait_until(predicate, timeout: float = 120.0):
    """Poll ``predicate`` until it returns something truthy, and return that."""
    deadline = time.monotonic() + timeout
    while not (value := predicate()):
        assert time.monotonic() < deadline, f"not reached within {timeout} s"
        time.sleep(0.01)
    return value


def test_killed_worker_under_live_gateway_resumes_bit_identical(tmp_path, scan32):
    save_scan(tmp_path / "scan.npz", scan32)
    ckpt_dir = tmp_path / "ckpt" / "drill" / "checkpoints"
    gateway = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve-http", "--port", "0",
         "--scan-root", str(tmp_path), "--workers", "1", "--job-ttl", "2",
         "--checkpoint-root", str(tmp_path / "ckpt")],
        env=_ENV, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True,
    )

    def status():
        code, raw = http(base, "GET", "/jobs/drill")
        return code, json.loads(raw)

    try:
        line = gateway.stdout.readline()
        assert (match := re.search(r"listening on (http://\S+)", line)), line
        base = match.group(1)
        body = {"driver": "icd", "scan": "scan.npz", "params": LIVE_PARAMS, "job_id": "drill"}
        assert http(base, "POST", "/jobs", body)[0] == 201
        wait_until(lambda: status()[1]["state"] == "RUNNING" and any(ckpt_dir.glob("ckpt-*")))
        # The job's worker; multiprocessing's resource tracker is not one.
        pids = subprocess.run(["pgrep", "-P", str(gateway.pid)], capture_output=True, text=True)
        (worker,) = [int(pid) for pid in pids.stdout.split()
                     if b"resource_tracker" not in Path(f"/proc/{pid}/cmdline").read_bytes()]
        # Frozen with the job RUNNING and no result written, the worker is
        # mid-job when the SIGKILL lands.
        os.kill(worker, signal.SIGSTOP)
        stat = Path(f"/proc/{worker}/stat")
        wait_until(lambda: stat.read_text().rsplit(")", 1)[1].split()[0] == "T")
        assert status()[1]["state"] == "RUNNING"
        assert not worker_result_path(ckpt_dir).exists()
        os.kill(worker, signal.SIGKILL)

        # The supervisor respawns the worker and the job resumes to DONE.
        wait_until(lambda: status()[1]["state"] not in ("PENDING", "RUNNING"))
        assert status()[1]["state"] == "DONE", status()
        crashes = b'repro_counter_total{name="service.worker_crashes"} 1'
        assert crashes in http(base, "GET", "/metrics")[1]
        code, raw = http(base, "GET", "/jobs/drill/result")
        assert code == 200
        (tmp_path / "drill.npz").write_bytes(raw)
        ref = run_job(JobSpec(driver="icd", scan=scan32, params=LIVE_PARAMS),
                      checkpoint_dir=tmp_path / "reference")
        assert np.array_equal(load_reconstruction(tmp_path / "drill.npz")[0], ref.image)

        # Evicted after its TTL: the id answers 410, not 404.
        wait_until(lambda: status()[0] != 200, timeout=60)
        code, doc = status()
        assert code == 410 and doc["evicted"] is True, (code, doc)
        gateway.send_signal(signal.SIGINT)
        assert gateway.wait(timeout=60) == 0
        with pytest.raises(ProcessLookupError):  # no worker outlived the gateway
            os.killpg(gateway.pid, 0)
    finally:
        try:
            os.killpg(gateway.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        gateway.communicate(timeout=60)
