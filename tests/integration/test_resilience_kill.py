"""SIGKILL a real reconstruction mid-run, resume it, assert bit-identity.

This is the end-to-end crash drill the checkpoint layer exists for: a child
process runs a checkpointed reconstruction with a
:class:`~repro.resilience.FaultInjector` scheduled to SIGKILL it after a
mid-run iteration (so no ``finally``/atexit cleanup runs), the parent
verifies the child actually died by signal, then resumes from the surviving
checkpoint directory and compares against an uninterrupted reference run —
exact array equality, no tolerances.

CI runs this file under its "resilience" job with a pytest timeout.
"""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import (
    CheckpointManager,
    GPUICDParams,
    gpu_icd_reconstruct,
    icd_reconstruct,
    psv_icd_reconstruct,
)
from repro.ct import build_system_matrix, scaled_geometry, shepp_logan, simulate_scan

COMMON = dict(max_equits=4.0, seed=0, track_cost=False)
KILL_AFTER = 2  # iterations completed before the SIGKILL fires

_CHILD = """\
import sys
from repro import (CheckpointManager, FaultInjector, GPUICDParams,
                   IntegritySentinel, gpu_icd_reconstruct, icd_reconstruct,
                   psv_icd_reconstruct)
from repro.ct import build_system_matrix, scaled_geometry, shepp_logan, simulate_scan

driver, ckpt_dir, kill_after = sys.argv[1], sys.argv[2], int(sys.argv[3])
system = build_system_matrix(scaled_geometry(16))
scan = simulate_scan(shepp_logan(16), system, seed=3)
common = dict(max_equits=4.0, seed=0, track_cost=False)
sentinel = IntegritySentinel(fault_injector=FaultInjector().kill_at(kill_after))
manager = CheckpointManager(ckpt_dir, keep=3)
if driver == "icd":
    icd_reconstruct(scan, system, checkpoint=manager, sentinel=sentinel, **common)
elif driver == "psv_icd":
    psv_icd_reconstruct(scan, system, sv_side=6, checkpoint=manager,
                        sentinel=sentinel, **common)
else:
    gpu_icd_reconstruct(scan, system, params=GPUICDParams(sv_side=8, batch_size=4),
                        checkpoint=manager, sentinel=sentinel, **common)
print("UNREACHABLE: run completed without being killed")
sys.exit(3)
"""


@pytest.fixture(scope="module")
def system16m():
    return build_system_matrix(scaled_geometry(16))


@pytest.fixture(scope="module")
def scan16m(system16m):
    return simulate_scan(shepp_logan(16), system16m, seed=3)


def run_driver(driver, scan, system, **kwargs):
    if driver == "icd":
        return icd_reconstruct(scan, system, **COMMON, **kwargs)
    if driver == "psv_icd":
        return psv_icd_reconstruct(scan, system, sv_side=6, **COMMON, **kwargs)
    params = GPUICDParams(sv_side=8, batch_size=4)
    return gpu_icd_reconstruct(scan, system, params=params, **COMMON, **kwargs)


@pytest.mark.parametrize("driver", ["icd", "psv_icd", "gpu_icd"])
def test_sigkill_then_resume_bit_identical(driver, scan16m, system16m, tmp_path):
    ckpt_dir = tmp_path / driver
    src_dir = str(Path(__file__).resolve().parents[2] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD, driver, str(ckpt_dir), str(KILL_AFTER)],
        env={"PYTHONPATH": src_dir, "PATH": "/usr/bin:/bin"},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        returncode = proc.wait(timeout=300)
    finally:
        # Reap anything the child left in its session (start_new_session
        # makes it the group leader) before draining its pipes: a
        # straggler holding stdout/stderr open would hang the drain.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    stdout, stderr = proc.communicate(timeout=60)
    # died by SIGKILL, not by finishing or erroring out
    assert returncode == -signal.SIGKILL, (
        f"child exited {returncode}; stdout={stdout!r} stderr={stderr!r}"
    )

    # the kill fired after iteration KILL_AFTER's sentinel check, i.e. before
    # that iteration's checkpoint was written: the newest surviving file is
    # the previous iteration's.
    manager = CheckpointManager(ckpt_dir)
    latest = manager.load_latest()
    assert latest is not None
    assert latest.iteration == KILL_AFTER - 1

    ref = run_driver(driver, scan16m, system16m)
    res = run_driver(driver, scan16m, system16m, resume_from=ckpt_dir)
    np.testing.assert_array_equal(ref.image, res.image)
    np.testing.assert_array_equal(ref.error_sinogram, res.error_sinogram)
    assert len(ref.history.records) == len(res.history.records)
