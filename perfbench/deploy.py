"""Set-up shared by the service workloads: inputs, a fresh server, warm-up."""

from __future__ import annotations

import json
import time
from pathlib import Path

import common
from server import Server, request

#: Each service run deploys this many servers back to back (the last one
#: is measured); ``setup_s`` is the median of their set-up times.
SETUP_REPEATS = 3


def work_dir(workload: str, seed: int) -> Path:
    path = common.STATE / "work" / f"{workload}-{seed}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    return path


def scans_for(pixels: int, make):
    from repro import scaled_geometry
    from repro.ct.system_matrix import build_system_matrix

    return make(build_system_matrix(scaled_geometry(pixels)))


def deploy(work: Path, pixels: int, make, write, *, trace: bool):
    """Deploy :data:`SETUP_REPEATS` servers; keep the last one running.

    Each set-up generates the inputs (``make(system)``), writes them under
    the server's scan root (``write(scan_root, scans)`` returns the scan
    names), starts the server and completes one warm-up job on the
    geometry.  Returns ``(server, names, setup_times)``.
    """
    times = []
    server = None
    for k in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        t0 = time.perf_counter()
        scans = scans_for(pixels, make)
        srv_dir = work / f"server{k}"
        trace_dir = srv_dir / "trace" if trace else None
        if trace_dir is not None:
            trace_dir.mkdir(parents=True)
        server = Server(srv_dir, workers=common.nproc(), trace_dir=trace_dir)
        names = write(server.scan_root, scans)
        try:
            server.start()
            warm_up(server, names[0])
        except BaseException:
            server.stop()
            raise
        times.append(time.perf_counter() - t0)
    return server, names, times


def warm_up(server: Server, scan_name: str) -> None:
    status, _, body = request(server, "POST", "/jobs", {
        "driver": "icd", "scan": scan_name, "params": {"max_equits": 1.0},
    })
    if status != 201:
        raise RuntimeError(f"warm-up job refused: {status} {body[:200]!r}")
    job_id = json.loads(body)["job_id"]
    status, _, body = request(server, "GET", f"/jobs/{job_id}/result?timeout=300")
    if status != 200:
        raise RuntimeError(f"warm-up job failed: {status} {body[:200]!r}")
