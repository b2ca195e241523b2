"""A fresh ``python -m repro serve-http`` deployment and a minimal client.

The deployment is the README's ("Serving reconstructions over HTTP"):
``--workers <nproc> --worker-model process --job-ttl 3600
--max-queue-depth 32 --cache-dir …``, with a fresh scan root, checkpoint
root and cache directory per server, so nothing carries from one run to
the next.  A traced server starts through :mod:`launcher` instead, which
wraps the program's layers before serving.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import common

HERE = Path(__file__).resolve().parent


class Server:
    def __init__(self, work: Path, *, workers: int, trace_dir: Path | None = None) -> None:
        self.work = Path(work)
        self.scan_root = self.work / "scans"
        self.checkpoint_root = self.work / "checkpoints"
        self.cache_dir = self.work / "cache"
        self.tmp = self.work / "tmp"
        self.log = self.work / "server.log"
        self.workers = workers
        self.trace_dir = trace_dir
        self.proc: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0
        for d in (self.scan_root, self.checkpoint_root, self.cache_dir, self.tmp):
            d.mkdir(parents=True, exist_ok=True)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def command(self) -> list[str]:
        args = [
            "serve-http", "--host", self.host, "--port", "0",
            "--scan-root", str(self.scan_root),
            "--workers", str(self.workers), "--worker-model", "process",
            "--job-ttl", "3600", "--max-queue-depth", "32",
            "--cache-dir", str(self.cache_dir),
            "--checkpoint-root", str(self.checkpoint_root),
        ]
        if self.trace_dir is None:
            return [sys.executable, "-m", "repro", *args]
        return [sys.executable, str(HERE / "launcher.py"), str(self.trace_dir), *args]

    def start(self, timeout: float = 120.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(common.SRC)
        env["PYTHONUNBUFFERED"] = "1"
        env["TMPDIR"] = str(self.tmp)  # the gateway spools results through tempfile
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                self.command(), cwd=common.ROOT, env=env, stdout=log,
                stderr=subprocess.STDOUT, start_new_session=True,
            )
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            m = re.search(r"listening on http://[^:]+:(\d+)", self.log.read_text(errors="replace"))
            if m:
                self.port = int(m.group(1))
                break
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early:\n{self.log.read_text()}")
            time.sleep(0.02)
        else:
            raise RuntimeError("server did not report its port")
        while time.monotonic() < deadline:
            try:
                if request(self, "GET", "/healthz", timeout=5)[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.02)
        raise RuntimeError("server never became healthy")

    def stop(self) -> None:
        """Stop the gateway and every process it started; wait for them."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc = None
        # Workers the gateway left behind were handed to this process
        # (common.adopt_orphans); a run has one server at a time, so every
        # child left now is one of them.
        common.reap_children()

    def disk_bytes(self) -> int:
        return common.dir_bytes(self.checkpoint_root, self.cache_dir)


def request(server: Server, method: str, path: str, body: dict | None = None,
            timeout: float = 330.0) -> tuple[int, dict, bytes]:
    """One HTTP exchange on its own connection: ``(status, headers, body)``."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body).encode()
        headers = {} if body is None else {"Content-Type": "application/json"}
        conn.request(method, path, body=payload, headers=headers)
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def read_image(data: bytes, tmp_dir: Path):
    """The image of a ``result.npz`` body, read with the program's reader."""
    from repro.io import load_reconstruction

    path = tmp_dir / f"result-{os.getpid()}-{time.monotonic_ns()}.npz"
    path.write_bytes(data)
    try:
        return load_reconstruction(path)[0]
    finally:
        path.unlink()


class PeakSampler:
    """Peak PSS of a process tree, sampled when :meth:`sample` is called."""

    def __init__(self, pid: int, interval: float = 0.25) -> None:
        self.pid = pid
        self.interval = interval
        self.peak_mb = 0.0
        self.samples = 0
        self._last = 0.0

    def sample(self, force: bool = False) -> None:
        now = time.monotonic()
        if force or now - self._last >= self.interval:
            self._last = now
            self.peak_mb = max(self.peak_mb, common.tree_pss_mb(self.pid))
            self.samples += 1

    def wait(self, seconds: float) -> None:
        """Sleep ``seconds`` while sampling."""
        end = time.monotonic() + seconds
        while True:
            self.sample()
            left = end - time.monotonic()
            if left <= 0:
                return
            time.sleep(min(left, self.interval))
