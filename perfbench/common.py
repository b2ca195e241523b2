"""Shared plumbing: checkout paths, statistics, resource sampling, references.

Everything the benchmark writes lives under ``.perfbench/`` at the root of
the checkout (ignored by git): per-run work directories, which each run
removes when it ends, and the reference cache, which persists so that
golden images are computed once per input and reused across runs.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

#: Paper §5.2: a solve has converged when it is within 10 HU RMSE of golden.
TARGET_HU = 10.0
#: BENCH_10's pin for a rows-mode group against the unsharded solve.
ROWS_PIN_HU = 8.0
#: Iterations of sequential ICD that define the golden image (§5.2).
GOLDEN_EQUITS = 40.0

class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def import_repro() -> None:
    """Put the checkout's ``src`` on ``sys.path``, or raise if it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# -- statistics ---------------------------------------------------------
def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values, *, min_beyond: int = 10) -> tuple[float, float] | None:
    """``(percentile, value)`` of the highest percentile with at least
    ``min_beyond`` samples beyond it, or ``None`` when the sample is too
    small.  Failed or refused operations enter as ``math.inf``.
    """
    ordered = sorted(values)
    k = len(ordered) - 1 - min_beyond
    if k < 0:
        return None
    return 100.0 * (k + 1) / len(ordered), ordered[k]


# -- host speed ---------------------------------------------------------
class HostProbe:
    """A fixed compute kernel that records the host's speed during a run.

    Wall-clock time on a shared host drifts by tens of per cent over
    minutes, whatever the program does.  The probe is a fixed NumPy gather,
    scatter and dot loop plus an interpreter loop — the operation mix of
    the solvers — that shares no code with the program.  Workloads time it
    before and after their timed window and report its median as
    ``host.probe_s``, a covariate beside the measured times; no metric is
    scaled by it.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._e = rng.standard_normal(1 << 19)
        self._idx = [rng.integers(0, self._e.size, 600) for _ in range(64)]
        self._w = rng.standard_normal(600)
        self._m = rng.standard_normal((96, 96))
        self.samples: list[float] = []

    def probe_once(self) -> float:
        t0 = time.perf_counter()
        for _ in range(40):
            for idx in self._idx:
                g = self._e[idx]
                float(self._w @ g)
                self._e[idx] = g - 1e-9 * self._w
            self._m @ self._m
        x = 0
        for i in range(60000):
            x += i & 7
        return time.perf_counter() - t0

    def measure(self, n: int) -> None:
        self.samples.extend(self.probe_once() for _ in range(n))

    @property
    def probe_s(self) -> float:
        return median(self.samples)


# -- resources ----------------------------------------------------------
def adopt_orphans() -> None:
    """Make this process the child subreaper of its descendants
    (``PR_SET_CHILD_SUBREAPER``): a process whose parent dies is handed to
    this one rather than to init, so :func:`reap_children` can wait for it.
    """
    if ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def reap_children() -> None:
    """Kill every live descendant of this process and wait until no child,
    live or exited, is left."""
    while True:
        for pid in children_of(os.getpid()):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def children_of(pid: int) -> list[int]:
    """Every live descendant of ``pid``, whichever of its threads forked it."""
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        for children in Path(f"/proc/{p}/task").glob("*/children"):
            try:
                kids = [int(k) for k in children.read_text().split()]
            except OSError:  # the thread or process has exited
                continue
            out.extend(kids)
            todo.extend(kids)
    return out


def pss_mb(pid: int) -> float:
    """Proportional set size of one process in MB (0 if it is gone)."""
    try:
        text = Path(f"/proc/{pid}/smaps_rollup").read_text()
    except OSError:
        return 0.0
    m = re.search(r"^Pss:\s+(\d+) kB", text, re.M)
    return int(m.group(1)) / 1024.0 if m else 0.0


def tree_pss_mb(pid: int) -> float:
    return sum(pss_mb(p) for p in [pid, *children_of(pid)])


def reset_self_peak_rss() -> None:
    """Restart this process's resident-set high-water mark from its
    current resident set (``/proc/self/clear_refs``, value 5)."""
    Path("/proc/self/clear_refs").write_text("5")


def self_peak_rss_mb() -> float:
    """The kernel's high-water mark of this process's resident set, in MB,
    since the process started or :func:`reset_self_peak_rss` was called."""
    m = re.search(r"^VmHWM:\s+(\d+) kB", Path("/proc/self/status").read_text(), re.M)
    return int(m.group(1)) / 1024.0


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds ``pid`` has used, from ``/proc/<pid>/stat``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def dir_bytes(*dirs: Path) -> int:
    total = 0
    for d in dirs:
        for p in Path(d).rglob("*"):
            if p.is_file():
                total += p.stat().st_size
    return total


# -- environment --------------------------------------------------------
def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        mem_kb = int(re.search(r"MemTotal:\s+(\d+)", Path("/proc/meminfo").read_text()).group(1))
    except (OSError, AttributeError):
        mem_kb = 0
    return {
        "nproc": nproc(),
        "mem_total_gb": round(mem_kb / 2**20, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "code_sha": code_sha(),
        "seed": seed,
    }


def git_sha() -> str:
    """The checkout's commit, or ``"unknown"`` when it is not a git tree."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def code_sha() -> str:
    """Digest of the program's and the benchmark's Python sources, which
    names the code a run measured even when the checkout is not a git tree."""
    h = hashlib.sha256()
    for base in (SRC, ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


# -- references ---------------------------------------------------------
def scan_key(scan) -> str:
    """Content key of a scan: geometry, sinogram and weights bytes."""
    h = hashlib.sha256()
    g = scan.geometry
    h.update(repr((g.n_pixels, g.n_views, g.n_channels, g.pixel_size, g.channel_spacing)).encode())
    h.update(scan.sinogram.tobytes())
    h.update(scan.weights.tobytes())
    return h.hexdigest()[:32]


def _golden(scan, system):
    from repro.core.icd import golden_reconstruction

    return golden_reconstruction(scan, system, equits=GOLDEN_EQUITS)


def _unsharded(scan, system, iterations: int, seed: int):
    from repro.core.icd import icd_reconstruct

    return icd_reconstruct(
        scan, system, max_iterations=iterations, seed=seed, track_cost=False
    ).image


class References:
    """Reference images cached on disk, keyed by the scan bytes.

    ``golden`` is the paper's 40-equit sequential-ICD image; ``unsharded``
    is the plain ICD solve a rows-mode group is pinned against.  Missing
    references are computed in this process, one after another, with one
    system matrix per geometry, so a run starts no process for them; the
    seconds spent doing so are kept in :attr:`build_s`, apart from set-up.
    """

    def __init__(self, directory: Path = STATE / "refs") -> None:
        self.directory = Path(directory)
        self.build_s = 0.0
        self.built = 0

    def _path(self, kind: str, scan, *extra) -> Path:
        suffix = "-".join(str(e) for e in extra)
        return self.directory / f"{scan_key(scan)}-{kind}{'-' + suffix if suffix else ''}.npy"

    def goldens(self, scans) -> list:
        return self._ensure([(self._path("golden40", s), _golden, s, ()) for s in scans])

    def unsharded(self, requests) -> list:
        """``requests``: ``(scan, iterations, seed)`` triples."""
        return self._ensure(
            [(self._path("icd", s, it, sd), _unsharded, s, (it, sd)) for s, it, sd in requests]
        )

    def _ensure(self, items) -> list:
        import numpy as np
        from repro.ct.system_matrix import build_system_matrix

        missing = {p: (fn, scan, extra) for p, fn, scan, extra in items if not p.is_file()}
        if missing:
            t0 = time.perf_counter()
            self.directory.mkdir(parents=True, exist_ok=True)
            systems = {}
            for p, (fn, scan, extra) in missing.items():
                if scan.geometry not in systems:
                    systems[scan.geometry] = build_system_matrix(scan.geometry)
                tmp = p.with_suffix(f".tmp{os.getpid()}.npy")
                np.save(tmp, fn(scan, systems[scan.geometry], *extra))
                os.replace(tmp, p)
            self.build_s += time.perf_counter() - t0
            self.built += len(missing)
        return [np.load(p) for p, *_ in items]
