"""Persistence: save and load scans, images and reconstruction histories.

Plain ``.npz`` containers with a small schema (format tag + version), so
scans synthesised once (e.g. a large benchmark ensemble) can be reused
across sessions and reconstructions can be archived next to their
convergence histories.

Crash-safety contract (DESIGN.md §11): :func:`atomic_write` is the
repo's one durable write.  The npz savers here, checkpoint saves, and the
service's status, spec and verdict files all go through it: the payload is
written and fsynced to a uniquely named temp file in the target directory,
then moved over the destination with ``os.replace``.  A process killed
mid-save therefore leaves either the old file or the new one, never a torn
half-write.  Every reader raises the typed :class:`CorruptFileError` (a
``ValueError`` subclass) naming the missing or unreadable key instead of
surfacing raw ``KeyError`` / ``EOFError`` / ``BadZipFile`` from the npz
internals.

Fault injection: tests and the chaos harness often run as root, which
ignores permission bits, so ``chmod`` cannot make a directory unwritable.
Instead :func:`atomic_write` first calls :func:`check_disk_fault`: a
``.disk-fault`` sentinel file in the target directory
(:func:`arm_disk_fault`) makes the write raise the ``OSError`` named inside
it (default ``ENOSPC``).  The sentinel crosses ``fork`` for free and clears
by deleting the file.
"""

from __future__ import annotations

import errno as errno_mod
import itertools
import json
import os
import threading
import zipfile
from pathlib import Path
from typing import BinaryIO, Callable

import numpy as np

from repro.core.convergence import IterationRecord, RunHistory
from repro.ct.geometry import ParallelBeamGeometry
from repro.ct.sinogram import ScanData

__all__ = [
    "CorruptFileError",
    "DISK_FAULT_SENTINEL",
    "check_disk_fault",
    "arm_disk_fault",
    "disarm_disk_fault",
    "atomic_write",
    "save_scan",
    "load_scan",
    "save_volume_scan",
    "load_volume_scan",
    "save_reconstruction",
    "load_reconstruction",
]

_SCAN_FORMAT = "repro-scan-v1"
_VOLSCAN_FORMAT = "repro-volscan-v1"
_RECON_FORMAT = "repro-recon-v1"


class CorruptFileError(ValueError):
    """A persisted file is unreadable, truncated, or missing a required key.

    Subclasses ``ValueError`` so callers that guarded the old format-tag
    check (which raised ``ValueError``) keep working unchanged.
    """


#: Basename of the fault-injection sentinel every durable write honours.
DISK_FAULT_SENTINEL = ".disk-fault"


def check_disk_fault(directory: str | Path) -> None:
    """Raise the injected :class:`OSError` if ``directory`` carries one.

    A ``.disk-fault`` sentinel file names the errno to raise (``ENOSPC``
    when empty or unreadable).  Production directories never contain one,
    so the healthy-path cost is a single ``open`` that fails.
    """
    sentinel = Path(directory) / DISK_FAULT_SENTINEL
    try:
        name = sentinel.read_text().strip() or "ENOSPC"
    except FileNotFoundError:
        return
    except OSError:
        name = "ENOSPC"
    code = getattr(errno_mod, name, errno_mod.ENOSPC)
    raise OSError(code, f"{os.strerror(code)} [injected: {sentinel}]")


def arm_disk_fault(directory: str | Path, errno_name: str = "ENOSPC") -> Path:
    """Plant a disk-fault sentinel in ``directory`` (created if missing)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    sentinel = directory / DISK_FAULT_SENTINEL
    sentinel.write_text(errno_name)
    return sentinel


def disarm_disk_fault(directory: str | Path) -> None:
    """Clear a planted disk-fault sentinel; idempotent."""
    (Path(directory) / DISK_FAULT_SENTINEL).unlink(missing_ok=True)


#: Disambiguates concurrent same-path writers beyond (pid, thread id): a
#: thread can write the same path twice, and thread ids are reused.
_tmp_counter = itertools.count()


def atomic_write(path: str | Path, data: bytes | Callable[[BinaryIO], object]) -> Path:
    """Durably replace ``path`` with ``data``; returns ``path`` as a :class:`Path`.

    ``data`` is the file's bytes, or a function that writes them to the
    open binary file it is given.  The target directory is created if
    missing and checked for a ``.disk-fault`` sentinel.  The payload goes
    to a temp file in that directory, which is fsynced and then moved over
    ``path`` with ``os.replace``.  On any exception the temp file is
    removed and the exception propagates.

    The temp name is unique per (pid, thread, write): two service workers
    finishing jobs with the same cache key write the same final path, and
    with distinct temp files the only shared step is ``os.replace``, which
    is atomic and last-writer-wins.
    """
    final = Path(path)
    final.parent.mkdir(parents=True, exist_ok=True)
    check_disk_fault(final.parent)
    tmp = final.with_name(
        f".{final.name}.tmp-{os.getpid()}-{threading.get_ident()}"
        f"-{next(_tmp_counter)}"
    )
    try:
        with open(tmp, "wb") as f:
            if callable(data):
                data(f)
            else:
                f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, final)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return final


def _savez(path: str | Path, payload: dict) -> Path:
    """:func:`atomic_write` of a compressed npz, appending ``.npz`` when missing."""
    final = Path(path)
    if final.suffix != ".npz":
        final = final.with_name(final.name + ".npz")
    return atomic_write(final, lambda f: np.savez_compressed(f, **payload))


def _open_npz(path: Path, kind: str):
    """``np.load`` with unreadable/truncated files mapped to :class:`CorruptFileError`."""
    try:
        return np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise CorruptFileError(f"{path}: unreadable {kind} file ({exc})") from exc


#: numpy parses each npz entry's header with ``ast.literal_eval``, which
#: CPython 3.11 can fail with ``SystemError`` ("AST constructor recursion
#: depth mismatch") when two threads run it at once.  A serving process
#: reads npz files from several threads (scheduler supervisors, gateway
#: handlers, the result cache's disk tier), so entry reads take turns.
_read_lock = threading.Lock()


def _fresh_read_lock() -> None:
    """Give a forked child its own, unlocked read lock.

    A lock another thread held at fork time stays locked in the child,
    where no thread is left to release it.
    """
    global _read_lock
    _read_lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_read_lock)


def _read_key(data, key: str, path: Path):
    """Read one npz entry, naming ``key`` in any corruption error."""
    try:
        with _read_lock:
            return data[key]
    except KeyError:
        raise CorruptFileError(f"{path}: missing required key {key!r}") from None
    except Exception as exc:  # zlib/zip errors surface lazily at read time
        raise CorruptFileError(f"{path}: key {key!r} is unreadable ({exc})") from exc


def _read_json_key(data, key: str, path: Path) -> dict:
    raw = _read_key(data, key, path)
    try:
        return json.loads(str(raw))
    except (json.JSONDecodeError, TypeError) as exc:
        raise CorruptFileError(f"{path}: key {key!r} holds invalid JSON ({exc})") from exc


def _geometry_meta(geometry: ParallelBeamGeometry) -> dict:
    return {
        "n_pixels": geometry.n_pixels,
        "n_views": geometry.n_views,
        "n_channels": geometry.n_channels,
        "pixel_size": geometry.pixel_size,
        "channel_spacing": geometry.channel_spacing,
    }


def _geometry_from_meta(meta: dict, path: Path) -> ParallelBeamGeometry:
    try:
        return ParallelBeamGeometry(
            n_pixels=int(meta["n_pixels"]),
            n_views=int(meta["n_views"]),
            n_channels=int(meta["n_channels"]),
            pixel_size=float(meta["pixel_size"]),
            channel_spacing=float(meta["channel_spacing"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptFileError(f"{path}: key 'geometry' is invalid ({exc})") from exc


def save_scan(path: str | Path, scan: ScanData) -> None:
    """Write a scan (sinogram, weights, geometry, optional truth) to ``path``.

    The write is atomic: a crash mid-save cannot leave a torn file.
    """
    payload = {
        "format": np.array(_SCAN_FORMAT),
        "geometry": np.array(json.dumps(_geometry_meta(scan.geometry))),
        "sinogram": scan.sinogram,
        "weights": scan.weights,
    }
    if scan.ground_truth is not None:
        payload["ground_truth"] = scan.ground_truth
    _savez(path, payload)


def load_scan(path: str | Path) -> ScanData:
    """Read a scan written by :func:`save_scan`.

    Raises :class:`CorruptFileError` (naming the offending key) for
    truncated, unreadable, or schema-incomplete files.
    """
    path = Path(path)
    with _open_npz(path, "scan") as data:
        fmt = str(_read_key(data, "format", path))
        if fmt != _SCAN_FORMAT:
            raise CorruptFileError(f"{path}: not a repro scan file (format={fmt!r})")
        geometry = _geometry_from_meta(_read_json_key(data, "geometry", path), path)
        sinogram = np.asarray(_read_key(data, "sinogram", path), dtype=np.float64)
        weights = np.asarray(_read_key(data, "weights", path), dtype=np.float64)
        ground_truth = (
            np.asarray(_read_key(data, "ground_truth", path))
            if "ground_truth" in data
            else None
        )
        return ScanData(
            geometry=geometry,
            sinogram=sinogram,
            weights=weights,
            ground_truth=ground_truth,
        )


def save_volume_scan(path: str | Path, scans: "list[ScanData]") -> None:
    """Write a multi-slice scan stack (one shared geometry) to ``path``.

    ``scans`` is one :class:`ScanData` per axial slice, all on the same
    acquisition geometry (as produced by
    :func:`repro.core.volume.simulate_volume_scan`).  Sinograms and weights
    are stacked into ``(n_slices, n_views, n_channels)`` arrays; per-slice
    ground truths are stacked too when *every* slice carries one, and
    dropped otherwise.  The write is atomic.
    """
    if not scans:
        raise ValueError("scans must be a non-empty list of ScanData")
    geometry = scans[0].geometry
    for k, scan in enumerate(scans):
        if scan.geometry != geometry:
            raise ValueError(
                f"slice {k} geometry differs from slice 0; a volume scan "
                "shares one acquisition geometry across slices"
            )
    payload = {
        "format": np.array(_VOLSCAN_FORMAT),
        "geometry": np.array(json.dumps(_geometry_meta(geometry))),
        "sinograms": np.stack([s.sinogram for s in scans]),
        "weights": np.stack([s.weights for s in scans]),
    }
    if all(s.ground_truth is not None for s in scans):
        payload["ground_truth"] = np.stack([s.ground_truth for s in scans])
    _savez(path, payload)


def load_volume_scan(path: str | Path) -> "list[ScanData]":
    """Read the per-slice scans written by :func:`save_volume_scan`.

    Raises :class:`CorruptFileError` (naming the offending key) for
    truncated, unreadable, or schema-incomplete files.
    """
    path = Path(path)
    with _open_npz(path, "volume scan") as data:
        fmt = str(_read_key(data, "format", path))
        if fmt != _VOLSCAN_FORMAT:
            raise CorruptFileError(
                f"{path}: not a repro volume-scan file (format={fmt!r})"
            )
        geometry = _geometry_from_meta(_read_json_key(data, "geometry", path), path)
        sinograms = np.asarray(_read_key(data, "sinograms", path), dtype=np.float64)
        weights = np.asarray(_read_key(data, "weights", path), dtype=np.float64)
        if sinograms.ndim != 3 or weights.shape != sinograms.shape:
            raise CorruptFileError(
                f"{path}: sinograms/weights must be matching 3-D stacks, got "
                f"{sinograms.shape} / {weights.shape}"
            )
        truth = (
            np.asarray(_read_key(data, "ground_truth", path))
            if "ground_truth" in data
            else None
        )
        return [
            ScanData(
                geometry=geometry,
                sinogram=sinograms[k],
                weights=weights[k],
                ground_truth=None if truth is None else truth[k],
            )
            for k in range(sinograms.shape[0])
        ]


def save_reconstruction(
    path: str | Path,
    image: np.ndarray,
    history: RunHistory | None = None,
    *,
    metadata: dict | None = None,
) -> None:
    """Write a reconstructed image plus its convergence history.

    The write is atomic: a crash mid-save cannot leave a torn file.
    """
    payload: dict = {
        "format": np.array(_RECON_FORMAT),
        "image": np.asarray(image),
        "metadata": np.array(json.dumps(metadata or {})),
    }
    if history is not None:
        payload["hist_iteration"] = np.array([r.iteration for r in history.records])
        payload["hist_equits"] = np.array([r.equits for r in history.records])
        payload["hist_cost"] = np.array([r.cost for r in history.records])
        payload["hist_rmse"] = np.array(
            [np.nan if r.rmse is None else r.rmse for r in history.records]
        )
        payload["hist_updates"] = np.array([r.updates for r in history.records])
        payload["hist_svs"] = np.array([r.svs_updated for r in history.records])
        payload["hist_delta_hu"] = np.array(
            [np.nan if r.delta_hu is None else r.delta_hu for r in history.records]
        )
        payload["converged_equits"] = np.array(
            np.nan if history.converged_equits is None else history.converged_equits
        )
        # NaN encodes None for the optional convergence fields; iteration
        # numbers are integers, so the float carrier round-trips exactly.
        payload["converged_iteration"] = np.array(
            np.nan if history.converged_iteration is None else float(history.converged_iteration)
        )
        payload["converged_threshold_hu"] = np.array(
            np.nan if history.converged_threshold_hu is None else history.converged_threshold_hu
        )
        payload["stop_reason"] = np.array(history.stop_reason or "")
    _savez(path, payload)


def load_reconstruction(path: str | Path) -> tuple[np.ndarray, RunHistory | None, dict]:
    """Read ``(image, history, metadata)`` written by :func:`save_reconstruction`.

    Raises :class:`CorruptFileError` (naming the offending key) for
    truncated, unreadable, or schema-incomplete files.
    """
    path = Path(path)
    with _open_npz(path, "reconstruction") as data:
        fmt = str(_read_key(data, "format", path))
        if fmt != _RECON_FORMAT:
            raise CorruptFileError(
                f"{path}: not a repro reconstruction file (format={fmt!r})"
            )
        image = np.asarray(_read_key(data, "image", path))
        metadata = _read_json_key(data, "metadata", path)
        history = None
        if "hist_iteration" in data:
            history = RunHistory()
            iterations = _read_key(data, "hist_iteration", path)
            equits = _read_key(data, "hist_equits", path)
            costs = _read_key(data, "hist_cost", path)
            rmses = _read_key(data, "hist_rmse", path)
            updates = _read_key(data, "hist_updates", path)
            svs = _read_key(data, "hist_svs", path)
            # Files written before the per-iteration statistic and the stop
            # reason existed lack their keys; both load as None.
            deltas = (
                _read_key(data, "hist_delta_hu", path)
                if "hist_delta_hu" in data
                else np.full(iterations.size, np.nan)
            )
            lengths = {a.size for a in (iterations, equits, costs, rmses, updates, svs, deltas)}
            if len(lengths) != 1:
                raise CorruptFileError(
                    f"{path}: history arrays have mismatched lengths {sorted(lengths)}"
                )
            for i in range(iterations.size):
                history.append(
                    IterationRecord(
                        iteration=int(iterations[i]),
                        equits=float(equits[i]),
                        cost=float(costs[i]),
                        rmse=None if np.isnan(rmses[i]) else float(rmses[i]),
                        updates=int(updates[i]),
                        svs_updated=int(svs[i]),
                        delta_hu=None if np.isnan(deltas[i]) else float(deltas[i]),
                    )
                )
            ce = float(_read_key(data, "converged_equits", path))
            if not np.isnan(ce):
                history.converged_equits = ce
            # Files written before these fields existed simply lack the keys
            # (the v1 format tag is unchanged); leave the attributes None.
            if "converged_iteration" in data:
                ci = float(_read_key(data, "converged_iteration", path))
                if not np.isnan(ci):
                    history.converged_iteration = int(ci)
            if "converged_threshold_hu" in data:
                ct = float(_read_key(data, "converged_threshold_hu", path))
                if not np.isnan(ct):
                    history.converged_threshold_hu = ct
            if "stop_reason" in data:
                history.stop_reason = str(_read_key(data, "stop_reason", path)) or None
        return image, history, metadata
