"""Content-addressed result cache for the reconstruction service.

The cache key is a sha256 over everything that determines a reconstruction
bit-for-bit: the driver name, the driver parameters (canonical sorted-key
JSON), the acquisition geometry, and the raw bytes of the sinogram and the
statistical weights.  Two submissions with identical inputs therefore map to
the same key, and the second is served the first's volume without running a
single iteration — the ``service.jobs_deduped`` counter counts these.

Entries live in memory and, when a directory is given, are also persisted
via :func:`repro.io.save_reconstruction` (``<key>.npz``), so a restarted
service re-serves results computed by a previous life.  The in-memory tier
can be LRU-bounded (``max_memory_entries``) for long-lived services: the
least-recently-used volume is dropped from RAM when the bound is exceeded,
but its disk entry (when persistence is on) keeps serving hits.

The disk tier is best-effort redundancy, never load-bearing: an
``OSError`` on a persist (ENOSPC, EIO, read-only remount) keeps the
in-memory entry and counts ``disk_write_failures``; an ``OSError`` on a
read-back is a miss that recomputes, counting ``disk_read_failures``.  A
sick cache volume therefore costs dedup hit-rate, not jobs.  Both counts
reach ``ReconstructionService.report()`` as
``service.cache_disk_write_failures`` / ``service.cache_disk_read_failures``
and ``/metrics`` as gauges.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.convergence import RunHistory
from repro.ct.sinogram import ScanData
from repro.io import CorruptFileError, check_disk_fault, load_reconstruction, save_reconstruction

__all__ = ["cache_key", "CachedResult", "ResultCache"]


def _canonical_params(params: dict[str, Any]) -> str:
    """Canonical JSON of the driver params (order-independent)."""
    try:
        return json.dumps(params, sort_keys=True, default=_json_fallback)
    except TypeError as exc:
        raise TypeError(
            f"job params must be JSON-serialisable to be cacheable: {exc}"
        ) from exc


def _json_fallback(obj: Any):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        # Array-valued params (shard `voxel_subset` index sets, ndarray
        # `init` seed images) enter the key by content hash, so two child
        # jobs differing only in their seed image or stripe never alias.
        arr = np.ascontiguousarray(obj)
        return {
            "__ndarray_sha256__": hashlib.sha256(arr.tobytes()).hexdigest(),
            "shape": list(arr.shape),
            "dtype": str(arr.dtype),
        }
    raise TypeError(f"unsupported param type {type(obj).__name__}")


def cache_key(driver: str, scan: ScanData, params: dict[str, Any]) -> str:
    """sha256 hex digest identifying one reconstruction's full input."""
    geom = scan.geometry
    h = hashlib.sha256()
    h.update(driver.encode())
    h.update(b"\0")
    h.update(_canonical_params(params).encode())
    h.update(b"\0")
    h.update(
        json.dumps(
            {
                "n_pixels": geom.n_pixels,
                "n_views": geom.n_views,
                "n_channels": geom.n_channels,
                "pixel_size": geom.pixel_size,
                "channel_spacing": geom.channel_spacing,
            },
            sort_keys=True,
        ).encode()
    )
    h.update(b"\0")
    h.update(np.ascontiguousarray(scan.sinogram, dtype=np.float64).tobytes())
    h.update(b"\0")
    h.update(np.ascontiguousarray(scan.weights, dtype=np.float64).tobytes())
    return h.hexdigest()


@dataclass
class CachedResult:
    """A cache hit: the reconstructed volume plus its convergence history.

    Duck-types the ``image`` / ``history`` fields of
    :class:`~repro.core.icd.ICDResult`, which is all downstream consumers
    (result waiters, the intake layer's ``result.npz`` writer) read.
    """

    image: np.ndarray
    history: RunHistory | None
    metadata: dict[str, Any]


class ResultCache:
    """Thread-safe content-addressed store of finished reconstructions.

    Parameters
    ----------
    directory:
        Optional persistence root.  Entries are written as
        ``<key>.npz`` reconstruction files; on a key miss in memory the
        directory is consulted, so the cache survives service restarts.
    max_memory_entries:
        LRU bound on the in-memory tier (None = unbounded, the default).
        Bounding memory without a ``directory`` silently forgets the
        evicted volumes; with one, evicted entries fall back to disk hits.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        *,
        max_memory_entries: int | None = None,
    ) -> None:
        if max_memory_entries is not None and max_memory_entries < 1:
            raise ValueError(
                f"max_memory_entries must be >= 1 or None, got {max_memory_entries}"
            )
        self.directory = Path(directory) if directory is not None else None
        self.max_memory_entries = max_memory_entries
        self._lock = threading.Lock()
        self._memory: OrderedDict[str, CachedResult] = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: disk-tier persists that failed with OSError (entry stayed in RAM)
        self.disk_write_failures = 0
        #: disk-tier read-backs that failed with OSError (served as a miss)
        self.disk_read_failures = 0

    def _remember(self, key: str, entry: CachedResult) -> None:
        """Insert/refresh ``key`` as most-recent; evict past the bound."""
        self._memory[key] = entry
        self._memory.move_to_end(key)
        if self.max_memory_entries is not None:
            while len(self._memory) > self.max_memory_entries:
                self._memory.popitem(last=False)

    def _path_for(self, key: str) -> Path | None:
        return None if self.directory is None else self.directory / f"{key}.npz"

    def get(self, key: str) -> CachedResult | None:
        """The cached result for ``key``, or None."""
        with self._lock:
            entry = self._memory.get(key)
            if entry is not None:
                self._memory.move_to_end(key)
        if entry is None:
            entry = self._load_from_disk(key)
        with self._lock:
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
                self._remember(key, entry)
        return entry

    def _load_from_disk(self, key: str) -> CachedResult | None:
        path = self._path_for(key)
        try:
            if path is None or not path.is_file():
                return None
            check_disk_fault(path.parent)
            image, history, metadata = load_reconstruction(path)
        except CorruptFileError:
            # A torn entry is a miss, not an outage; recompute and overwrite.
            return None
        except OSError:
            # An unreadable disk tier is likewise a miss, not an outage.
            with self._lock:
                self.disk_read_failures += 1
            return None
        return CachedResult(image=image, history=history, metadata=metadata)

    def put(self, key: str, result, *, metadata: dict[str, Any] | None = None) -> CachedResult:
        """Store a finished reconstruction under ``key``.

        ``result`` is anything with ``image`` / ``history`` attributes (the
        drivers' result objects or a :class:`CachedResult`).
        """
        entry = CachedResult(
            image=np.array(result.image, copy=True),
            history=getattr(result, "history", None),
            metadata=dict(metadata or {}),
        )
        with self._lock:
            self._remember(key, entry)
        path = self._path_for(key)
        if path is not None:
            try:
                save_reconstruction(
                    path, entry.image, entry.history, metadata=entry.metadata
                )
            except OSError:
                # Persistence is redundancy: the memory tier keeps serving
                # this entry, and the next put after the fault clears will
                # land on disk again.
                with self._lock:
                    self.disk_write_failures += 1
        return entry

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._memory:
                return True
        path = self._path_for(key)
        return path is not None and path.is_file()

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)
