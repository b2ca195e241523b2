"""Resilience: checkpoint/resume, numerical-integrity sentinel, fault injection.

The ICD core maintains the error sinogram ``e = y - Ax`` *incrementally*
across thousands of SuperVoxel updates (Alg. 1/3).  That makes long runs
fragile in two distinct ways:

* a killed process loses hours of convergence — there is no way to restart
  from iteration *i* unless the full driver state was persisted;
* a single NaN, poisoned entry, or dropped wave silently corrupts every
  subsequent theta1/theta2 — the run keeps going and diverges without a
  single error being raised.

This module addresses both (DESIGN.md §11):

:class:`CheckpointManager`
    Atomically persists full resumable run state — image ``x``, error
    sinogram ``e``, iteration counters, the RNG's bit-generator state, the
    :class:`~repro.core.selection.SVSelector` update-amount state, the
    :class:`~repro.core.convergence.RunHistory`, and metrics counters — as
    a checksummed container written by :func:`repro.io.atomic_write`,
    keeping the last ``keep`` checkpoints.  A run killed at any point and resumed
    via ``resume_from=`` is **bit-identical** to an uninterrupted run, for
    every driver and kernel flavor, because everything the iteration loop
    consumes (including the RNG stream position) is restored exactly.

:class:`IntegritySentinel`
    Per-iteration state guards threaded into all three drivers: NaN/Inf
    boundary checks on ``x`` and ``e``, plus a periodic drift check that
    recomputes ``y - Ax`` from scratch, records the drift, and refreshes
    ``e`` in place when it exceeds a tolerance.  Corruption raises the
    typed :class:`StateCorruptionError`; when checkpointing is active the
    driver instead rolls back to the last valid checkpoint and replays.

:class:`FaultInjector`
    A seeded test harness that schedules deterministic faults — poisoning
    single voxels or sinogram entries mid-run, SIGKILLing the process at a
    chosen iteration, and truncating or bit-flipping checkpoint files — so
    every recovery path above is exercised by tests rather than trusted on
    faith.

All of it is **disabled by default**: drivers constructed without
``checkpoint=`` / ``resume_from=`` / ``sentinel=`` run byte-for-byte the
same loop as before, and an enabled checkpoint path never perturbs
iterates (it only *reads* state at iteration boundaries).
"""

from __future__ import annotations

import copy
import hashlib
import io as _stdio
import json
import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.convergence import IterationRecord, RunHistory
from repro.io import CorruptFileError, atomic_write
from repro.observability import as_recorder

__all__ = [
    "ResilienceError",
    "StateCorruptionError",
    "CheckpointError",
    "CorruptCheckpointError",
    "Checkpoint",
    "CheckpointManager",
    "IntegritySentinel",
    "FaultInjector",
    "ResilienceHooks",
]


# ----------------------------------------------------------------------
# Typed errors
# ----------------------------------------------------------------------
class ResilienceError(RuntimeError):
    """Base class for resilience-layer failures."""


class StateCorruptionError(ResilienceError):
    """The in-memory reconstruction state failed an integrity check.

    Raised by :class:`IntegritySentinel` when ``x`` or ``e`` contains
    non-finite values (or, with a strict tolerance, when the incrementally
    maintained error sinogram has drifted beyond repair).  Drivers with an
    active :class:`CheckpointManager` catch this and roll back to the last
    valid checkpoint instead of letting the run silently diverge.
    """


class CheckpointError(ResilienceError):
    """A checkpoint cannot be used (wrong driver, wrong shapes, no file)."""


class CorruptCheckpointError(CheckpointError, CorruptFileError):
    """A checkpoint file is truncated, bit-flipped, or otherwise invalid.

    Also a :class:`repro.io.CorruptFileError`, so callers can treat all
    on-disk corruption uniformly.
    """


# ----------------------------------------------------------------------
# RNG state plumbing
# ----------------------------------------------------------------------
def _jsonify(obj: Any) -> Any:
    """Recursively convert a bit-generator state dict to JSON-safe types."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return {"__ndarray__": obj.tolist(), "dtype": str(obj.dtype)}
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _unjsonify(obj: Any) -> Any:
    """Inverse of :func:`_jsonify`."""
    if isinstance(obj, dict):
        if "__ndarray__" in obj:
            return np.array(obj["__ndarray__"], dtype=obj["dtype"])
        return {k: _unjsonify(v) for k, v in obj.items()}
    return obj


def capture_rng_state(rng: np.random.Generator) -> dict:
    """The generator's full bit-generator state (JSON-serialisable)."""
    return _jsonify(rng.bit_generator.state)


def restore_rng_state(rng: np.random.Generator, state: dict) -> np.random.Generator:
    """Return a generator positioned exactly at ``state``.

    When ``rng``'s bit generator matches the checkpointed type the state is
    restored *in place* (so drivers holding references keep working);
    otherwise a fresh generator of the checkpointed type is built.
    """
    state = _unjsonify(state)
    name = state.get("bit_generator")
    if rng.bit_generator.state.get("bit_generator") == name:
        rng.bit_generator.state = state
        return rng
    cls = getattr(np.random, str(name), None)
    if cls is None:
        raise CheckpointError(f"checkpoint uses unknown bit generator {name!r}")
    bg = cls()
    bg.state = state
    return np.random.Generator(bg)


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------
_CKPT_MAGIC = b"RPCKPT01"
_CKPT_FORMAT = "repro-ckpt-v1"


def _history_to_json(history: RunHistory) -> str:
    return json.dumps(
        {
            "records": [
                {
                    "iteration": r.iteration,
                    "equits": r.equits,
                    "cost": r.cost,
                    "rmse": r.rmse,
                    "updates": r.updates,
                    "svs_updated": r.svs_updated,
                    "delta_hu": r.delta_hu,
                }
                for r in history.records
            ],
            "converged_equits": history.converged_equits,
            "converged_iteration": history.converged_iteration,
            "converged_threshold_hu": history.converged_threshold_hu,
            "stop_reason": history.stop_reason,
        }
    )


def _history_from_json(raw: str) -> RunHistory:
    # Checkpoints written before ``delta_hu`` / ``stop_reason`` existed lack
    # those keys; they load as None.
    doc = json.loads(raw)
    history = RunHistory()
    for r in doc["records"]:
        history.append(IterationRecord(**r))
    history.converged_equits = doc["converged_equits"]
    history.converged_iteration = doc["converged_iteration"]
    history.converged_threshold_hu = doc["converged_threshold_hu"]
    history.stop_reason = doc.get("stop_reason")
    return history


@dataclass
class Checkpoint:
    """Full resumable state of a reconstruction run at an iteration boundary.

    Captured *after* iteration ``iteration`` completed (history record
    appended, RNG stream advanced past all of that iteration's draws), so a
    resumed run continues with iteration ``iteration + 1`` and consumes the
    exact same random stream an uninterrupted run would.
    """

    driver: str  # "icd" | "psv_icd" | "gpu_icd"
    iteration: int
    total_updates: int
    x: np.ndarray  # flat image
    e: np.ndarray  # flat error sinogram
    rng_state: dict
    history: RunHistory
    update_amounts: np.ndarray | None = None  # SVSelector state (SV drivers)
    counters: dict[str, float] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def to_bytes(self) -> bytes:
        """Serialise to the checksummed container format."""
        payload = {
            "format": np.array(_CKPT_FORMAT),
            "driver": np.array(self.driver),
            "iteration": np.array(int(self.iteration), dtype=np.int64),
            "total_updates": np.array(int(self.total_updates), dtype=np.int64),
            "x": np.asarray(self.x, dtype=np.float64),
            "e": np.asarray(self.e, dtype=np.float64),
            "rng_state": np.array(json.dumps(self.rng_state)),
            "history": np.array(_history_to_json(self.history)),
            "counters": np.array(json.dumps(self.counters)),
            "meta": np.array(json.dumps(self.meta)),
        }
        if self.update_amounts is not None:
            payload["update_amounts"] = np.asarray(self.update_amounts, dtype=np.float64)
        buf = _stdio.BytesIO()
        np.savez(buf, **payload)
        body = buf.getvalue()
        return _CKPT_MAGIC + hashlib.sha256(body).digest() + body

    @classmethod
    def from_bytes(cls, raw: bytes, *, source: str = "<bytes>") -> "Checkpoint":
        """Parse and checksum-verify a container produced by :meth:`to_bytes`."""
        header = len(_CKPT_MAGIC) + hashlib.sha256().digest_size
        if len(raw) < header or raw[: len(_CKPT_MAGIC)] != _CKPT_MAGIC:
            raise CorruptCheckpointError(f"{source}: not a repro checkpoint (bad magic)")
        digest = raw[len(_CKPT_MAGIC) : header]
        body = raw[header:]
        if hashlib.sha256(body).digest() != digest:
            raise CorruptCheckpointError(
                f"{source}: checksum mismatch (truncated or corrupted)"
            )
        try:
            with np.load(_stdio.BytesIO(body), allow_pickle=False) as data:
                fmt = str(data["format"])
                if fmt != _CKPT_FORMAT:
                    raise CorruptCheckpointError(
                        f"{source}: unknown checkpoint format {fmt!r}"
                    )
                return cls(
                    driver=str(data["driver"]),
                    iteration=int(data["iteration"]),
                    total_updates=int(data["total_updates"]),
                    x=np.asarray(data["x"], dtype=np.float64),
                    e=np.asarray(data["e"], dtype=np.float64),
                    rng_state=json.loads(str(data["rng_state"])),
                    history=_history_from_json(str(data["history"])),
                    update_amounts=(
                        np.asarray(data["update_amounts"], dtype=np.float64)
                        if "update_amounts" in data
                        else None
                    ),
                    counters=json.loads(str(data["counters"])),
                    meta=json.loads(str(data["meta"])),
                )
        except CorruptCheckpointError:
            raise
        except Exception as exc:  # zip/zlib/json/key errors from a mangled body
            raise CorruptCheckpointError(f"{source}: unreadable payload ({exc})") from exc


class CheckpointManager:
    """Rotating, atomic, checksummed checkpoint store for one run.

    Parameters
    ----------
    directory:
        Where checkpoint files live (created on first save).  One run per
        directory; files are named ``ckpt-<iteration:08d>.ckpt``.
    keep:
        How many most-recent checkpoints to retain (older ones are deleted
        after each successful save).  Keeping more than one matters: if the
        *latest* file is later found corrupt, :meth:`load_latest` falls
        back to the next-newest valid one.

    :meth:`scoped` narrows a store to the files of one part of a run that
    shares the directory (a multires pyramid level).
    """

    def __init__(self, directory: str | Path, *, keep: int = 3) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.keep = int(keep)
        #: corrupt files skipped by :meth:`load_latest` (for tests/metrics).
        self.corrupt_skipped = 0
        #: file names are ``ckpt-<prefix><iteration:08d>.ckpt``.
        self.prefix = ""
        #: entries stamped into every saved checkpoint's ``meta``.
        self.meta: dict = {}

    def scoped(self, prefix: str, **meta) -> "CheckpointManager":
        """This store narrowed to the files named ``ckpt-<prefix>*``.

        The view lists, loads and rotates only those files and stamps
        ``meta`` into every checkpoint it saves.  It is a shallow copy, so
        it shares everything else with this store: a degrading manager's
        degraded state, and so its events, covers every view.
        """
        view = copy.copy(self)
        view.prefix = prefix
        view.meta = {**self.meta, **meta}
        return view

    # -- paths ----------------------------------------------------------
    def path_for(self, iteration: int) -> Path:
        """The file a checkpoint of ``iteration`` is stored at."""
        return self.directory / f"ckpt-{self.prefix}{int(iteration):08d}.ckpt"

    def paths(self) -> list[Path]:
        """Existing checkpoint files, oldest first."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob(f"ckpt-{self.prefix}*.ckpt"))

    # -- save -----------------------------------------------------------
    def save(self, checkpoint: Checkpoint) -> Path:
        """Atomically persist ``checkpoint`` and rotate old files.

        The container (magic + sha256 + npz payload) goes through
        :func:`repro.io.atomic_write`, so a crash mid-save leaves the
        previous checkpoints untouched, and a ``.disk-fault`` sentinel in
        the directory makes the save raise its ``OSError``.
        """
        checkpoint.meta.update(self.meta)
        final = atomic_write(self.path_for(checkpoint.iteration), checkpoint.to_bytes())
        self._rotate()
        return final

    def _rotate(self) -> None:
        for stale in self.paths()[: -self.keep]:
            stale.unlink(missing_ok=True)

    # -- load -----------------------------------------------------------
    def load(self, path: str | Path) -> Checkpoint:
        """Load and verify one checkpoint file."""
        path = Path(path)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            raise
        except OSError as exc:
            raise CorruptCheckpointError(f"{path}: unreadable ({exc})") from exc
        return Checkpoint.from_bytes(raw, source=str(path))

    def load_latest(self) -> Checkpoint | None:
        """The newest checkpoint that passes verification, or None.

        Corrupt files (truncated, bit-flipped, wrong magic) are skipped —
        and counted in :attr:`corrupt_skipped` — so a torn or poisoned
        latest file degrades to the previous checkpoint instead of killing
        the resume.
        """
        for path in reversed(self.paths()):
            try:
                return self.load(path)
            except CorruptCheckpointError:
                self.corrupt_skipped += 1
        return None


# ----------------------------------------------------------------------
# Fault injection (test harness)
# ----------------------------------------------------------------------
@dataclass
class _ScheduledFault:
    kind: str  # "poison_voxel" | "poison_sinogram" | "kill"
    at_iteration: int
    index: int | None = None
    value: float = float("nan")
    sig: int = signal.SIGKILL
    fired: bool = False


class FaultInjector:
    """Seeded, deterministic fault scheduler for resilience tests.

    Faults are scheduled up front and fire exactly once when the run
    reaches the given iteration: :class:`IntegritySentinel` calls
    :meth:`on_iteration` at every iteration boundary, which is where
    voxel/sinogram poisoning and process kills fire.

    File-corruption helpers (:meth:`truncate_file`, :meth:`corrupt_file`)
    mangle checkpoint/scan files on disk to exercise the
    :class:`CorruptCheckpointError` / rollback paths.
    """

    def __init__(self, seed: int = 0) -> None:
        self.rng = np.random.default_rng(seed)
        self._scheduled: list[_ScheduledFault] = []
        #: human-readable record of every fault that actually fired.
        self.log: list[str] = []

    # -- scheduling -----------------------------------------------------
    def poison_voxel(
        self, at_iteration: int, *, index: int | None = None, value: float = float("nan")
    ) -> "FaultInjector":
        """Overwrite one image voxel with ``value`` after ``at_iteration``."""
        self._scheduled.append(
            _ScheduledFault("poison_voxel", int(at_iteration), index, float(value))
        )
        return self

    def poison_sinogram(
        self, at_iteration: int, *, index: int | None = None, value: float = float("nan")
    ) -> "FaultInjector":
        """Overwrite one error-sinogram entry with ``value`` after ``at_iteration``."""
        self._scheduled.append(
            _ScheduledFault("poison_sinogram", int(at_iteration), index, float(value))
        )
        return self

    def kill_at(self, at_iteration: int, *, sig: int = signal.SIGKILL) -> "FaultInjector":
        """Send ``sig`` to the current process after ``at_iteration``.

        With the default SIGKILL nothing — no ``finally``, no atexit — runs
        afterwards, which is exactly the crash mode checkpointing must
        survive.
        """
        self._scheduled.append(
            _ScheduledFault("kill", int(at_iteration), sig=int(sig))
        )
        return self

    # -- firing (called by the sentinel) --------------------------------
    def on_iteration(self, iteration: int, x: np.ndarray, e: np.ndarray) -> bool:
        """Fire any faults scheduled for ``iteration``; True if state changed."""
        poisoned = False
        for fault in self._scheduled:
            if fault.fired or fault.at_iteration != iteration:
                continue
            fault.fired = True
            if fault.kind == "poison_voxel":
                idx = (
                    int(self.rng.integers(0, x.size))
                    if fault.index is None
                    else int(fault.index)
                )
                x[idx] = fault.value
                self.log.append(f"iteration {iteration}: poisoned voxel {idx} = {fault.value}")
                poisoned = True
            elif fault.kind == "poison_sinogram":
                idx = (
                    int(self.rng.integers(0, e.size))
                    if fault.index is None
                    else int(fault.index)
                )
                e[idx] = fault.value
                self.log.append(
                    f"iteration {iteration}: poisoned sinogram entry {idx} = {fault.value}"
                )
                poisoned = True
            elif fault.kind == "kill":
                self.log.append(f"iteration {iteration}: kill signal {fault.sig}")
                os.kill(os.getpid(), fault.sig)
        return poisoned

    # -- on-disk corruption ---------------------------------------------
    @staticmethod
    def truncate_file(path: str | Path, *, keep_bytes: int = 64) -> None:
        """Truncate ``path`` to ``keep_bytes`` (a torn write / full disk)."""
        path = Path(path)
        raw = path.read_bytes()
        path.write_bytes(raw[: int(keep_bytes)])

    def corrupt_file(self, path: str | Path, *, n_bytes: int = 8) -> None:
        """Flip ``n_bytes`` randomly chosen bytes of ``path`` in place."""
        path = Path(path)
        raw = bytearray(path.read_bytes())
        if not raw:
            return
        for pos in self.rng.integers(0, len(raw), size=int(n_bytes)):
            raw[int(pos)] ^= 0xFF
        path.write_bytes(bytes(raw))


# ----------------------------------------------------------------------
# Integrity sentinel
# ----------------------------------------------------------------------
class IntegritySentinel:
    """Per-iteration numerical-integrity guards for the ICD drivers.

    Parameters
    ----------
    check_every:
        Run the NaN/Inf boundary guards on ``x`` and ``e`` every this many
        iterations (1 = every iteration; the check is two ``np.isfinite``
        reductions, far cheaper than an iteration).
    drift_every:
        Every this many iterations, recompute ``y - Ax`` from scratch (one
        forward projection) and compare against the incrementally
        maintained ``e``.  0 (default) disables drift checking.
    drift_tol:
        Max-abs drift (in line-integral units) above which ``e`` is
        refreshed in place from the recomputation.  The refresh is recorded
        as a ``drift_refresh`` span and ``sentinel.refreshes`` counter —
        iterates after a refresh legitimately differ from an unrefreshed
        run (the refreshed ``e`` is the *more* correct one).
    fault_injector:
        Optional :class:`FaultInjector` whose scheduled faults fire at each
        iteration boundary before the guards run (test harness only).

    The sentinel never changes iterates unless a drift refresh actually
    fires; the guards themselves only read.
    """

    def __init__(
        self,
        *,
        check_every: int = 1,
        drift_every: int = 0,
        drift_tol: float = 1e-6,
        fault_injector: FaultInjector | None = None,
    ) -> None:
        if check_every < 1:
            raise ValueError(f"check_every must be >= 1, got {check_every}")
        if drift_every < 0:
            raise ValueError(f"drift_every must be >= 0, got {drift_every}")
        if not drift_tol > 0:
            raise ValueError(f"drift_tol must be > 0, got {drift_tol}")
        self.check_every = int(check_every)
        self.drift_every = int(drift_every)
        self.drift_tol = float(drift_tol)
        self.fault_injector = fault_injector
        #: drift observed at the most recent / worst drift check.
        self.last_drift: float | None = None
        self.max_drift: float = 0.0
        #: how many times ``e`` was refreshed from scratch.
        self.refreshes = 0

    def check(self, iteration: int, x: np.ndarray, e: np.ndarray, updater, metrics=None) -> None:
        """Run the guards for one completed iteration.

        Raises :class:`StateCorruptionError` on non-finite state; refreshes
        ``e`` in place when drift exceeds the tolerance.
        """
        rec = as_recorder(metrics)
        if self.fault_injector is not None:
            self.fault_injector.on_iteration(iteration, x, e)
        if iteration % self.check_every == 0:
            rec.count("sentinel.checks", 1)
            self._guard_finite("image x", x, iteration)
            self._guard_finite("error sinogram e", e, iteration)
        if self.drift_every and iteration % self.drift_every == 0:
            with rec.span("drift_check", iteration=iteration):
                exact = updater.initial_error(x)
                drift = float(np.max(np.abs(e - exact))) if e.size else 0.0
            rec.count("sentinel.drift_checks", 1)
            self.last_drift = drift
            self.max_drift = max(self.max_drift, drift)
            if drift > self.drift_tol:
                with rec.span("drift_refresh", iteration=iteration, drift=drift):
                    e[:] = exact
                rec.count("sentinel.refreshes", 1)
                self.refreshes += 1

    @staticmethod
    def _guard_finite(name: str, array: np.ndarray, iteration: int) -> None:
        finite = np.isfinite(array)
        if not finite.all():
            bad = int(np.flatnonzero(~finite.ravel())[0])
            raise StateCorruptionError(
                f"{name} is non-finite at flat index {bad} after iteration "
                f"{iteration} (value {array.ravel()[bad]!r}); the incremental "
                f"state is corrupt"
            )


# ----------------------------------------------------------------------
# Driver glue
# ----------------------------------------------------------------------
class ResilienceHooks:
    """Checkpoint/resume/sentinel glue shared by the three ICD drivers.

    A driver constructs one of these when any resilience kwarg is given and
    calls two methods: :meth:`resume_state` once before the loop (returns
    the restored state, or None for a fresh start) and
    :meth:`after_iteration` at each iteration boundary (runs the sentinel,
    handles rollback, saves checkpoints on cadence).

    Rollback semantics: when the sentinel raises
    :class:`StateCorruptionError` and a valid checkpoint exists, state is
    restored *in place* (``x``/``e``/history/selector/RNG) and the driver
    replays from the checkpointed iteration — at most ``max_rollbacks``
    times, after which the corruption error propagates.
    """

    def __init__(
        self,
        *,
        driver: str,
        checkpoint: "CheckpointManager | str | Path | None" = None,
        checkpoint_every: int = 1,
        resume_from: "Checkpoint | str | Path | None" = None,
        sentinel: IntegritySentinel | None = None,
        metrics=None,
        max_rollbacks: int = 3,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        self.driver = driver
        self.manager: CheckpointManager | None
        if checkpoint is None:
            self.manager = None
        elif isinstance(checkpoint, CheckpointManager):
            self.manager = checkpoint
        else:
            self.manager = CheckpointManager(checkpoint)
        self.checkpoint_every = int(checkpoint_every)
        self.resume_from = resume_from
        self.sentinel = sentinel
        self.rec = as_recorder(metrics)
        self.max_rollbacks = int(max_rollbacks)
        self.rollbacks = 0

    # -- resume ---------------------------------------------------------
    def resume_state(self) -> Checkpoint | None:
        """Resolve ``resume_from`` to a verified :class:`Checkpoint`.

        Accepts a :class:`Checkpoint` object, a checkpoint file path, a
        checkpoint *directory* (its newest valid file is used), or the
        string ``"latest"`` (newest valid file of the attached manager;
        None — a fresh start — when the manager has no checkpoints yet).
        """
        src = self.resume_from
        if src is None:
            return None
        if isinstance(src, Checkpoint):
            ckpt = src
        elif src == "latest":
            if self.manager is None:
                raise CheckpointError("resume_from='latest' requires checkpoint=")
            ckpt = self.manager.load_latest()
            if ckpt is None:
                return None  # nothing saved yet: a fresh start, by design
        else:
            path = Path(src)
            if path.is_dir():
                ckpt = CheckpointManager(path).load_latest()
                if ckpt is None:
                    raise CheckpointError(f"{path}: no valid checkpoint found")
            else:
                manager = self.manager if self.manager is not None else CheckpointManager(path.parent)
                ckpt = manager.load(path)
        if ckpt.driver != self.driver:
            raise CheckpointError(
                f"checkpoint was written by driver {ckpt.driver!r}, "
                f"cannot resume {self.driver!r} from it"
            )
        self.rec.count("checkpoint.resumes", 1)
        return ckpt

    def validate_shapes(self, ckpt: Checkpoint, *, n_voxels: int, n_measurements: int) -> None:
        """Reject a checkpoint from a different geometry before any state copies."""
        if ckpt.x.size != n_voxels or ckpt.e.size != n_measurements:
            raise CheckpointError(
                f"checkpoint geometry mismatch: x has {ckpt.x.size} voxels "
                f"(driver expects {n_voxels}), e has {ckpt.e.size} entries "
                f"(driver expects {n_measurements})"
            )

    def apply_resume(
        self,
        ckpt: Checkpoint,
        *,
        rng: np.random.Generator,
        selector=None,
    ) -> tuple[np.ndarray, np.ndarray, np.random.Generator, RunHistory, int, int]:
        """Materialise a checkpoint into fresh driver state.

        Returns ``(x, e, rng, history, iteration, total_updates)``; the
        arrays are private copies, the RNG is positioned exactly where the
        checkpointed run left it, the selector's update-amount state is
        restored in place, and the checkpointed counters are merged into
        the recorder (so resumed runs report whole-run totals).
        """
        x = np.array(ckpt.x, dtype=np.float64, copy=True)
        e = np.array(ckpt.e, dtype=np.float64, copy=True)
        rng = restore_rng_state(rng, ckpt.rng_state)
        history = _history_from_json(_history_to_json(ckpt.history))  # private copy
        if selector is not None and ckpt.update_amounts is not None:
            selector.update_amounts[:] = ckpt.update_amounts
        if self.rec.enabled and ckpt.counters:
            self.rec.merge_counters(ckpt.counters)
        return x, e, rng, history, ckpt.iteration, ckpt.total_updates

    # -- per-iteration --------------------------------------------------
    def after_iteration(
        self,
        *,
        iteration: int,
        total_updates: int,
        x: np.ndarray,
        e: np.ndarray,
        rng: np.random.Generator,
        history: RunHistory,
        updater,
        selector=None,
    ) -> tuple[int, int] | None:
        """Sentinel check + cadenced checkpoint save for one iteration.

        Returns None normally.  On detected corruption with a valid
        checkpoint available, restores state in place and returns the
        ``(iteration, total_updates)`` to continue from; without a usable
        checkpoint (or past ``max_rollbacks``) the
        :class:`StateCorruptionError` propagates.
        """
        if self.sentinel is not None:
            try:
                self.sentinel.check(iteration, x, e, updater, metrics=self.rec)
            except StateCorruptionError:
                ckpt = self.manager.load_latest() if self.manager is not None else None
                if ckpt is None or self.rollbacks >= self.max_rollbacks:
                    raise
                self.rollbacks += 1
                self.rec.count("resilience.rollbacks", 1)
                with self.rec.span("rollback", to_iteration=ckpt.iteration):
                    self._restore_inplace(ckpt, x, e, rng, history, selector)
                return ckpt.iteration, ckpt.total_updates
        if self.manager is not None and iteration % self.checkpoint_every == 0:
            with self.rec.span("checkpoint_save", iteration=iteration) as span:
                saved = self.manager.save(
                    self._build(iteration, total_updates, x, e, rng, history, selector)
                )
                if saved is None:
                    # A degrading manager suppressed the save (disk fault).
                    # Mark the span so progress recorders don't report a
                    # checkpoint that never hit the disk.
                    meta = getattr(span, "meta", None)
                    if meta is not None:
                        meta["suppressed"] = True
            if saved is None:
                self.rec.count("checkpoint.saves_suppressed", 1)
            else:
                self.rec.count("checkpoint.saves", 1)
        return None

    # -- internals ------------------------------------------------------
    def _build(self, iteration, total_updates, x, e, rng, history, selector) -> Checkpoint:
        counters = dict(self.rec.counters) if self.rec.enabled else {}
        return Checkpoint(
            driver=self.driver,
            iteration=int(iteration),
            total_updates=int(total_updates),
            x=np.array(x, dtype=np.float64, copy=True),
            e=np.array(e, dtype=np.float64, copy=True),
            rng_state=capture_rng_state(rng),
            history=_history_from_json(_history_to_json(history)),  # deep copy
            update_amounts=(
                None if selector is None else np.array(selector.update_amounts, copy=True)
            ),
            counters=counters,
            meta={"saved_at": time.time()},
        )

    def _restore_inplace(self, ckpt: Checkpoint, x, e, rng, history, selector) -> None:
        x[:] = ckpt.x
        e[:] = ckpt.e
        restore_rng_state(rng, ckpt.rng_state)
        history.records[:] = list(ckpt.history.records)
        history.converged_equits = ckpt.history.converged_equits
        history.converged_iteration = ckpt.history.converged_iteration
        history.converged_threshold_hu = ckpt.history.converged_threshold_hu
        history.stop_reason = ckpt.history.stop_reason
        if selector is not None and ckpt.update_amounts is not None:
            selector.update_amounts[:] = ckpt.update_amounts
