"""Disk-fault policy: checkpoints degrade, the result retries, nothing else waits.

Every durable write goes through :func:`repro.io.atomic_write`, which
honours the ``.disk-fault`` sentinel (:func:`repro.io.arm_disk_fault`).
What a failed write costs is decided per file (DESIGN.md §16):

* **checkpoints** degrade (:class:`DegradingCheckpointManager`): a save
  that keeps failing suspends checkpointing, files one
  ``CHECKPOINT_DEGRADED`` event, and lets the job run on; each later save
  probes the disk, and the first that lands files ``CHECKPOINT_RECOVERED``.
  Checkpoints exist to protect the computation, so losing them costs
  redundancy, never the job;
* **the worker's result** is retried (:func:`retry_oserror`) and is then
  terminal: it is the job's one irreplaceable artifact, so a persistent
  failure becomes a :class:`~repro.service.jobs.ResultPersistError`
  verdict with the errno;
* the cache's disk tier, the intake's ``status.json`` and ``result.npz``
  and the verdict file are counted or suppressed by their callers and
  retried by their next natural occasion.
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from typing import Any, Callable, TypeVar

from repro.resilience import Checkpoint, CheckpointManager

__all__ = [
    "next_backoff",
    "retry_oserror",
    "DegradingCheckpointManager",
]

T = TypeVar("T")

#: Attempts per checkpoint save while healthy, and the backoff bounds (s)
#: between them.
_CKPT_ATTEMPTS = 2
_CKPT_BACKOFF_S = (0.02, 0.25)


def next_backoff(
    prev_s: float,
    *,
    base_s: float,
    cap_s: float,
    rng: random.Random | None = None,
) -> float:
    """Decorrelated-jitter backoff: ``min(cap, uniform(base, prev * 3))``.

    Seed ``prev_s`` with ``base_s`` on the first retry.  Unlike plain
    exponential backoff the delays are sampled, not computed, so a herd
    of clients (or writers) that failed at the same instant spreads out
    instead of retrying in lockstep.
    """
    if base_s < 0 or cap_s < 0:
        raise ValueError(f"backoff bounds must be >= 0, got {base_s}/{cap_s}")
    pick = (rng or random).uniform
    lo = min(base_s, cap_s)
    hi = max(lo, prev_s * 3.0)
    return min(cap_s, pick(lo, hi))


def retry_oserror(fn: Callable[[], T], *, attempts: int, base_s: float, cap_s: float) -> T:
    """``fn()``, retried on :class:`OSError` up to ``attempts`` calls in all.

    Between attempts it sleeps a :func:`next_backoff` delay in
    ``[base_s, cap_s]``; the last attempt's ``OSError`` propagates.
    """
    delay = base_s
    for _ in range(attempts - 1):
        try:
            return fn()
        except OSError:
            delay = next_backoff(delay, base_s=base_s, cap_s=cap_s)
            time.sleep(delay)
    return fn()


class DegradingCheckpointManager(CheckpointManager):
    """A :class:`~repro.resilience.CheckpointManager` whose saves degrade.

    While healthy, a save that raises :class:`OSError` is tried twice in
    all, 0.02–0.25 s apart; if both fail the manager degrades.  While
    degraded, each save is a single probe.  :meth:`save` returns the
    written path, or ``None`` when the save did not land; the driver hooks
    then mark the ``checkpoint_save`` span ``suppressed`` so progress
    recorders don't count a checkpoint that never hit the disk.  Loads are
    untouched: reading back existing checkpoints still works (and still
    skips corrupt files) while saves are degraded.

    ``recorder`` is told of each transition.  A recorder with a
    ``note_fault(kind, **detail)`` method (the worker's relay recorder)
    gets ``CHECKPOINT_DEGRADED`` (with the ``errno`` and ``error``) and
    ``CHECKPOINT_RECOVERED`` events; a plain
    :class:`~repro.observability.MetricsRecorder` gets
    ``checkpoint.degraded`` / ``checkpoint.recovered`` counters instead.
    The degraded flag lives in a dict that :meth:`scoped` views share, so
    a multires job's levels degrade and recover as one.
    """

    def __init__(self, directory: str | Path, *, keep: int = 3, recorder: Any = None) -> None:
        super().__init__(directory, keep=keep)
        self._recorder = recorder
        self._health = {"degraded": False}

    @property
    def degraded(self) -> bool:
        """Whether saves are suspended to one probe each."""
        return self._health["degraded"]

    def save(self, checkpoint: Checkpoint) -> Path | None:  # type: ignore[override]
        # Looked up per call, so a wrapper installed on the base class
        # (perfbench's tracer) sees every attempt.
        def write() -> Path:
            return CheckpointManager.save(self, checkpoint)

        try:
            if self.degraded:
                path = write()
            else:
                path = retry_oserror(
                    write,
                    attempts=_CKPT_ATTEMPTS,
                    base_s=_CKPT_BACKOFF_S[0],
                    cap_s=_CKPT_BACKOFF_S[1],
                )
        except OSError as exc:
            if not self.degraded:
                self._health["degraded"] = True
                self._note("CHECKPOINT_DEGRADED", errno=exc.errno, error=str(exc))
            return None
        if self.degraded:
            self._health["degraded"] = False
            self._note("CHECKPOINT_RECOVERED")
        return path

    def _note(self, kind: str, **detail: Any) -> None:
        rec = self._recorder
        if rec is None:
            return
        note = getattr(rec, "note_fault", None)
        if note is not None:
            note(kind, **detail)
        else:
            count = getattr(rec, "count", None)
            if count is not None:
                count(f"checkpoint.{kind.rsplit('_', 1)[-1].lower()}", 1)
