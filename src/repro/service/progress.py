"""Per-job progress events, relayed from the worker's iteration spans.

The drivers already emit one ``iteration`` span per outer iteration and the
resilience layer one ``checkpoint_save`` span per snapshot (DESIGN.md §9).
A job's worker subprocess turns those span closes into pipe messages
(:mod:`repro.service.worker`), and the scheduler re-emits each one as a
:class:`ProgressEvent` to the job's subscriber — progress streaming with
zero driver changes.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ProgressEvent"]


@dataclass(frozen=True)
class ProgressEvent:
    """One progress notification delivered to a job's subscriber."""

    job_id: str
    kind: str  # "iteration" | "checkpoint"
    iteration: int
    duration_s: float | None = None
