"""Per-job progress stream fed from the drivers' iteration spans.

The drivers already emit one ``iteration`` span per outer iteration and the
resilience layer one ``checkpoint_save`` span per snapshot (DESIGN.md §9) —
so instead of inventing a second callback plumbing through every driver,
the service hands each job a :class:`ProgressRecorder`: a
:class:`~repro.observability.MetricsRecorder` whose span-close hook

* emits a :class:`ProgressEvent` to the job's subscriber after every
  completed iteration,
* records each checkpoint snapshot as a ``CHECKPOINTED`` job event, and
* checks the job's cancel token at the iteration boundary, raising
  :class:`~repro.service.jobs.JobCancelledError` out of the driver loop —
  cooperative cancellation with zero driver changes.

Each job owns a private recorder (MetricsRecorder span stacks are not
thread-safe), and its full metrics report is kept with the job, so a job's
per-iteration timing breakdown remains inspectable after completion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.observability import MetricsRecorder, Span
from repro.service.jobs import Job, JobCancelledError, JobDeadlineError

__all__ = ["ProgressEvent", "ProgressRecorder"]


@dataclass(frozen=True)
class ProgressEvent:
    """One progress notification delivered to a job's subscriber."""

    job_id: str
    kind: str  # "iteration" | "checkpoint"
    iteration: int
    duration_s: float | None = None


class ProgressRecorder(MetricsRecorder):
    """MetricsRecorder that streams iteration/checkpoint spans to a job.

    Events fire from :meth:`_pop` — i.e. when the driver's ``with
    rec.span("iteration")`` block exits — so the iterate, history record,
    and checkpoint for that iteration are already complete when the
    subscriber sees the event.  Cancellation raised here propagates out of
    the driver's iteration loop, and the worker marks the job CANCELLED.
    """

    def __init__(
        self,
        job: Job,
        on_progress: Callable[[ProgressEvent], None] | None = None,
        *,
        on_fault: Callable[[Job, str, dict], None] | None = None,
        deadline: float | None = None,
    ) -> None:
        super().__init__()
        self._job = job
        self._on_progress = on_progress
        self._on_fault = on_fault
        #: ``time.monotonic()`` instant past which the job is over budget
        #: (thread workers can't be killed, so the deadline is enforced
        #: cooperatively at the same boundary the cancel check uses).
        self._deadline = deadline

    def note_fault(self, kind: str, **detail: Any) -> None:
        """File a fault transition (CHECKPOINT_DEGRADED/...) against the job.

        With an ``on_fault`` callback (the scheduler's bookkeeping hook)
        the callback owns recording; standalone recorders log the event
        directly.
        """
        if self._on_fault is not None:
            self._on_fault(self._job, kind, detail)
        else:
            self._job.record_event(kind, **detail)

    def _emit(self, event: ProgressEvent) -> None:
        if self._on_progress is not None:
            self._on_progress(event)

    def _pop(self, span: Span) -> None:
        super()._pop(span)
        meta = span.meta or {}
        if span.name == "iteration":
            iteration = int(meta.get("index", 0))
            self._job.note_iteration(iteration, span.duration)
            self._emit(
                ProgressEvent(
                    job_id=self._job.job_id,
                    kind="iteration",
                    iteration=iteration,
                    duration_s=span.duration,
                )
            )
            if self._job.cancel_requested:
                raise JobCancelledError(
                    f"job {self._job.job_id} cancelled at iteration {iteration}"
                )
            if self._deadline is not None and time.monotonic() >= self._deadline:
                raise JobDeadlineError(
                    f"job {self._job.job_id} exceeded its wall-clock deadline "
                    f"at iteration {iteration}"
                )
        elif span.name == "checkpoint_save" and not meta.get("suppressed"):
            iteration = int(meta.get("iteration", 0))
            self._job.note_checkpoint(iteration)
            self._emit(
                ProgressEvent(
                    job_id=self._job.job_id,
                    kind="checkpoint",
                    iteration=iteration,
                    duration_s=span.duration,
                )
            )
