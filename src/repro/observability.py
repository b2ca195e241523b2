"""Run metrics and tracing: nested wall-clock spans and named counters.

The paper's results are all *performance* claims — per-kernel timing
breakdowns (Fig. 8), equit times (Table 1), speedup sweeps (Figs. 7a-7d) —
so the reproduction needs a first-class, machine-readable record of what a
run did and where its wall-clock went.  This module provides that record
with zero dependencies and near-zero cost when disabled:

:class:`MetricsRecorder`
    Collects a tree of named spans (monotonic wall-clock via
    ``time.perf_counter``) and a flat dict of named counters.  Spans nest
    through a context manager; counters accumulate.  ``to_dict()`` /
    ``write_json()`` produce the JSON report the CLI's ``--metrics-json``
    flag emits.
:class:`NullRecorder`
    The off-by-default stand-in: every method is an allocation-free no-op
    and ``span()`` returns a shared singleton context manager, so
    instrumented hot paths cost one attribute lookup and one method call
    when metrics are not requested.  Drivers accept ``metrics=None`` and
    resolve it through :func:`as_recorder`.

Instrumentation sites (see DESIGN.md §9):

* the loop all three drivers share,
  :func:`repro.core.icd.run_iterations`, records one ``iteration`` span
  per outer iteration, ending in ``bookkeeping``; inside it icd records
  ``sweep``, and each PSV-ICD ``wave`` and GPU-ICD ``kernel_batch``
  records the three phases of :func:`repro.core.sv_engine.run_sv_batch` —
  ``extract`` (SVB creation), ``update`` (the MBIR kernel), ``merge``
  (the write-back);
* :func:`repro.core.kernels.run_sweep` and
  :func:`repro.core.sv_engine.process_supervoxel` report update / skip /
  wave counters per kernel flavor (``kernel.<flavor>.updates`` ...);
* :meth:`repro.gpusim.timing.GPUTimingModel.measured_vs_modeled` joins the
  measured phase spans against the calibrated hardware model's per-phase
  predictions in one report;
* the resilience layer (:mod:`repro.resilience`) records
  ``checkpoint.{saves,resumes}``, ``sentinel.{checks,drift_checks,
  refreshes}`` and ``resilience.rollbacks`` counters plus
  ``checkpoint_save`` / ``drift_check`` / ``drift_refresh`` / ``rollback``
  spans; on resume the counters persisted in the checkpoint are merged
  back via :meth:`MetricsRecorder.merge_counters`, so a killed-and-resumed
  run reports whole-run totals.

The recorder never touches the numerics — it only reads the clock — so
instrumented and uninstrumented runs produce bit-identical iterates (the
cross-kernel equivalence tests guard this).

Thread-safety: one :class:`MetricsRecorder` may be shared across threads —
the job service's HTTP request handlers and Scheduler workers all feed the
same instance.  Counters are updated under an internal lock (a bare
read-modify-write would lose increments under contention), and the span
stack is **thread-local**: each thread nests its own spans privately and
contributes its root spans to the shared ``roots`` list (appended under
the lock), so concurrent spans from different threads can never interleave
into a corrupted nesting tree.  Reports (:meth:`~MetricsRecorder.to_dict`,
:meth:`~MetricsRecorder.span_totals`, :meth:`~MetricsRecorder.to_prometheus`)
snapshot under the same lock.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "Span",
    "MetricsRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "as_recorder",
]


@dataclass
class Span:
    """One named interval on the monotonic clock, with nested children."""

    name: str
    start: float
    end: float | None = None
    meta: dict[str, Any] | None = None
    children: list["Span"] = field(default_factory=list)

    @property
    def closed(self) -> bool:
        """Whether the span's context manager has exited."""
        return self.end is not None

    @property
    def duration(self) -> float | None:
        """Seconds between enter and exit, or None while still open."""
        return None if self.end is None else self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (durations in seconds)."""
        d: dict[str, Any] = {"name": self.name, "duration_s": self.duration}
        if self.meta:
            d["meta"] = dict(self.meta)
        if self.children:
            d["children"] = [c.to_dict() for c in self.children]
        return d


class _SpanContext:
    """Context manager that opens a span on enter and closes it on exit."""

    __slots__ = ("_recorder", "_span")

    def __init__(self, recorder: "MetricsRecorder", span: Span) -> None:
        self._recorder = recorder
        self._span = span

    def __enter__(self) -> Span:
        self._recorder._push(self._span)
        return self._span

    def __exit__(self, *exc) -> bool:
        self._recorder._pop(self._span)
        return False


class _NullSpanContext:
    """Shared no-op context manager returned by :meth:`NullRecorder.span`."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullRecorder:
    """The disabled recorder: every operation is a no-op.

    ``enabled`` is False so hot paths can guard any per-call work (e.g.
    building counter-key strings) behind one attribute read.
    """

    enabled = False

    def span(self, name: str, **meta) -> _NullSpanContext:
        """Return the shared no-op context manager."""
        return _NULL_SPAN_CONTEXT

    def count(self, name: str, n: int | float = 1) -> None:
        """Ignore the counter increment."""

    def count_max(self, name: str, value: int | float) -> None:
        """Ignore the high-water-mark update."""

    def merge_counters(self, counters: dict[str, float]) -> None:
        """Ignore the merge (no counters are kept)."""

    def span_totals(self) -> dict[str, dict[str, float]]:
        """No spans were recorded."""
        return {}

    def to_dict(self) -> dict[str, Any]:
        """An empty report, shaped like :meth:`MetricsRecorder.to_dict`."""
        return {"enabled": False, "spans": [], "counters": {}}

    def to_prometheus(self, *, gauges: dict[str, float] | None = None) -> str:
        """An empty (but valid) Prometheus text-format exposition."""
        return _prometheus_text({}, {}, gauges or {})


#: Process-wide singleton handed out by :func:`as_recorder` for ``None``.
NULL_RECORDER = NullRecorder()


class MetricsRecorder:
    """Collects nested wall-clock spans and named counters for one run.

    Safe to share across threads: counter updates and span-tree mutations
    happen under an internal lock, and the open-span stack is thread-local
    (each thread's spans nest among themselves; every thread's outermost
    spans land in the shared ``roots`` list).

    Parameters
    ----------
    clock:
        Monotonic time source (seconds).  Defaults to
        :func:`time.perf_counter`; tests inject a deterministic counter.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self.roots: list[Span] = []
        self.counters: dict[str, float] = {}
        self._local = threading.local()

    @property
    def _stack(self) -> list[Span]:
        """The calling thread's private open-span stack."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- spans ----------------------------------------------------------
    def span(self, name: str, **meta) -> _SpanContext:
        """Open a span on ``with``-entry; nests under the innermost open span."""
        return _SpanContext(self, Span(name=name, start=0.0, meta=meta or None))

    def _push(self, span: Span) -> None:
        span.start = self._clock()
        stack = self._stack
        with self._lock:
            if stack:
                stack[-1].children.append(span)
            else:
                self.roots.append(span)
        stack.append(span)

    def _pop(self, span: Span) -> None:
        end = self._clock()
        stack = self._stack
        # Close any dangling children first (exceptions unwound past them).
        while stack and stack[-1] is not span:
            dangling = stack.pop()
            if dangling.end is None:
                dangling.end = end
        if stack and stack[-1] is span:
            stack.pop()
        span.end = end

    @property
    def open_spans(self) -> int:
        """Spans the *calling thread* has open (0 once every ``with`` exited)."""
        return len(self._stack)

    # -- counters -------------------------------------------------------
    def count(self, name: str, n: int | float = 1) -> None:
        """Add ``n`` to the named counter (created at 0)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def count_max(self, name: str, value: int | float) -> None:
        """Raise the named high-water-mark counter to ``value`` if larger."""
        with self._lock:
            if value > self.counters.get(name, 0):
                self.counters[name] = value

    def merge_counters(self, counters: dict[str, float]) -> None:
        """Add a saved counter snapshot into this recorder.

        Used when resuming from a checkpoint: the counters persisted at
        save time are folded in so the resumed run's report carries
        whole-run totals rather than only the post-resume segment.
        """
        for name, n in counters.items():
            self.count(name, n)

    # -- aggregation ----------------------------------------------------
    def _walk(self):
        # Snapshot the tree edges so concurrent _push appends (which happen
        # under the same lock the caller holds) cannot shift the iteration.
        stack = list(self.roots)
        while stack:
            s = stack.pop()
            stack.extend(s.children)
            yield s

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Aggregate closed spans by name: ``{name: {count, total_s}}``."""
        totals: dict[str, dict[str, float]] = {}
        with self._lock:
            for s in self._walk():
                if s.end is None:
                    continue
                agg = totals.setdefault(s.name, {"count": 0, "total_s": 0.0})
                agg["count"] += 1
                agg["total_s"] += s.end - s.start
        return totals

    def total(self, name: str) -> float:
        """Total seconds spent in closed spans named ``name``."""
        agg = self.span_totals().get(name)
        return agg["total_s"] if agg else 0.0

    # -- reports --------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """The JSON-ready report: span tree, aggregates, counters."""
        totals = self.span_totals()
        with self._lock:
            return {
                "enabled": True,
                "spans": [s.to_dict() for s in self.roots],
                "span_totals": totals,
                "counters": dict(self.counters),
            }

    def to_prometheus(self, *, gauges: dict[str, float] | None = None) -> str:
        """The Prometheus text-format exposition of counters + span totals.

        Counters become ``repro_counter_total{name="..."}`` samples, closed
        spans aggregate into ``repro_span_seconds_total`` /
        ``repro_span_count_total`` by span name, and the optional ``gauges``
        mapping (point-in-time values the caller owns, e.g. queue depth)
        exports as ``repro_gauge{name="..."}``.
        """
        totals = self.span_totals()
        with self._lock:
            counters = dict(self.counters)
        return _prometheus_text(counters, totals, gauges or {})

    def write_json(self, path) -> None:
        """Serialise :meth:`to_dict` to ``path`` (indent=2, sorted keys)."""
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")


def _escape_label(value: str) -> str:
    """Escape a Prometheus label value (backslash, quote, newline)."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(v: float) -> str:
    """Prometheus sample value: integers without a trailing .0."""
    f = float(v)
    return str(int(f)) if f.is_integer() else repr(f)


def _prometheus_text(
    counters: dict[str, float],
    span_totals: dict[str, dict[str, float]],
    gauges: dict[str, float],
) -> str:
    """Render counters / span aggregates / gauges as Prometheus text format.

    One metric family per kind, with the repro-side name carried in a
    label — so arbitrary dotted counter names (``service.jobs_submitted``,
    ``kernel.c.updates``) need no per-name sanitisation and the
    exposition stays valid for any name the recorder ever sees.
    """
    lines: list[str] = []
    if counters:
        lines.append("# HELP repro_counter_total Named counters (MetricsRecorder.count).")
        lines.append("# TYPE repro_counter_total counter")
        for name in sorted(counters):
            lines.append(
                f'repro_counter_total{{name="{_escape_label(name)}"}} '
                f"{_format_value(counters[name])}"
            )
    if span_totals:
        lines.append("# HELP repro_span_seconds_total Seconds in closed spans, by name.")
        lines.append("# TYPE repro_span_seconds_total counter")
        for name in sorted(span_totals):
            lines.append(
                f'repro_span_seconds_total{{span="{_escape_label(name)}"}} '
                f"{span_totals[name]['total_s']:.9f}"
            )
        lines.append("# HELP repro_span_count_total Closed-span count, by name.")
        lines.append("# TYPE repro_span_count_total counter")
        for name in sorted(span_totals):
            lines.append(
                f'repro_span_count_total{{span="{_escape_label(name)}"}} '
                f"{_format_value(span_totals[name]['count'])}"
            )
    if gauges:
        lines.append("# HELP repro_gauge Point-in-time values supplied by the exporter.")
        lines.append("# TYPE repro_gauge gauge")
        for name in sorted(gauges):
            lines.append(
                f'repro_gauge{{name="{_escape_label(name)}"}} '
                f"{_format_value(gauges[name])}"
            )
    return "\n".join(lines) + "\n" if lines else ""


def as_recorder(metrics: "MetricsRecorder | NullRecorder | None"):
    """Resolve a driver's ``metrics=`` argument (None -> the shared no-op)."""
    return NULL_RECORDER if metrics is None else metrics
