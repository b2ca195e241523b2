"""Observability layer: span/counter recorder semantics and driver wiring.

Two contracts are guarded here:

* the recorder itself — spans nest and close correctly, counters
  accumulate, aggregation and JSON serialisation round-trip;
* non-perturbation — instrumented and uninstrumented runs of all three
  drivers produce *bit-identical* iterates (the recorder only reads the
  clock), reusing the cross-kernel equivalence harness's exact-equality
  style.
"""

from __future__ import annotations

import json
import re
import sys
import threading

import numpy as np
import pytest

from repro.core import (
    GPUICDParams,
    gpu_icd_reconstruct,
    icd_reconstruct,
    psv_icd_reconstruct,
)
from repro.core.kernels import no_compiler
from repro.gpusim import GPUTimingModel
from repro.observability import (
    NULL_RECORDER,
    MetricsRecorder,
    NullRecorder,
    as_recorder,
)


class FakeClock:
    """Deterministic clock: each read advances by ``step`` seconds."""

    def __init__(self, step: float = 1.0) -> None:
        self.t = 0.0
        self.step = step

    def __call__(self) -> float:
        self.t += self.step
        return self.t


class TestMetricsRecorder:
    def test_spans_nest_and_close(self):
        rec = MetricsRecorder(clock=FakeClock())
        with rec.span("outer"):
            with rec.span("inner_a"):
                pass
            with rec.span("inner_b"):
                pass
        assert rec.open_spans == 0
        assert [s.name for s in rec.roots] == ["outer"]
        outer = rec.roots[0]
        assert [c.name for c in outer.children] == ["inner_a", "inner_b"]
        assert all(s.closed for s in [outer, *outer.children])
        # Children lie strictly inside the parent interval.
        for c in outer.children:
            assert outer.start < c.start <= c.end < outer.end

    def test_deterministic_durations(self):
        rec = MetricsRecorder(clock=FakeClock(step=1.0))
        with rec.span("a"):  # enter at t=1, exit at t=2
            pass
        assert rec.roots[0].duration == pytest.approx(1.0)

    def test_siblings_at_root(self):
        rec = MetricsRecorder(clock=FakeClock())
        with rec.span("first"):
            pass
        with rec.span("second"):
            pass
        assert [s.name for s in rec.roots] == ["first", "second"]
        assert not rec.roots[0].children

    def test_exception_closes_span(self):
        rec = MetricsRecorder(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with rec.span("doomed"):
                raise RuntimeError("boom")
        assert rec.open_spans == 0
        assert rec.roots[0].closed

    def test_counters_accumulate(self):
        rec = MetricsRecorder()
        rec.count("x")
        rec.count("x", 4)
        rec.count("y", 2.5)
        assert rec.counters == {"x": 5, "y": 2.5}

    def test_span_totals_aggregates_by_name(self):
        rec = MetricsRecorder(clock=FakeClock(step=1.0))
        for _ in range(3):
            with rec.span("phase"):
                pass
        totals = rec.span_totals()
        assert totals["phase"]["count"] == 3
        assert totals["phase"]["total_s"] == pytest.approx(3.0)
        assert rec.total("phase") == pytest.approx(3.0)
        assert rec.total("absent") == 0.0

    def test_open_span_excluded_from_totals(self):
        rec = MetricsRecorder(clock=FakeClock())
        ctx = rec.span("open")
        ctx.__enter__()
        assert rec.open_spans == 1
        assert "open" not in rec.span_totals()
        d = rec.to_dict()
        assert d["spans"][0]["duration_s"] is None

    def test_meta_recorded(self):
        rec = MetricsRecorder(clock=FakeClock())
        with rec.span("iteration", index=7):
            pass
        assert rec.roots[0].meta == {"index": 7}
        assert rec.to_dict()["spans"][0]["meta"] == {"index": 7}

    def test_to_dict_json_round_trips(self, tmp_path):
        rec = MetricsRecorder(clock=FakeClock())
        with rec.span("outer", kind="test"):
            with rec.span("inner"):
                pass
        rec.count("kernel.python.updates", 12)
        path = tmp_path / "metrics.json"
        rec.write_json(path)
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(rec.to_dict()))
        assert loaded["counters"]["kernel.python.updates"] == 12
        assert loaded["spans"][0]["children"][0]["name"] == "inner"


class TestNullRecorder:
    def test_is_disabled_and_noop(self):
        rec = NullRecorder()
        assert rec.enabled is False
        with rec.span("anything", meta=1) as s:
            assert s is None
        rec.count("x", 5)
        assert rec.span_totals() == {}
        assert rec.to_dict() == {"enabled": False, "spans": [], "counters": {}}

    def test_span_context_is_shared_singleton(self):
        rec = NullRecorder()
        assert rec.span("a") is rec.span("b")

    def test_as_recorder(self):
        assert as_recorder(None) is NULL_RECORDER
        rec = MetricsRecorder()
        assert as_recorder(rec) is rec


# ----------------------------------------------------------------------
# Instrumentation must not perturb the numerics: bit-identical iterates.
# ----------------------------------------------------------------------
class TestInstrumentationIsTransparent:
    def _assert_identical(self, plain, instrumented):
        assert np.array_equal(plain.image, instrumented.image)
        assert np.array_equal(plain.error_sinogram, instrumented.error_sinogram)
        assert [r.updates for r in plain.history.records] == [
            r.updates for r in instrumented.history.records
        ]

    def test_icd(self, scan32, system32):
        kwargs = dict(max_equits=2, seed=0, track_cost=False)
        rec = MetricsRecorder()
        plain = icd_reconstruct(scan32, system32, **kwargs)
        inst = icd_reconstruct(scan32, system32, metrics=rec, **kwargs)
        self._assert_identical(plain, inst)
        assert plain.metrics is None
        assert inst.metrics is rec

    def test_psv_icd(self, scan32, system32):
        kwargs = dict(max_equits=2, seed=0, track_cost=False, sv_side=8, n_cores=4)
        rec = MetricsRecorder()
        plain = psv_icd_reconstruct(scan32, system32, **kwargs)
        inst = psv_icd_reconstruct(scan32, system32, metrics=rec, **kwargs)
        self._assert_identical(plain, inst)

    def test_gpu_icd(self, scan32, system32):
        params = GPUICDParams(sv_side=8, threadblocks_per_sv=4, batch_size=4)
        kwargs = dict(max_equits=2, seed=0, track_cost=False, params=params)
        rec = MetricsRecorder()
        plain = gpu_icd_reconstruct(scan32, system32, **kwargs)
        inst = gpu_icd_reconstruct(scan32, system32, metrics=rec, **kwargs)
        self._assert_identical(plain, inst)


# ----------------------------------------------------------------------
# What an instrumented run records.
# ----------------------------------------------------------------------
class TestDriverMetricsContent:
    def test_icd_per_iteration_spans_and_counters(self, scan32, system32):
        rec = MetricsRecorder()
        res = icd_reconstruct(
            scan32, system32, max_equits=2, seed=0, track_cost=False, metrics=rec
        )
        assert rec.open_spans == 0
        iters = [s for s in rec.roots if s.name == "iteration"]
        assert len(iters) == len(res.history.records)
        assert [s.meta["index"] for s in iters] == list(range(1, len(iters) + 1))
        assert {c.name for c in iters[0].children} == {"sweep", "bookkeeping"}
        total_updates = sum(r.updates for r in res.history.records)
        kernel_updates = sum(
            v for k, v in rec.counters.items()
            if k.startswith("kernel.") and k.endswith(".updates")
        )
        assert kernel_updates == total_updates

    def test_psv_wave_phases(self, scan32, system32):
        rec = MetricsRecorder()
        psv_icd_reconstruct(
            scan32, system32, max_equits=1, seed=0, track_cost=False,
            sv_side=8, n_cores=4, metrics=rec,
        )
        totals = rec.span_totals()
        for phase in ("wave", "extract", "update", "merge"):
            assert phase in totals and totals[phase]["count"] >= 1
        # Phases nest under waves, waves under iterations.
        it = rec.roots[0]
        wave = it.children[0]
        assert wave.name == "wave"
        assert [c.name for c in wave.children] == ["extract", "update", "merge"]

    def test_gpu_kernel_phases_and_counters(self, scan32, system32):
        params = GPUICDParams(sv_side=8, threadblocks_per_sv=4, batch_size=4)
        rec = MetricsRecorder()
        res = gpu_icd_reconstruct(
            scan32, system32, max_equits=2, seed=0, track_cost=False,
            params=params, metrics=rec,
        )
        totals = rec.span_totals()
        for phase in ("extract", "update", "merge"):
            assert totals[phase]["count"] == res.trace.n_kernels
            assert totals[phase]["total_s"] >= 0.0
        assert rec.counters["gpu.batches"] == res.trace.n_kernels
        assert rec.counters["gpu.svs"] == sum(k.n_svs for k in res.trace.kernels)
        batch = rec.roots[0].children[0]
        assert batch.name == "kernel_batch"
        assert [c.name for c in batch.children] == ["extract", "update", "merge"]

    def test_sv_visit_counters_per_flavor(self, scan32, system32):
        rec = MetricsRecorder()
        with no_compiler():
            res = psv_icd_reconstruct(
                scan32, system32, max_equits=1, seed=0, track_cost=False,
                sv_side=8, n_cores=4, metrics=rec,
            )
        assert rec.counters["kernel.python.sv_visits"] == len(
            [s for w in res.trace.waves for s in w.sv_stats]
        )
        assert rec.counters["kernel.python.updates"] == res.trace.total_updates
        assert rec.counters["kernel.python.waves"] >= rec.counters[
            "kernel.python.sv_visits"
        ]


# ----------------------------------------------------------------------
# Measured-vs-modeled join.
# ----------------------------------------------------------------------
class TestMeasuredVsModeled:
    def test_join_shapes_and_positivity(self, geom32, scan32, system32):
        params = GPUICDParams(sv_side=8, threadblocks_per_sv=4, batch_size=4)
        rec = MetricsRecorder()
        res = gpu_icd_reconstruct(
            scan32, system32, max_equits=1, seed=0, track_cost=False,
            params=params, metrics=rec,
        )
        join = GPUTimingModel(geom32).measured_vs_modeled(res.trace, rec)
        assert set(join) == {"modeled_s", "measured_s", "measured_over_modeled"}
        for side in ("modeled_s", "measured_s"):
            assert set(join[side]) == {"extract", "update", "merge", "total"}
            assert join[side]["total"] == pytest.approx(
                join[side]["extract"] + join[side]["update"] + join[side]["merge"]
            )
        assert join["modeled_s"]["total"] > 0.0
        assert join["measured_s"]["total"] > 0.0
        assert join["measured_over_modeled"]["update"] > 0.0
        # The report is JSON-serialisable as-is.
        json.dumps(join)

    def test_join_with_null_recorder_measures_zero(self, geom32, scan32, system32):
        params = GPUICDParams(sv_side=8, threadblocks_per_sv=4, batch_size=4)
        res = gpu_icd_reconstruct(
            scan32, system32, max_equits=1, seed=0, track_cost=False, params=params
        )
        join = GPUTimingModel(geom32).measured_vs_modeled(res.trace, NULL_RECORDER)
        assert join["measured_s"]["total"] == 0.0
        assert join["modeled_s"]["total"] > 0.0


# ----------------------------------------------------------------------
@pytest.fixture()
def tiny_switch_interval():
    """Force frequent GIL handoffs so read-modify-write races surface."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


class TestThreadSafety:
    """Regression tests for the PR-7 concurrency fixes.

    Pre-fix, ``count()`` was a bare read-modify-write (concurrent
    increments were lost) and the span stack was shared (spans from
    different threads interleaved into a corrupted nesting tree).
    """

    def test_concurrent_counts_lose_no_increments(self, tiny_switch_interval):
        rec = MetricsRecorder()
        n_threads, n_increments = 8, 5000
        barrier = threading.Barrier(n_threads)

        def hammer():
            barrier.wait()
            for _ in range(n_increments):
                rec.count("shared")

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert rec.counters["shared"] == n_threads * n_increments

    def test_count_max_is_a_high_water_mark(self):
        rec = MetricsRecorder()
        rec.count_max("peak", 3)
        rec.count_max("peak", 1)
        rec.count_max("peak", 7)
        rec.count_max("peak", 5)
        assert rec.counters["peak"] == 7

    def test_spans_from_threads_do_not_corrupt_nesting(self, tiny_switch_interval):
        rec = MetricsRecorder()
        n_threads, n_spans = 6, 200
        barrier = threading.Barrier(n_threads)

        def worker(tid: int):
            barrier.wait()
            for i in range(n_spans):
                with rec.span(f"outer-{tid}"):
                    with rec.span(f"inner-{tid}"):
                        pass

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Every root is an outer span with exactly one inner child of the
        # *same* thread id — interleaving would nest foreign spans.
        assert len(rec.roots) == n_threads * n_spans
        for root in rec.roots:
            tid = root.name.split("-")[1]
            assert root.name == f"outer-{tid}"
            assert root.closed
            assert [c.name for c in root.children] == [f"inner-{tid}"]
        totals = rec.span_totals()
        for t in range(n_threads):
            assert totals[f"outer-{t}"]["count"] == n_spans
            assert totals[f"inner-{t}"]["count"] == n_spans

    def test_thread_spans_nest_privately_not_under_main_thread(self):
        rec = MetricsRecorder()
        seen: list[list[str]] = []

        def worker():
            with rec.span("worker-span"):
                pass
            seen.append([s.name for s in rec.roots])

        with rec.span("main-span"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
            # The worker's span is a root of its own, not a child of the
            # main thread's still-open span.
            assert rec.open_spans == 1
        main = next(s for s in rec.roots if s.name == "main-span")
        assert [c.name for c in main.children] == []
        assert any(s.name == "worker-span" for s in rec.roots)


# ----------------------------------------------------------------------
class TestPrometheusExport:
    _SAMPLE = re.compile(
        r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
        r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? [0-9.eE+-]+$'
    )

    def _assert_parses(self, text: str) -> dict[str, float]:
        """Minimal Prometheus text-format parser; returns {sample_line: value}."""
        samples = {}
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            assert self._SAMPLE.match(line), f"invalid sample line: {line!r}"
            key, value = line.rsplit(" ", 1)
            samples[key] = float(value)
        return samples

    def test_counters_spans_and_gauges_export(self):
        rec = MetricsRecorder(clock=FakeClock())
        rec.count("service.jobs_submitted", 3)
        with rec.span("iteration"):
            pass
        text = rec.to_prometheus(gauges={"queue_depth": 2})
        samples = self._assert_parses(text)
        assert samples['repro_counter_total{name="service.jobs_submitted"}'] == 3
        assert samples['repro_span_count_total{span="iteration"}'] == 1
        assert samples['repro_span_seconds_total{span="iteration"}'] == pytest.approx(1.0)
        assert samples['repro_gauge{name="queue_depth"}'] == 2
        # TYPE declarations precede their samples.
        assert text.index("# TYPE repro_counter_total counter") < text.index(
            "repro_counter_total{"
        )

    def test_label_values_are_escaped(self):
        rec = MetricsRecorder()
        rec.count('weird"name\\with\nstuff')
        text = rec.to_prometheus()
        self._assert_parses(text)
        assert '\\"' in text and "\\\\" in text and "\\n" in text

    def test_empty_and_null_recorders_export_valid_text(self):
        assert MetricsRecorder().to_prometheus() == ""
        assert NullRecorder().to_prometheus() == ""
        text = NullRecorder().to_prometheus(gauges={"up": 1})
        assert 'repro_gauge{name="up"} 1' in text
