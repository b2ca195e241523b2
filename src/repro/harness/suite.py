"""Large-ensemble statistics runner — the "3200 test cases" machinery.

Table 1's aggregates (geometric-mean speedups, standard deviations) come
from a 3200-slice suite.  This module runs the same protocol over an
arbitrary-size synthetic ensemble, reports distribution statistics
(percentiles, not just means), and can cache scans/goldens on disk via
:mod:`repro.io` so a large suite is paid for once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.harness.experiments import TABLE1_METHODS, ExperimentContext, run_table1_case
from repro.harness.reporting import format_table, geometric_mean
from repro.harness.testcases import generate_suite, scan_for_case
from repro.io import load_scan, save_scan
from repro.utils import check_positive

__all__ = ["SuiteStatistics", "run_suite"]


@dataclass
class SuiteStatistics:
    """Distributional results of an ensemble run."""

    n_cases: int
    equits: dict[str, np.ndarray]  # method -> per-case equits
    times: dict[str, np.ndarray]  # method -> per-case modeled seconds
    failures: list[str] = field(default_factory=list)

    def percentiles(self, method: str, qs=(5, 25, 50, 75, 95)) -> dict[int, float]:
        """Time percentiles for one method."""
        t = self.times[method]
        return {q: float(np.percentile(t, q)) for q in qs}

    def geomean_speedup(self, slow: str, fast: str) -> float:
        """Geometric-mean per-case speedup of ``fast`` over ``slow``."""
        return geometric_mean(self.times[slow] / self.times[fast])

    def format(self) -> str:
        """Distribution table across methods."""
        headers = ["Method", "N", "MeanTime", "Std", "P5", "P50", "P95", "MeanEquits"]
        rows = []
        for m, t in self.times.items():
            p = self.percentiles(m)
            rows.append([
                m, t.size, float(t.mean()), float(t.std()), p[5], p[50], p[95],
                float(self.equits[m].mean()),
            ])
        out = format_table(headers, rows)
        pairs = [("seq", "psv"), ("seq", "gpu"), ("psv", "gpu")]
        parts = [
            f"{fast.upper()}/{slow} {self.geomean_speedup(slow, fast):.2f}x"
            for slow, fast in pairs
            if slow in self.times and fast in self.times
        ]
        if parts:
            out += "\ngeomean speedups: " + ", ".join(parts)
        if self.failures:
            out += f"\nnon-converged cases (at the equit cap): {len(self.failures)}"
        return out


def run_suite(
    ctx: ExperimentContext,
    *,
    n_cases: int | None = None,
    cache_dir: str | Path | None = None,
    methods: tuple[str, ...] = TABLE1_METHODS,
) -> SuiteStatistics:
    """Run the Table 1 protocol over an ensemble of ``n_cases`` slices.

    Parameters
    ----------
    ctx:
        Experiment context supplying the geometry, system matrix and
        convergence settings.
    n_cases:
        Ensemble size (defaults to ``ctx.n_cases``).  Cases beyond the
        context's cached set are generated deterministically from the same
        seed stream.
    cache_dir:
        If given, scans are cached there as ``.npz`` (via :mod:`repro.io`)
        and reused across suite runs.
    methods:
        Which drivers to run (any of "seq", "psv", "gpu").
    """
    n_cases = n_cases if n_cases is not None else ctx.n_cases
    check_positive("n_cases", n_cases)
    cases = generate_suite(n_cases, ctx.n_pixels, seed=ctx.seed)
    cache = Path(cache_dir) if cache_dir is not None else None
    if cache is not None:
        cache.mkdir(parents=True, exist_ok=True)

    equits: dict[str, list[float]] = {m: [] for m in methods}
    times: dict[str, list[float]] = {m: [] for m in methods}
    failures: list[str] = []

    for case in cases:
        if cache is not None:
            path = cache / f"{case.name}.npz"
            if path.exists():
                scan = load_scan(path)
            else:
                scan = scan_for_case(case, ctx.system)
                save_scan(path, scan)
        else:
            scan = scan_for_case(case, ctx.system)
        # Goldens are not kept on the context: a large suite would hold
        # one image per case.
        runs = run_table1_case(ctx, scan, ctx.golden_of(scan), methods)
        for m, run in runs.items():
            if not run.converged:
                failures.append(f"{case.name}:{m}")
            equits[m].append(run.equits)
            times[m].append(run.time_s)

    return SuiteStatistics(
        n_cases=n_cases,
        equits={m: np.array(v) for m, v in equits.items()},
        times={m: np.array(v) for m, v in times.items()},
        failures=failures,
    )
