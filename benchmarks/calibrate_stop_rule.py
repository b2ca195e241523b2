"""Calibrate the reference-free stopping rule (``stop_delta_hu``, DESIGN.md §18).

Solves harness cases at 64² and 128² with icd, gpu_icd, psv_icd and
multires, each to a fixed equit budget, and reports where the rule stops
each run and how far from the 40-equit golden image it lands.

icd, gpu_icd and psv_icd run once per case with ``stop_delta_hu=0.0``: the
statistic is recorded every iteration but the rule never fires.  Each
candidate threshold is then replayed over that history with the drivers'
own :class:`~repro.core.convergence.StopRule`; the rule reads only the
history, so the replayed stop is exactly where a run with that threshold
stops.  multires applies the rule at every pyramid level, which changes
the finest level's seed, so it runs once per threshold instead.

    PYTHONPATH=src python benchmarks/calibrate_stop_rule.py
    PYTHONPATH=src python benchmarks/calibrate_stop_rule.py --pixels 64 --thresholds 0.25

Prints one row per driver x case at each threshold: equits at stop (or
``budget``), the budget, RMSE vs golden at the stop, and RMSE at the
run's minimum (a run whose RMSE climbs after its minimum is diverging).
Takes about five minutes on a 2-vCPU host.
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.core.convergence import RunHistory, StopRule
from repro.core.gpu_icd import gpu_icd_reconstruct
from repro.core.icd import golden_reconstruction, icd_reconstruct
from repro.core.psv_icd import psv_icd_reconstruct
from repro.ct.geometry import scaled_geometry
from repro.ct.system_matrix import build_system_matrix
from repro.harness.testcases import (
    generate_suite,
    generate_volume_suite,
    scan_for_case,
    scans_for_volume_case,
)
from repro.multires.pyramid import multires_reconstruct

DRIVERS = {"icd": icd_reconstruct, "gpu_icd": gpu_icd_reconstruct, "psv_icd": psv_icd_reconstruct}


def cases(n: int, system) -> list[tuple[str, object]]:
    """``(label, scan)`` pairs: two suite slices and a 2-slice volume.

    At 128² the suite is the slice-solve corpus (``seed=2017``, whose
    slice 1 converges slowest of these cases) and the volume is the
    volume-group corpus (``seed=2019``).
    """
    suite_seed, volume_seed = (2017, 2019) if n == 128 else (0, 1)
    out = [
        (f"suite{n}-s{suite_seed}-{k}", scan_for_case(c, system))
        for k, c in enumerate(generate_suite(2, n, seed=suite_seed))
    ]
    (vol,) = generate_volume_suite(1, 2, n, seed=volume_seed)
    out += [
        (f"volume{n}-s{volume_seed}-{k}", scan)
        for k, scan in enumerate(scans_for_volume_case(vol, system))
    ]
    return out


def replay(history: RunHistory, n_voxels: int, budget: float, threshold: float):
    """The record a run with ``stop_delta_hu=threshold`` stops on, and why."""
    rule = StopRule(n_voxels=n_voxels, max_updates=budget * n_voxels, stop_delta_hu=threshold)
    total_updates = 0
    for k, record in enumerate(history.records, start=1):
        total_updates += record.updates
        reason = rule.reason(RunHistory(records=history.records[:k]), total_updates)
        if reason is not None:
            return record, reason
    return history.records[-1], "budget"


def row(driver, label, record, reason, budget, history) -> str:
    at = f"{record.equits:6.2f}" if reason == "converged" else "budget"
    best = np.nanmin(history.rmses)
    return (
        f"{driver:9s} {label:18s} {at:>7s} {budget:6.1f} "
        f"{record.rmse:9.3f} {best:9.3f}"
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--pixels", type=int, nargs="+", default=[64, 128])
    ap.add_argument("--budget", type=float, default=20.0)
    ap.add_argument("--thresholds", type=float, nargs="+", default=[1.0, 0.5, 0.25, 0.1])
    args = ap.parse_args()

    rows: dict[float, list[str]] = {t: [] for t in args.thresholds}
    for n in args.pixels:
        system = build_system_matrix(scaled_geometry(n))
        for label, scan in cases(n, system):
            golden = golden_reconstruction(scan, system)
            common = dict(max_equits=args.budget, golden=golden, track_cost=False)
            for name, fn in DRIVERS.items():
                history = fn(scan, system, stop_delta_hu=0.0, **common).history
                for t in args.thresholds:
                    record, reason = replay(history, system.geometry.n_voxels, args.budget, t)
                    rows[t].append(row(name, label, record, reason, args.budget, history))
            for t in args.thresholds:
                history = multires_reconstruct(scan, system, stop_delta_hu=t, **common).history
                rows[t].append(
                    row("multires", label, history.records[-1], history.stop_reason,
                        args.budget, history)
                )
            print(f"done {label}", flush=True)

    header = f"{'driver':9s} {'case':18s} {'stop':>7s} {'budget':>6s} {'rmse@stop':>9s} {'rmse min':>9s}"
    for t in args.thresholds:
        print(f"\nstop_delta_hu = {t:g} HU (equits at stop; RMSE in HU vs 40-equit golden)")
        print(header)
        print("\n".join(rows[t]))


if __name__ == "__main__":
    main()
