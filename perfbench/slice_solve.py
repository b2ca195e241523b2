"""slice-solve: the solver alone, in process, closed loop with one caller.

Each slice of the corpus is solved by all four drivers with their defaults
(FBP init, inline backend, ``kernel="auto"``, ``max_equits=20``) and
``golden=`` + ``stop_rmse=10``, so every call times one driver's path to
the paper's 10 HU criterion.  The run measures whole passes over the
corpus, in a seeded order, until ``--seconds`` have passed.
"""

from __future__ import annotations

import time

import common
import inputs
from common import median

DRIVERS = ("icd", "psv_icd", "gpu_icd", "multires")
#: Inline set-up (input generation and system-matrix build) repeats this
#: often per run; ``setup_s`` uses the median.
SETUP_REPEATS = 3
MAX_EQUITS = 20.0
#: Host-speed probes before and after the timed window.
PROBES = 5


def driver_fns() -> dict:
    from repro import gpu_icd_reconstruct, icd_reconstruct, psv_icd_reconstruct
    from repro.multires import multires_reconstruct

    return {
        "icd": icd_reconstruct,
        "psv_icd": psv_icd_reconstruct,
        "gpu_icd": gpu_icd_reconstruct,
        "multires": multires_reconstruct,
    }


#: Wrapper spans of a driver's preparation, by the breakdown part they form.
PREP_PARTS = {
    "ct.fbp": "fbp",
    "core.sv_grid_build": "sv grid",
    "core.updater_build": "updater build",
    "core.initial_error": "initial error",
    "multires.resample": "multires resample",
}


def install_tracer(tracer) -> None:
    """Wrap the preparation steps the drivers run outside their iteration
    spans, each where the drivers look it up."""
    import repro.core.gpu_icd
    import repro.core.icd
    import repro.core.psv_icd
    import repro.multires.pyramid as pyramid
    from repro.core.voxel_update import SliceUpdater

    tracer.patch(repro.core.icd, "fbp_reconstruct", "ct.fbp")
    tracer.patch(SliceUpdater, "initial_error", "core.initial_error")
    for module in (repro.core.icd, repro.core.psv_icd, repro.core.gpu_icd):
        tracer.patch(module, "SliceUpdater", "core.updater_build")
    tracer.patch(repro.core.psv_icd, "SuperVoxelGrid", "core.sv_grid_build")
    tracer.patch(repro.core.gpu_icd, "SuperVoxelGrid", "core.sv_grid_build")
    for attr in ("restrict_scan", "prolong_image", "coarse_system_for"):
        tracer.patch(pyramid, attr, "multires.resample")


def bytes_per_update(system) -> float:
    """Computed bytes one voxel update reads and writes (not measured).

    Per footprint entry the kernel reads the row index, the float32
    A-matrix value and its float32 weighted copy, and reads and writes the
    float64 error sinogram; per voxel it reads 8 neighbours (index, weight,
    value) and reads and writes the voxel itself.
    """
    import numpy as np

    m = system.matrix
    footprint = m.nnz / m.shape[1]
    f32, f64 = np.dtype(np.float32).itemsize, np.dtype(np.float64).itemsize
    per_entry = m.indices.dtype.itemsize + 2 * f32 + 2 * f64
    per_voxel = 8 * (np.dtype(np.int64).itemsize + 2 * f64) + 2 * f64
    return footprint * per_entry + per_voxel


def _updates(rec) -> float:
    return sum(v for k, v in rec.counters.items() if k.startswith("kernel.") and k.endswith(".updates"))


def _set_up():
    """Build the system matrix and the corpus: ``(system, scans, build_s, total_s)``."""
    from repro import scaled_geometry
    from repro.ct.system_matrix import build_system_matrix

    t0 = time.perf_counter()
    system = build_system_matrix(scaled_geometry(inputs.SLICE_PIXELS))
    t1 = time.perf_counter()
    scans = inputs.slice_scans(system)
    return system, scans, t1 - t0, time.perf_counter() - t0


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro import MetricsRecorder, rmse_hu

    refs = common.References()
    host = common.HostProbe()
    gen_s, build_s = [], []
    for _ in range(SETUP_REPEATS):
        system = scans = None  # free the previous build before the next
        system, scans, build, total = _set_up()
        build_s.append(build)
        gen_s.append(total)
    goldens = refs.goldens(scans)

    fns = driver_fns()
    t0 = time.perf_counter()
    for name in DRIVERS:  # first calls run slower: warm up untimed
        fns[name](scans[0], system, max_equits=1.0, track_cost=False)
    warm_s = time.perf_counter() - t0
    setup_s = median(gen_s) + warm_s

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        install_tracer(tracer)

    host.measure(PROBES)
    common.reset_self_peak_rss()  # peak_mem_mb covers the timed window only
    solves = {d: [] for d in DRIVERS}  # per-driver records
    ops = []  # per-slice totals
    attempted = failed = 0
    failures = []
    t_start = time.perf_counter()
    p = 0
    while True:
        for i in inputs.slice_order(seed, p, len(scans)):
            op_latency = 0.0
            op_t0 = time.perf_counter()
            op_parts: dict[str, float] = {}
            for name in DRIVERS:
                rec = MetricsRecorder() if trace else None
                n_spans = len(tracer.spans) if tracer else 0
                attempted += 1
                t0 = time.perf_counter()
                result = fns[name](
                    scans[i], system, max_equits=MAX_EQUITS, track_cost=False,
                    golden=goldens[i], stop_rmse=common.TARGET_HU, metrics=rec,
                )
                wall = time.perf_counter() - t0
                err = rmse_hu(result.image, goldens[i])
                equits = result.history.converged_equits
                if not (err < common.TARGET_HU and equits is not None):
                    failed += 1
                    failures.append(f"{name} slice {i}: {err:.2f} HU after {result.history.equits:.2f} equits")
                record = {"wall": wall, "equits": equits or result.history.equits, "rmse": err}
                if trace:
                    record.update(_layers(name, rec, tracer.spans[n_spans:], result, wall))
                    for part, part_s in record["parts"].items():
                        op_parts[part] = op_parts.get(part, 0.0) + part_s
                solves[name].append(record)
                op_latency += wall
            ops.append({"latency": op_latency, "wall": time.perf_counter() - op_t0,
                        "parts": op_parts})
        p += 1
        if time.perf_counter() - t_start >= seconds:
            break
    timed_s = time.perf_counter() - t_start
    peak_mb = common.self_peak_rss_mb()
    host.measure(PROBES)

    metrics = {
        "setup_s": setup_s,
        "latency_p50_s": median(o["latency"] for o in ops),
        "peak_mem_mb": peak_mb,
    }
    layer = {
        "ct.system_matrix_build_s": median(build_s),
        "core.bytes_per_update": bytes_per_update(system),
    }
    for name in DRIVERS:
        rs = solves[name]
        layer[f"core.{name}.solve_s"] = median(r["wall"] for r in rs)
        layer[f"core.{name}.equits_to_10hu"] = median(r["equits"] for r in rs)
        if trace:
            for key in ("prep_s", "iterate_s", "s_per_equit", "updates_per_s"):
                layer[f"core.{name}.{key}"] = median(r[key] for r in rs)
    if trace:
        for key in ("extract_s", "update_s", "merge_s"):
            layer[f"core.gpu_icd.{key}"] = median(r[key] for r in solves["gpu_icd"])
        mr = solves["multires"]
        for k in range(3):
            layer[f"multires.level{k}_s"] = median(r["levels"][k][0] for r in mr if len(r["levels"]) > k)
            layer[f"multires.level{k}_equits"] = median(r["levels"][k][1] for r in mr if len(r["levels"]) > k)
        all_rs = [r for name in DRIVERS for r in solves[name]]
        layer["ct.fbp_s"] = median(x for r in all_rs for x in r["fbp"])
        layer["core.sv_grid_build_s"] = median(x for r in all_rs for x in r["grid"])
        mid = sorted(ops, key=lambda o: o["latency"])[(len(ops) - 1) // 2]
        layer["trace.unattributed_share"] = 1.0 - sum(mid["parts"].values()) / mid["wall"]
        layer["trace.median_op"] = mid["parts"]

    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "layer": layer,
        "counts": {
            "slices": len(ops),
            "solves_per_driver": len(solves[DRIVERS[0]]),
            "setup_repeats": SETUP_REPEATS,
        },
        "timed_s": timed_s,
        "host": host,
        "refs_s": refs.build_s,
        "refs_built": refs.built,
        "checks": {
            f"every solve < {common.TARGET_HU:g} HU of golden within {MAX_EQUITS:g} equits":
                failed == 0,
        },
    }


def _layers(name, rec, spans, result, wall) -> dict:
    """One solve's per-layer self times, from its recorder and wrapper spans."""
    fbp = [s["dur"] for s in spans if s["name"] == "ct.fbp"]
    grid = [s["dur"] for s in spans if s["name"] == "core.sv_grid_build"]
    prep_parts = {part: 0.0 for part in PREP_PARTS.values()}
    for s in spans:
        if s["depth"] == 0 and s["name"] in PREP_PARTS:
            prep_parts[PREP_PARTS[s["name"]]] += s["dur"]
    iterate = rec.total("iteration")
    equits = result.history.equits or 1.0
    busy = rec.total("sweep") + rec.total("update")
    out = {
        "iterate_s": iterate,
        "prep_s": wall - iterate - sum(fbp) - sum(grid),
        "s_per_equit": iterate / equits,
        "updates_per_s": _updates(rec) / busy if busy else 0.0,
        "fbp": fbp,
        "grid": grid,
        "extract_s": rec.total("extract"),
        "update_s": rec.total("update"),
        "merge_s": rec.total("merge"),
    }
    # prep_s is, as defined, the rest of the call; the breakdown names only
    # the measured preparation steps, so the rest shows as unattributed.
    out["parts"] = {f"{name} iterate": iterate, **prep_parts}
    if name == "multires":
        durations = {}
        for root in rec.roots:
            if root.name == "multires_level":
                durations[root.meta["level"]] = root.duration
        out["levels"] = [(durations.get(lv.level, 0.0), lv.equits) for lv in result.levels]
    return out
