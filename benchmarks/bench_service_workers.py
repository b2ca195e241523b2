"""Worker-model benchmark — thread vs process execution, and the TTL soak.

Two phases (the PR-8 acceptance harness):

* **scaling** — ``N_JOBS`` fresh CPU-bound ICD jobs (distinct seeds, no
  dedup) at ``PIXELS``^2 run on ``n_workers=2``, once under
  ``worker_model="thread"`` and once under ``worker_model="process"``.
  Thread workers serialise the NumPy-light ICD sweeps on the GIL, so the
  job-mix makespan barely improves with a second worker; process workers
  run the same jobs in subprocesses (forked, system matrix inherited
  copy-on-write) and scale with cores.  The report records the
  process/thread throughput ratio next to ``cpu_count`` — the ratio is
  only meaningful with >= 2 cores.
* **soak** — a ``job_ttl_s``-bounded HTTP gateway under sustained
  closed-loop load, with a sampler thread watching
  ``len(service.jobs)``: the registry must stay bounded (peak below
  2x client concurrency) instead of growing by one entry per submission,
  with zero server-side 5xx and the evictions visible in the counters.

Assertion modes: the scaling check is skipped
on single-core machines (the GIL is not the bottleneck being removed when
there is nothing to scale onto), advisory by default on multi-core (a
``::warning`` annotation, not a failure — shared CI runners are noisy),
and a hard gate with ``REPRO_BENCH_SERVICE_ASSERT=strict``.  The soak
bound always asserts — it measures leak behaviour, not wall-clock speed.

Emit mode: ``REPRO_BENCH_JSON=path.json`` writes the machine-readable
report (CI uploads it as the ``BENCH_8.json`` perf-trajectory artifact).
CI-size knobs: ``REPRO_BENCH_WORKERS_PIXELS`` / ``_JOBS`` / ``_EQUITS``
scale the CPU-bound phase; ``REPRO_SOAK_JOBS`` the soak.
"""

from __future__ import annotations

import json
import os
import platform
import threading
import time

from conftest import report

from repro.ct import build_system_matrix, scaled_geometry, shepp_logan, simulate_scan
from repro.io import save_scan
from repro.service import HttpGateway, JobSpec, ReconstructionService
from repro.service.loadgen import default_spec_factory, run_load
from repro.service.runner import clear_system_cache, system_for

#: Image side of the CPU-bound scaling mix — big enough that per-job
#: compute dwarfs process spawn + result-file overhead.
PIXELS = int(os.environ.get("REPRO_BENCH_WORKERS_PIXELS", "128"))
#: Jobs per model in the scaling mix (distinct seeds: all fresh compute).
N_JOBS = int(os.environ.get("REPRO_BENCH_WORKERS_JOBS", "4"))
#: Per-job equits — keeps one job at a few iterations of real sweep work.
EQUITS = float(os.environ.get("REPRO_BENCH_WORKERS_EQUITS", "0.5"))
#: Worker pool size under test (the acceptance point of the scaling claim).
N_WORKERS = 2
#: Process >= SCALING_TOLERANCE x thread throughput on a multi-core box.
SCALING_TOLERANCE = 1.3

#: Soak sizing: closed-loop clients and total jobs at 32^2.  Per-job work
#: (SOAK_EQUITS) is deliberately heavy relative to SOAK_TTL_S: the
#: terminal tail lingering inside one TTL window must stay well under the
#: in-flight population, so a peak past 2x concurrency means a leak, not
#: fast jobs outpacing the reaper.
SOAK_PIXELS = 32
SOAK_JOBS = int(os.environ.get("REPRO_SOAK_JOBS", "24"))
SOAK_CONCURRENCY = 4
SOAK_EQUITS = 3.0
SOAK_TTL_S = 0.15


def _scaling_phase() -> dict:
    system = build_system_matrix(scaled_geometry(PIXELS))
    scan = simulate_scan(shepp_logan(PIXELS), system, seed=0)
    del system
    clear_system_cache()

    out: dict[str, dict] = {}
    for model in ("thread", "process"):
        # Warm the process-wide system cache *before* the clock starts:
        # both models then pay zero build time inside the measured window
        # (forked workers inherit the matrix copy-on-write).
        system_for(scan.geometry)
        with ReconstructionService(
            n_workers=N_WORKERS,
            worker_model=model,
            checkpoint_every=1000,  # measure sweeps, not checkpoint I/O
            start=False,
        ) as svc:
            ids = [
                svc.submit(
                    JobSpec(
                        driver="icd",
                        scan=scan,
                        params={
                            "max_equits": EQUITS,
                            "seed": 100 + i,
                            "track_cost": False,
                        },
                    )
                )
                for i in range(N_JOBS)
            ]
            start = time.perf_counter()
            svc.start()
            for job_id in ids:
                svc.result(job_id, timeout=600)
            makespan = time.perf_counter() - start
        out[model] = {
            "makespan_s": round(makespan, 4),
            "throughput_jobs_per_s": round(N_JOBS / makespan, 4),
        }
    out["process_vs_thread"] = round(
        out["process"]["throughput_jobs_per_s"]
        / out["thread"]["throughput_jobs_per_s"],
        3,
    )
    return out


def _soak_phase(tmp_path) -> dict:
    system = build_system_matrix(scaled_geometry(SOAK_PIXELS))
    scan = simulate_scan(shepp_logan(SOAK_PIXELS), system, seed=0)
    save_scan(tmp_path / "soak-scan.npz", scan)
    clear_system_cache()

    service = ReconstructionService(
        n_workers=N_WORKERS, job_ttl_s=SOAK_TTL_S, start=True
    )
    samples: list[int] = []
    stop = threading.Event()

    def sample_registry():
        while not stop.wait(0.02):
            samples.append(len(service.jobs))

    sampler = threading.Thread(target=sample_registry, daemon=True)
    with HttpGateway(service, scan_root=tmp_path, own_service=True) as gw:
        sampler.start()
        load = run_load(
            gw.url,
            mode="closed",
            n_jobs=SOAK_JOBS,
            concurrency=SOAK_CONCURRENCY,
            spec_factory=default_spec_factory(
                driver="icd",
                scan="soak-scan.npz",
                params={"max_equits": SOAK_EQUITS, "track_cost": False},
                priorities=(0,),
                distinct_seeds=SOAK_JOBS,  # every job is fresh compute
            ),
            fetch_results=False,
        )
        # Let the reaper clear the tail before reading the counters.
        deadline = time.monotonic() + 10
        while len(service.jobs) > 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        stop.set()
        sampler.join()
        counters = service.report()["counters"]
    return {
        "load": load.to_dict(),
        "job_ttl_s": SOAK_TTL_S,
        "concurrency": SOAK_CONCURRENCY,
        "registry_peak": max(samples) if samples else 0,
        "registry_final": len(samples) and samples[-1],
        "jobs_evicted": counters.get("service.jobs_evicted", 0),
        "tombstones": counters.get("service.tombstones", 0),
    }


def bench_service_workers(tmp_path):
    cpu_count = os.cpu_count() or 1
    scaling = _scaling_phase()
    soak = _soak_phase(tmp_path)

    ratio = scaling["process_vs_thread"]
    lines = [
        f"{'model':10s} {'makespan':>10s} {'jobs/s':>8s}",
        *(
            f"{m:10s} {scaling[m]['makespan_s']:9.2f}s "
            f"{scaling[m]['throughput_jobs_per_s']:8.3f}"
            for m in ("thread", "process")
        ),
        f"process/thread throughput ratio: {ratio:.2f}x "
        f"(cpu_count={cpu_count})",
        "",
        f"soak: {soak['load']['completed']}/{SOAK_JOBS} jobs, "
        f"registry peak {soak['registry_peak']} "
        f"(bound {2 * SOAK_CONCURRENCY}), "
        f"{soak['jobs_evicted']:.0f} evictions, "
        f"{soak['load']['server_errors_5xx']} 5xx",
    ]
    report(
        f"SERVICE WORKERS — thread vs process at {PIXELS}^2, "
        f"TTL soak at {SOAK_PIXELS}^2",
        "\n".join(lines),
    )

    emit_path = os.environ.get("REPRO_BENCH_JSON")
    if emit_path:
        doc = {
            "bench": "service_workers",
            "python": platform.python_version(),
            "cpu_count": cpu_count,
            "pixels": PIXELS,
            "n_jobs": N_JOBS,
            "n_workers": N_WORKERS,
            "equits": EQUITS,
            "scaling": scaling,
            "soak": soak,
        }
        with open(emit_path, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")

    # -- guards ----------------------------------------------------------
    # The leak bound and 5xx cleanliness always assert.
    assert soak["load"]["server_errors_5xx"] == 0, soak["load"]
    assert soak["load"]["completed"] == SOAK_JOBS, soak["load"]
    assert soak["jobs_evicted"] >= SOAK_JOBS - 1, soak
    assert soak["registry_peak"] < 2 * SOAK_CONCURRENCY, (
        f"registry grew past the TTL bound: peak {soak['registry_peak']} "
        f">= {2 * SOAK_CONCURRENCY} under {SOAK_CONCURRENCY}-way load"
    )

    # The scaling claim needs a second core to scale onto.
    strict = os.environ.get("REPRO_BENCH_SERVICE_ASSERT") == "strict"
    if cpu_count < 2:
        report(
            "SERVICE WORKERS — perf smoke",
            f"single-core machine: process >= {SCALING_TOLERANCE}x thread "
            f"check skipped (measured {ratio:.2f}x)",
        )
    else:
        verdict = (
            f"process at {ratio:.2f}x thread throughput "
            f"({N_JOBS} jobs at {PIXELS}^2, n_workers={N_WORKERS}, "
            f"tolerance {SCALING_TOLERANCE}x)"
        )
        if ratio >= SCALING_TOLERANCE:
            report("SERVICE WORKERS — perf smoke", f"OK: {verdict}")
        elif strict:
            raise AssertionError(f"process model failed to scale: {verdict}")
        else:
            report("SERVICE WORKERS — perf smoke", f"BELOW TOLERANCE: {verdict}")
            print(f"::warning title=worker-model perf smoke::{verdict}")
    return {"scaling": scaling, "soak": soak}


def test_service_workers(benchmark, tmp_path):
    benchmark.pedantic(bench_service_workers, args=(tmp_path,), rounds=1, iterations=1)
