"""volume-group: shard groups through the gateway, one group at a time.

Closed loop.  Each cycle submits a slices-mode group (the corpus volume,
one icd child per slice) and then a rows-mode group (one slice as
halo-exchanged row stripes over dependent rounds), each awaited as its
stitched result bytes.  A cycle's two groups share a seed drawn from the
run seed, so no child is ever a cache hit.  The run measures whole cycles
until ``--seconds`` have passed.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import threading
import time

import common
import deploy
import inputs
from common import median
from server import PeakSampler, read_image, request

_ROUND = re.compile(r"-r(\d+)-s\d+$")
#: Host-speed probes before and after the timed window.
PROBES = 5
MODES = ("slices", "rows")


def _write(scan_root, scans) -> list[str]:
    from repro.io import save_scan, save_volume_scan

    save_volume_scan(scan_root / "volume.npz", scans)
    save_scan(scan_root / "slice0.npz", scans[0])
    return ["slice0.npz", "volume.npz"]


def _bodies(seed: int) -> dict:
    return {
        "slices": {
            "driver": "icd", "scan": "volume.npz",
            "params": {**inputs.VOLUME_PARAMS, "seed": seed},
            "shards": {"mode": "slices"},
        },
        "rows": {
            "driver": "icd", "scan": "slice0.npz", "params": {},
            "shards": {"mode": "rows", **inputs.ROWS_PLAN, "seed": seed},
        },
    }


def _run_group(server, body: dict) -> dict:
    """Submit one group, await its stitched bytes, then read each status once.

    A group refused, or not DONE with its bytes received, is infinitely late.
    """
    t0 = time.time()
    status, _, resp = request(server, "POST", "/jobs", body)
    t_posted = time.time()
    if status != 201:
        return {"submitted": t0, "refused": status, "latency": math.inf, "image": None}
    gid = json.loads(resp)["job_id"]
    status, _, data = request(server, "GET", f"/jobs/{gid}/result?timeout=300")
    t_end = time.time()
    _, _, snap = request(server, "GET", f"/jobs/{gid}")
    snap = json.loads(snap)
    children = [json.loads(request(server, "GET", f"/jobs/{cid}")[2])
                for cid in snap["group"]["children"]]
    done = status == 200 and snap["state"] == "DONE"
    return {
        "submitted": t0, "posted": t_posted, "received": t_end,
        "latency": t_end - t0 if done else math.inf,
        "http_status": status, "state": snap["state"], "children": children,
        "image": read_image(data, server.tmp) if done else None,
    }


def _sample_until(sampler, stop: threading.Event) -> None:
    while not stop.is_set():
        sampler.wait(sampler.interval)


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro import rmse_hu

    refs = common.References()
    scans = deploy.scans_for(inputs.VOLUME_PIXELS, inputs.volume_scans)
    goldens = refs.goldens(scans)
    host = common.HostProbe()
    work = deploy.work_dir("volume-group", seed)
    server = None
    stop = threading.Event()
    try:
        server, _, setups = deploy.deploy(
            work, inputs.VOLUME_PIXELS, inputs.volume_scans, _write, trace=trace
        )
        host.measure(PROBES)
        sampler = PeakSampler(server.pid)
        sampling = threading.Thread(target=_sample_until, args=(sampler, stop), name="pss-sampler")
        sampling.start()
        cpu0 = common.cpu_seconds(server.pid)
        cycles = []
        t0 = time.perf_counter()
        while not cycles or time.perf_counter() - t0 < seconds:
            gs = inputs.group_seed(seed, len(cycles))
            bodies = _bodies(gs)
            cycles.append({"seed": gs, **{m: _run_group(server, bodies[m]) for m in MODES}})
        wall = time.perf_counter() - t0
        stop.set()
        sampling.join()
        sampler.sample(force=True)
        cpu1 = common.cpu_seconds(server.pid)
        host.measure(PROBES)
        disk = server.disk_bytes()
        server.stop()
        spans = None
        if trace:
            from tracing import load_spans

            spans = load_spans(server.trace_dir)
    finally:
        stop.set()
        if server is not None:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)

    unsharded = refs.unsharded(
        [(scans[0], inputs.ROWS_PLAN["rounds"], c["seed"]) for c in cycles]
    )
    failures = []
    checks = {"slices": True, "rows": True, "done": True}
    for c, ref in zip(cycles, unsharded):
        for mode in MODES:
            g = c[mode]
            if g["image"] is None:
                checks["done"] = False
                g["failed"] = True
                failures.append(f"{mode} group seed {c['seed']}: "
                                f"{g.get('refused') or g.get('state')} (HTTP {g.get('http_status')})")
        if not c["slices"].get("failed"):
            for k, gold in enumerate(goldens):
                err = rmse_hu(c["slices"]["image"][k], gold)
                if err >= common.TARGET_HU:
                    checks["slices"] = False
                    c["slices"]["failed"] = True
                    failures.append(f"slices group seed {c['seed']} slice {k}: {err:.2f} HU")
        if not c["rows"].get("failed"):
            image = c["rows"]["image"]
            err = rmse_hu(image[0] if image.ndim == 3 else image, ref)
            if err >= common.ROWS_PIN_HU:
                checks["rows"] = False
                c["rows"]["failed"] = True
                failures.append(f"rows group seed {c['seed']}: {err:.2f} HU from unsharded")

    groups = [c[m] for c in cycles for m in MODES]
    children = [s for g in groups for s in g.get("children", []) if _ran(s)]
    run_s = [s["finished_at"] - s["started_at"] for s in children]
    queue_s = [s["started_at"] - s["submitted_at"] for s in children]
    layer = {
        "shards.slices_group_s": median(c["slices"]["latency"] for c in cycles),
        "shards.rows_group_s": median(c["rows"]["latency"] for c in cycles),
        "shards.child_run_s": median(run_s),
        "shards.child_queue_wait_s": median(queue_s),
        "shards.stitch_s": median(
            g["received"] - max(s["finished_at"] for s in g["children"])
            for g in groups if g.get("children") and not g.get("failed")),
        "shards.round_gap_s": median(gap for c in cycles for gap in _round_gaps(c["rows"])),
        "service.run_s": median(run_s),
        "service.queue_wait_s": median(queue_s),
        "service.utilisation": sum(run_s) / (server.workers * wall),
        "service.gateway_cpu_s": (cpu1 - cpu0) / max(1, len(children)),
        "service.http.submit_s": median(g["posted"] - g["submitted"] for g in groups if "posted" in g),
        "disk_mb": disk / 2**20,
    }
    latencies = [sum(c[m]["latency"] for m in MODES) for c in cycles]
    result = {
        "attempted": len(groups),
        "failed": sum(1 for g in groups if g.get("failed")),
        "failures": failures,
        "metrics": {
            "setup_s": median(setups),
            "latency_p50_s": median(latencies),
            "peak_mem_mb": sampler.peak_mb,
        },
        "layer": layer,
        "counts": {
            "cycles": len(cycles),
            "groups": len(groups),
            "children": len(children),
            "setup_repeats": len(setups),
            "pss_samples": sampler.samples,
        },
        "timed_s": wall,
        "host": host,
        "refs_s": refs.build_s,
        "refs_built": refs.built,
        "checks": {
            "every group DONE": checks["done"],
            "every stitched slice < 10 HU of golden": checks["slices"],
            f"every rows group < {common.ROWS_PIN_HU:g} HU of the unsharded solve": checks["rows"],
        },
    }
    if spans is not None:
        layer.update(trace_layers(spans, cycles, latencies))
    return result


def _ran(s: dict) -> bool:
    """Whether a child's status shows it started and finished."""
    return s.get("started_at") is not None and s.get("finished_at") is not None


def _rounds(children) -> list[list[dict]]:
    """Children that ran, by round (a rows child's id ends
    ``-r<round>-s<stripe>``; a slices group is one round)."""
    rounds: dict[int, list[dict]] = {}
    for s in children:
        if _ran(s):
            m = _ROUND.search(s["job_id"])
            rounds.setdefault(int(m.group(1)) if m else 0, []).append(s)
    return [rounds[r] for r in sorted(rounds)]


def _round_gaps(group: dict) -> list[float]:
    order = _rounds(group.get("children", []))
    return [
        min(s["started_at"] for s in b) - max(s["finished_at"] for s in a)
        for a, b in zip(order, order[1:])
    ]


def group_parts(group: dict, jobs: dict) -> dict:
    """One group's latency along its critical path, from measured intervals.

    The path runs from the submit to the first child's submission, then,
    per round, through the child that finished last (its queue wait, worker
    start, set-up, driver and result persistence), from that child's finish
    to the next round's first submission (the coordinator between rounds),
    and from the last child's finish to the stitched bytes being received.
    Time no named interval covers is left out, so it shows as unattributed.
    """
    from tracing import job_parts

    order = _rounds(group["children"])
    parts = {"group submit": min(s["submitted_at"] for s in order[0]) - group["submitted"]}
    for r, children in enumerate(order):
        last = max(children, key=lambda s: s["finished_at"])
        for name, seconds in job_parts(last, jobs.get(last["job_id"], ())).items():
            parts[name] = parts.get(name, 0.0) + seconds
        if r + 1 < len(order):
            nxt = min(s["submitted_at"] for s in order[r + 1])
            parts["coordinator between rounds"] = (
                parts.get("coordinator between rounds", 0.0) + nxt - last["finished_at"])
    parts["stitch + download"] = group["received"] - max(s["finished_at"] for s in order[-1])
    return parts


def trace_layers(spans, cycles, latencies) -> dict:
    """Per-layer figures of a traced run, and the median cycle's breakdown."""
    from tracing import by_job, service_layers

    children = [s for c in cycles for m in MODES for s in c[m].get("children", [])]
    out = service_layers(spans, [s for s in children if _ran(s)])
    jobs = by_job(spans)
    k = sorted(range(len(cycles)), key=lambda i: latencies[i])[(len(cycles) - 1) // 2]
    if not math.isfinite(latencies[k]):
        return out
    mid = cycles[k]
    parts: dict[str, float] = {}
    for mode in MODES:
        for name, seconds in group_parts(mid[mode], jobs).items():
            parts[name] = parts.get(name, 0.0) + seconds
    latency = sum(mid[m]["latency"] for m in MODES)
    out["trace.unattributed_share"] = 1.0 - sum(parts.values()) / latency
    out["trace.median_op"] = parts
    return out
