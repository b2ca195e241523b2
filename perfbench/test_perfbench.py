"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import groups  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import stream  # noqa: E402
import tracing  # noqa: E402

NAMES = ["slice0.npz", "slice1.npz", "slice2.npz", "slice3.npz"]
#: Workload and metric names the benchmark contract accepts.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_schedule_is_a_pure_function_of_the_seed():
    a = inputs.arrival_schedule(5, 1.3, 15.0)
    assert a == inputs.arrival_schedule(5, 1.3, 15.0)
    b = inputs.arrival_schedule(6, 1.3, 15.0)
    assert a != b
    # Every seed offers the same trace: arrival times, and each fresh
    # job's driver and scan.
    assert [x.at for x in a] == [x.at for x in b]
    fresh = [(x.index, x.driver, x.scan) for x in a if x.resubmit_of is None]
    assert fresh == [(x.index, x.driver, x.scan) for x in b if x.resubmit_of is None]
    assert len(a) == round(1.3 * 15.0)
    times = [x.at for x in a]
    assert times == sorted(times) and 0.0 <= times[0] and times[-1] < 15.0
    assert inputs.slice_order(5, 1, 4) == inputs.slice_order(5, 1, 4)
    assert inputs.group_seed(5, 0) == inputs.group_seed(5, 0) != inputs.group_seed(5, 1)


def test_schedule_mix_and_resubmissions():
    a = inputs.arrival_schedule(3, 1.3, 60.0)
    fresh = [x for x in a if x.resubmit_of is None]
    counts = Counter(x.driver for x in fresh)
    assert set(counts) == set(inputs.STREAM_DRIVERS)
    assert max(counts.values()) - min(counts.values()) <= 1
    assert len({x.job_seed for x in fresh}) == len(fresh)
    copies = [x for x in a if x.resubmit_of is not None]
    assert len(copies) >= len(a) // inputs.RESUBMIT_EVERY - 2
    for x in copies:
        src = a[x.resubmit_of]
        assert src.resubmit_of is None
        assert x.at - src.at >= inputs.RESUBMIT_MIN_AGE_S
        assert x.body(NAMES) == src.body(NAMES)


def test_tail_takes_the_highest_percentile_with_ten_samples_beyond():
    assert common.tail(list(range(10))) is None
    assert common.tail(list(range(11))) == (100.0 / 11, 0)
    pct, value = common.tail(list(range(1, 21)))
    assert (pct, value) == (50.0, 10)
    assert sum(1 for v in range(1, 21) if v > value) == 10


def test_refused_and_failed_jobs_are_infinitely_late():
    assert stream.job_latency({"refused": 429}) == math.inf
    assert stream.job_latency({"snap": {"state": "FAILED"}}) == math.inf
    done = {"image": object(), "due": 100.0, "download_s": 0.5,
            "snap": {"finished_at": 102.0}}
    assert stream.job_latency(done) == 2.5
    late = [1.0] * 14 + [stream.job_latency({"refused": 503})] * 11
    assert common.tail(late)[1] == math.inf


def test_names_follow_the_contract():
    with open(common.ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    # service-stream runs by hand only (see README.md); the rest are listed.
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS) - {"service-stream"}
    names = list(run.WORKLOADS)
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
    assert {"setup_s", "latency_p50_s", "peak_mem_mb"} <= {m["name"] for m in bench["end_to_end"]}


class _FakeSampler:
    interval = 0.01

    def wait(self, seconds):
        time.sleep(max(0.0, seconds))

    def sample(self, force=False):
        pass


def test_generator_never_exceeds_nproc_threads(monkeypatch):
    lock = threading.Lock()
    seen = {"threads": 0, "in_flight": 0, "connections": 0}

    def fake_request(server, method, path, body=None, timeout=None):
        with lock:
            seen["in_flight"] += 1
            seen["connections"] = max(seen["connections"], seen["in_flight"])
            seen["threads"] = max(seen["threads"], threading.active_count())
        try:
            time.sleep(0.002)
            if method == "POST":
                return 201, {}, json.dumps({"job_id": f"j{time.monotonic_ns()}"}).encode()
            if path.endswith("timeout=300"):
                return 200, {}, b""
            now = time.time()
            return 200, {}, json.dumps({
                "state": "DONE", "from_cache": False,
                "submitted_at": now, "started_at": now, "finished_at": now,
            }).encode()
        finally:
            with lock:
                seen["in_flight"] -= 1

    monkeypatch.setattr(stream, "request", fake_request)
    monkeypatch.setattr(stream, "read_image", lambda data, tmp_dir: b"image")
    jobs = [{"arrival": a} for a in inputs.arrival_schedule(1, 40.0, 0.5)]
    before = threading.active_count()
    stream.drive(SimpleNamespace(tmp=None), jobs, NAMES, _FakeSampler())
    assert all("image" in j for j in jobs)
    # The calling thread sends; drive() adds one completion thread.
    generator_threads = 1 + seen["threads"] - before
    assert generator_threads <= 2 <= common.nproc()
    assert seen["connections"] <= generator_threads


def test_correct_needs_every_check_and_no_median_is_infinite():
    names_units = [("latency_p50_s", "s"), ("setup_s", "s")]
    result = {"checks": {"a": True, "b": True}, "attempted": 4, "failed": 0}
    line = run.result_line(result, {"latency_p50_s": 1.5, "setup_s": 2.0}, names_units)
    assert line["correct"] is True
    assert line["metrics"]["latency_p50_s"] == {"value": 1.5, "unit": "s"}
    result["checks"]["b"] = False
    assert run.result_line(result, {"latency_p50_s": 1.5, "setup_s": 2.0}, names_units)["correct"] is False
    # More than half of the operations failed: the median is infinite and
    # no number may stand in for it.
    median = common.median([1.0] + [math.inf] * 2)
    with pytest.raises(ValueError):
        run.result_line(result, {"latency_p50_s": median, "setup_s": 2.0}, names_units)


def _group_server(result_status: int, state: str):
    calls = []

    def fake_request(server, method, path, body=None, timeout=None):
        calls.append((method, path))
        if method == "POST":
            return 201, {}, json.dumps({"job_id": "g"}).encode()
        if path.startswith("/jobs/g/result"):
            return result_status, {}, b"npz" if result_status == 200 else b"{}"
        if path == "/jobs/g":
            return 200, {}, json.dumps({"state": state, "group": {"children": ["g-s000"]}}).encode()
        return 200, {}, json.dumps({"job_id": "g-s000", "state": state}).encode()

    return fake_request


def test_failed_and_refused_groups_are_infinitely_late(monkeypatch):
    monkeypatch.setattr(groups, "read_image", lambda data, tmp_dir: "image")
    server = SimpleNamespace(tmp=None)
    monkeypatch.setattr(groups, "request", _group_server(500, "FAILED"))
    failed = groups._run_group(server, {})
    assert failed["latency"] == math.inf and failed["image"] is None
    monkeypatch.setattr(groups, "request", _group_server(200, "DONE"))
    done = groups._run_group(server, {})
    assert math.isfinite(done["latency"]) and done["image"] == "image"
    monkeypatch.setattr(groups, "request", lambda *a, **k: (503, {}, b"{}"))
    refused = groups._run_group(server, {})
    assert refused["latency"] == math.inf and refused["image"] is None


def _child(job_id, submitted, started, finished):
    return {"job_id": job_id, "submitted_at": submitted, "started_at": started,
            "finished_at": finished}


def _spans(job_id, run_start, driver_start, driver_end, saves=()):
    spans = [
        {"name": "service.run_job", "start": run_start, "dur": driver_end + 0.01 - run_start, "job": job_id},
        {"name": "core.icd", "start": driver_start, "dur": driver_end - driver_start, "job": job_id},
    ]
    spans += [{"name": "io.result_save", "start": t, "dur": d, "job": job_id} for t, d in saves]
    return spans


def test_job_breakdown_leaves_unnamed_time_unattributed():
    snap = _child("j", 10.0, 10.5, 13.0)
    # The worker's result save counts; the gateway's HTTP spool, after
    # finished_at, lies inside the client's download and does not.
    spans = _spans("j", 10.6, 10.8, 12.5, saves=[(12.6, 0.1), (13.2, 0.05)])
    parts = tracing.job_parts(snap, spans)
    assert parts == pytest.approx({"queue wait": 0.5, "worker start": 0.1, "job set-up": 0.2,
                                   "driver": 1.7, "result save + load": 0.1})
    # 12.5 -> 13.0 holds 0.1 s of named saves; the other 0.4 s is unnamed.
    assert sum(parts.values()) == pytest.approx(snap["finished_at"] - snap["submitted_at"] - 0.4)
    hit = {"job_id": "h", "submitted_at": 1.0, "started_at": None, "finished_at": 1.2}
    cache = [{"name": "service.cache_get", "start": 1.05, "dur": 0.1, "job": "h"}]
    assert tracing.job_parts(hit, cache) == pytest.approx({"cache read": 0.1})


def test_group_breakdown_follows_the_critical_path():
    children = [
        _child("g-r00-s000", 0.2, 0.3, 2.0),
        _child("g-r00-s001", 0.25, 0.3, 3.0),  # round 0's last to finish
        _child("g-r01-s000", 3.5, 3.6, 5.0),
        _child("g-r01-s001", 3.5, 3.6, 4.0),
    ]
    jobs = {
        "g-r00-s001": _spans("g-r00-s001", 0.4, 0.5, 2.9),
        "g-r01-s000": _spans("g-r01-s000", 3.7, 3.8, 4.9),
    }
    group = {"submitted": 0.0, "received": 5.5, "children": children}
    parts = groups.group_parts(group, jobs)
    assert parts["group submit"] == pytest.approx(0.2)
    assert parts["coordinator between rounds"] == pytest.approx(0.5)
    assert parts["stitch + download"] == pytest.approx(0.5)
    assert parts["driver"] == pytest.approx(2.4 + 1.1)
    # Unnamed: round 0's critical child was submitted 0.05 s after the
    # first, and each critical child spent 0.1 s from driver return to
    # finished_at with no named span.
    assert 5.5 - sum(parts.values()) == pytest.approx(0.05 + 0.1 + 0.1)
    assert groups._round_gaps(group) == [pytest.approx(0.6)]


def test_round_gaps():
    group = {"children": [
        {"job_id": "g-r00-s000", "started_at": 0.0, "finished_at": 1.0},
        {"job_id": "g-r00-s001", "started_at": 0.0, "finished_at": 1.5},
        {"job_id": "g-r01-s000", "started_at": 1.75, "finished_at": 3.0},
    ]}
    assert groups._round_gaps(group) == [0.25]
    slices = {"children": [{"job_id": "g-s000", "started_at": 0.0, "finished_at": 1.0}]}
    assert groups._round_gaps(slices) == []


def test_an_orphaned_process_is_adopted_and_reaped():
    # In its own interpreter, since adopting orphans changes the process.
    code = (
        "import os, subprocess, common\n"
        "common.adopt_orphans()\n"
        "subprocess.run(['sh', '-c', 'sleep 60 & exit 0'], check=True)\n"
        "assert common.children_of(os.getpid()), 'the orphan was not adopted'\n"
        "common.reap_children()\n"
        "assert not common.children_of(os.getpid())\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    print('no child left')\n"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                         text=True, timeout=60)
    assert out.stdout.strip() == "no child left", out.stderr
