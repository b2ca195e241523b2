"""Workload inputs: fixed corpora of scans, plus seeded schedules over them.

Every scan comes from the program's own generators
(``repro.harness.testcases`` phantoms → ``simulate_scan``).  The corpora
are fixed, so their golden images are computed once and cached, and so is
the service-stream arrival trace.  The run seed decides the rest: the
order slices are solved in, the jobs' ``seed`` parameters, which jobs are
resubmitted, and the groups' ``seed`` parameters.  The
slice-solve drivers keep their default seed, so that workload does the
same work under every run seed.  Every function here is a pure function
of its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Seeds of the fixed corpora (phantoms and scan noise).
SLICE_CORPUS_SEED = 2017
STREAM_CORPUS_SEED = 2018
VOLUME_CORPUS_SEED = 2019
#: Seed of the service-stream arrival trace (times and driver order).
TRACE_SEED = 2020

SLICE_PIXELS = 128
SLICE_CASES = 2
STREAM_PIXELS = 64
STREAM_SCANS = 4
VOLUME_PIXELS = 128
VOLUME_SLICES = 2

STREAM_DRIVERS = ("icd", "gpu_icd", "multires")
#: The README's example budget; jobs carry no golden image.
STREAM_PARAMS = {"max_equits": 10.0}
#: One job in this many is an exact resubmission of an earlier job.
RESUBMIT_EVERY = 4
#: A resubmission targets a job sent at least this long before it, so the
#: generator already holds that job's result when the copy is sent.
RESUBMIT_MIN_AGE_S = 6.0

#: Rows-mode plan, as in BENCH_10.
ROWS_PLAN = {"n_shards": 2, "halo": 2, "rounds": 3}
VOLUME_PARAMS = {"max_equits": 10.0}


def slice_scans(system):
    """The slice-solve corpus: distinct ``generate_suite`` slices."""
    from repro.harness.testcases import generate_suite, scan_for_case

    cases = generate_suite(SLICE_CASES, SLICE_PIXELS, seed=SLICE_CORPUS_SEED)
    return [scan_for_case(c, system) for c in cases]


def stream_scans(system):
    from repro.harness.testcases import generate_suite, scan_for_case

    cases = generate_suite(STREAM_SCANS, STREAM_PIXELS, seed=STREAM_CORPUS_SEED)
    return [scan_for_case(c, system) for c in cases]


def volume_scans(system):
    """The volume-group corpus: one ``generate_volume_suite`` volume."""
    from repro.harness.testcases import generate_volume_suite, scans_for_volume_case

    (case,) = generate_volume_suite(1, VOLUME_SLICES, VOLUME_PIXELS, seed=VOLUME_CORPUS_SEED)
    return scans_for_volume_case(case, system)


def slice_order(seed: int, pass_index: int, n: int) -> list[int]:
    """The order one pass visits the slice corpus in."""
    return [int(i) for i in np.random.default_rng([seed, 1, pass_index]).permutation(n)]


@dataclass(frozen=True)
class Arrival:
    """One scheduled POST of the service-stream generator."""

    index: int
    at: float  # seconds after the start of the timed window
    driver: str
    scan: int  # index into the stream corpus
    job_seed: int
    resubmit_of: int | None = None  # index of the arrival this copies

    def body(self, scan_names: list[str]) -> dict:
        return {
            "driver": self.driver,
            "scan": scan_names[self.scan],
            "params": {**STREAM_PARAMS, "seed": self.job_seed},
        }


def arrival_schedule(seed: int, rate: float, duration: float) -> list[Arrival]:
    """The service-stream jobs for run ``seed``: a fixed arrival trace at
    ``rate``/s over ``duration`` seconds, filled with seeded jobs.

    The trace — arrival times and each fresh job's driver and scan — comes
    from :data:`TRACE_SEED`, so every run offers the server the same bursts
    and the same work (one scan costs up to 20 % less than another under
    the same driver), and differences between runs come from timing, not
    from the luck of the draw.  It has ``round(rate * duration)`` arrivals whose times are a
    Poisson process conditioned on that count (sorted uniform times: the
    gaps are exponential).  Each block of :data:`RESUBMIT_EVERY` arrivals
    holds one fresh job per driver and one exact resubmission of a fresh
    job sent at least :data:`RESUBMIT_MIN_AGE_S` earlier (a fresh job when
    there is none yet).  The run seed picks each fresh job's ``seed``
    parameter and which job each resubmission copies.
    """
    trace = np.random.default_rng([TRACE_SEED, 3])
    rng = np.random.default_rng([seed, 3])
    times = np.sort(trace.uniform(0.0, duration, max(1, round(rate * duration))))
    out: list[Arrival] = []
    block: list[str] = []
    for i, t in enumerate(times.tolist()):
        if i % RESUBMIT_EVERY == RESUBMIT_EVERY - 1:
            old = [a for a in out if a.resubmit_of is None and a.at <= t - RESUBMIT_MIN_AGE_S]
            if old:
                src = old[int(rng.integers(len(old)))]
                out.append(Arrival(i, t, src.driver, src.scan, src.job_seed, src.index))
                continue
        if not block:
            block = [STREAM_DRIVERS[k] for k in trace.permutation(len(STREAM_DRIVERS))]
        out.append(Arrival(
            i, t, block.pop(), int(trace.integers(STREAM_SCANS)), int(rng.integers(0, 2**31 - 1))
        ))
    return out


def group_seed(seed: int, cycle: int) -> int:
    """The ``seed`` of both groups of one volume-group cycle."""
    return int(np.random.default_rng([seed, 4, cycle]).integers(0, 2**31 - 1))
