"""Experiment drivers — one per table/figure of the paper's §5.

Each ``run_*`` function reproduces one published result and returns a
structured record with a ``format()`` method printing the same rows/series
the paper reports.  The split of responsibilities (DESIGN.md §2):

* **Convergence quantities** (equits, RMSE trajectories, zero-skip
  fractions, kernel/batch schedules) are *measured* from real runs of the
  actual algorithms on scaled geometry (default 96^2; the paper's ratios of
  views/channels to image size are preserved, and SV sides / threadblock
  counts / batch sizes are scaled by the same factors).
* **Hardware quantities** (seconds) come from the calibrated Titan X / Xeon
  performance models evaluated on the paper's full 512^2 / 720-view / 1024-
  channel geometry.

Reported execution time = measured equits x modeled full-size time/equit,
exactly the decomposition Table 1 itself uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.gpu_icd import GPUICDParams, GPUICDResult, gpu_icd_reconstruct
from repro.core.icd import icd_reconstruct
from repro.core.psv_icd import PSVICDResult, psv_icd_reconstruct
from repro.core.supervoxel import shared_grid
from repro.ct.geometry import ParallelBeamGeometry, paper_geometry, scaled_geometry
from repro.ct.sinogram import ScanData
from repro.ct.system_matrix import SystemMatrix, build_system_matrix
from repro.gpusim.cache import SetAssociativeCache
from repro.gpusim.cpu_model import CPUTimingModel
from repro.gpusim.device import TITAN_X
from repro.gpusim.kernel import GPUKernelConfig
from repro.gpusim.timing import GPUTimingModel
from repro.harness.reporting import format_table, geometric_mean
from repro.harness.testcases import TestCase, generate_suite, scan_for_case
from repro.layout.traces import amatrix_stream
from repro.utils import check_positive

__all__ = [
    "ExperimentContext",
    "scaled_gpu_params",
    "scaled_psv_side",
    "Table1Result",
    "TABLE1_METHODS",
    "CaseRun",
    "run_table1_case",
    "run_table1",
    "Fig5Result",
    "run_fig5",
    "Fig6Result",
    "run_fig6",
    "Table2Result",
    "run_table2",
    "Table3Result",
    "run_table3",
    "Fig7aResult",
    "run_fig7a",
    "SweepResult",
    "run_fig7b",
    "run_fig7c",
    "run_fig7d",
]

#: Paper reference values (Table 1).
PAPER_PSV_SV_SIDE = 13
PAPER_GPU_PARAMS = GPUICDParams()  # sv_side 33, 40 TB/SV, 256 threads, batch 32
#: Voxels per threadblock at the paper's tuned point (33^2 / 40).
PAPER_VOXELS_PER_TB = 33 * 33 / 40.0
#: Fraction of all SVs per batch at the paper's tuned point (32 of ~241).
PAPER_BATCH_FRACTION = 32.0 / 241.0


def scaled_psv_side(n_pixels: int) -> int:
    """PSV-ICD SV side scaled from the paper's 13-on-512 ratio."""
    check_positive("n_pixels", n_pixels)
    return max(3, int(round(PAPER_PSV_SV_SIDE * n_pixels / 512)))


def scaled_gpu_params(n_pixels: int) -> GPUICDParams:
    """GPU-ICD tuning parameters scaled to an ``n_pixels`` problem.

    Preserves the paper's ratios: SV side / image side, voxels per
    threadblock, and batch size / total SV count.
    """
    check_positive("n_pixels", n_pixels)
    sv_side = max(4, int(round(PAPER_GPU_PARAMS.sv_side * n_pixels / 512)))
    tb = max(2, int(round(sv_side**2 / PAPER_VOXELS_PER_TB)))
    n_svs = (n_pixels / sv_side) ** 2
    batch = max(4, int(round(PAPER_BATCH_FRACTION * n_svs)))
    return GPUICDParams(
        sv_side=sv_side,
        threadblocks_per_sv=tb,
        batch_size=batch,
        threads_per_block=PAPER_GPU_PARAMS.threads_per_block,
        fraction=PAPER_GPU_PARAMS.fraction,
        chunk_width=PAPER_GPU_PARAMS.chunk_width,
    )


@dataclass
class ExperimentContext:
    """Shared state for a harness session: geometry, matrix, models, suite.

    Heavy artifacts (system matrix, golden reconstructions) are built once
    and cached.
    """

    n_pixels: int = 64
    n_cases: int = 3
    seed: int = 0
    golden_equits: float = 40.0
    stop_rmse: float = 10.0
    max_equits: float = 25.0

    _goldens: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    _scans: dict[str, ScanData] = field(default_factory=dict, repr=False)

    @cached_property
    def geometry(self) -> ParallelBeamGeometry:
        """Scaled acquisition geometry for the real-numerics runs."""
        return scaled_geometry(self.n_pixels)

    @cached_property
    def system(self) -> SystemMatrix:
        """System matrix for the scaled geometry."""
        return build_system_matrix(self.geometry)

    @cached_property
    def paper_geom(self) -> ParallelBeamGeometry:
        """The paper's full-size geometry (512^2, 720 views, 1024 channels)."""
        return paper_geometry()

    @cached_property
    def gpu_model(self) -> GPUTimingModel:
        """Titan X timing model on the full-size geometry."""
        return GPUTimingModel(self.paper_geom)

    @cached_property
    def cpu_model(self) -> CPUTimingModel:
        """Xeon timing model on the full-size geometry."""
        return CPUTimingModel(self.paper_geom)

    @cached_property
    def cases(self) -> list[TestCase]:
        """The synthetic slice ensemble."""
        return generate_suite(self.n_cases, self.n_pixels, seed=self.seed)

    def scan(self, case: TestCase) -> ScanData:
        """Cached acquisition of one case."""
        if case.name not in self._scans:
            self._scans[case.name] = scan_for_case(case, self.system)
        return self._scans[case.name]

    def golden(self, case: TestCase) -> np.ndarray:
        """Cached golden image of one case (:meth:`golden_of` its scan)."""
        if case.name not in self._goldens:
            self._goldens[case.name] = self.golden_of(self.scan(case))
        return self._goldens[case.name]

    def golden_of(self, scan: ScanData) -> np.ndarray:
        """Golden image: traditional ICD run long (§5.2), uncached."""
        return icd_reconstruct(
            scan,
            self.system,
            max_equits=self.golden_equits,
            seed=self.seed,
            track_cost=False,
        ).image

    # ------------------------------------------------------------------
    def equits_of(self, history) -> float:
        """Equits at convergence, falling back to the run total."""
        return history.converged_equits if history.converged_equits is not None else history.equits

    @staticmethod
    def skip_fraction(trace) -> float:
        """Measured zero-skip fraction from a GPU or PSV execution trace."""
        updates = skipped = 0
        units = trace.kernels if hasattr(trace, "kernels") else trace.waves
        for unit in units:
            for s in unit.sv_stats:
                updates += s.updates
                skipped += s.skipped
        total = updates + skipped
        return skipped / total if total else 0.0


# ======================================================================
# Table 1 — overall performance comparison
# ======================================================================
@dataclass
class Table1Result:
    """Per-method aggregates matching the paper's Table 1 columns."""

    rows: list[dict]
    per_case: list[dict]

    def format(self) -> str:
        """The Table 1 layout."""
        headers = [
            "Method",
            "MeanTime(s)",
            "SpeedupVsSeq",
            "StdDev(s)",
            "SVSide",
            "Equits",
            "s/Equit",
        ]
        table = [
            [
                r["method"],
                r["mean_time"],
                f'{r["speedup_seq"]:.1f}x',
                r["std_time"],
                r["sv_side"],
                r["equits"],
                r["time_per_equit"],
            ]
            for r in self.rows
        ]
        extra = next(r for r in self.rows if r["method"] == "GPU-ICD")
        return (
            format_table(headers, table)
            + f"\nGPU-ICD speedup over PSV-ICD: {extra['speedup_psv']:.2f}x"
        )


#: Table 1's drivers, by the short names its per-case records use.
TABLE1_METHODS = ("seq", "psv", "gpu")


@dataclass(frozen=True)
class CaseRun:
    """One driver's outcome on one case under the Table 1 protocol."""

    equits: float  # equits to ``stop_rmse`` (the run total if never reached)
    time_s: float  # modeled full-size seconds for those equits
    converged: bool  # whether the run reached ``stop_rmse``


def run_table1_case(
    ctx: ExperimentContext,
    scan: ScanData,
    golden: np.ndarray,
    methods: tuple[str, ...] = TABLE1_METHODS,
) -> dict[str, CaseRun]:
    """Table 1's per-case protocol, one :class:`CaseRun` per method.

    Each driver runs to ``ctx.stop_rmse`` HU of ``golden`` (capped at
    ``ctx.max_equits``); its equits to that point times the modeled
    full-size time per equit, at the run's measured zero-skip fraction for
    the SV drivers, is its time.
    """
    common = dict(golden=golden, stop_rmse=ctx.stop_rmse, max_equits=ctx.max_equits,
                  seed=ctx.seed, track_cost=False)
    runs = {}
    for m in methods:
        if m == "seq":
            res = icd_reconstruct(scan, ctx.system, **common)
            eq = ctx.equits_of(res.history)
            t = eq * ctx.cpu_model.sequential_equit_time()
        elif m == "psv":
            res = psv_icd_reconstruct(
                scan, ctx.system, sv_side=scaled_psv_side(ctx.n_pixels), **common
            )
            eq = ctx.equits_of(res.history)
            t = ctx.cpu_model.reconstruction_time(
                eq, PAPER_PSV_SV_SIDE, zero_skip_fraction=ctx.skip_fraction(res.trace)
            )
        elif m == "gpu":
            res = gpu_icd_reconstruct(
                scan, ctx.system, params=scaled_gpu_params(ctx.n_pixels), **common
            )
            eq = ctx.equits_of(res.history)
            t = ctx.gpu_model.reconstruction_time(
                eq, PAPER_GPU_PARAMS, zero_skip_fraction=ctx.skip_fraction(res.trace)
            )
        else:
            raise ValueError(f"unknown method {m!r}")
        runs[m] = CaseRun(equits=eq, time_s=t, converged=res.history.converged_equits is not None)
    return runs


def run_table1(ctx: ExperimentContext) -> Table1Result:
    """Reproduce Table 1 over the synthetic ensemble."""
    per_case = []
    for case in ctx.cases:
        runs = run_table1_case(ctx, ctx.scan(case), ctx.golden(case))
        per_case.append(
            dict(case=case.name,
                 **{f"eq_{m}": run.equits for m, run in runs.items()},
                 **{f"t_{m}": run.time_s for m, run in runs.items()})
        )

    t_seq, t_psv, t_gpu = (np.array([c[f"t_{m}"] for c in per_case]) for m in TABLE1_METHODS)
    eq_seq, eq_psv, eq_gpu = (np.array([c[f"eq_{m}"] for c in per_case]) for m in TABLE1_METHODS)

    rows = [
        dict(method="Sequential-ICD", mean_time=float(t_seq.mean()), speedup_seq=1.0,
             std_time=float(t_seq.std()), sv_side="-", equits=float(eq_seq.mean()),
             time_per_equit=float((t_seq / eq_seq).mean()), speedup_psv=float("nan")),
        dict(method="PSV-ICD", mean_time=float(t_psv.mean()),
             speedup_seq=geometric_mean(t_seq / t_psv), std_time=float(t_psv.std()),
             sv_side=PAPER_PSV_SV_SIDE, equits=float(eq_psv.mean()),
             time_per_equit=float((t_psv / eq_psv).mean()), speedup_psv=1.0),
        dict(method="GPU-ICD", mean_time=float(t_gpu.mean()),
             speedup_seq=geometric_mean(t_seq / t_gpu), std_time=float(t_gpu.std()),
             sv_side=PAPER_GPU_PARAMS.sv_side, equits=float(eq_gpu.mean()),
             time_per_equit=float((t_gpu / eq_gpu).mean()),
             speedup_psv=geometric_mean(t_psv / t_gpu)),
    ]
    return Table1Result(rows=rows, per_case=per_case)


# ======================================================================
# Fig. 5 — convergence vs wall time
# ======================================================================
@dataclass
class Fig5Result:
    """RMSE-vs-modeled-time convergence series for both parallel drivers."""

    psv_series: list[tuple[float, float]]  # (seconds, HU RMSE)
    gpu_series: list[tuple[float, float]]

    def format(self) -> str:
        rows = []
        for name, series in [("PSV-ICD", self.psv_series), ("GPU-ICD", self.gpu_series)]:
            for t, r in series:
                rows.append([name, t, r])
        return format_table(["Method", "Time(s)", "RMSE(HU)"], rows)


def _time_series(ctx, history, equit_time: float) -> list[tuple[float, float]]:
    """Cumulative modeled time vs RMSE, per outer iteration."""
    series = []
    for rec in history.records:
        if rec.rmse is not None:
            series.append((rec.equits * equit_time, rec.rmse))
    return series


def run_fig5(ctx: ExperimentContext, case_index: int = 0) -> Fig5Result:
    """Reproduce Fig. 5 on one representative slice."""
    case = ctx.cases[case_index]
    scan = ctx.scan(case)
    golden = ctx.golden(case)
    common = dict(golden=golden, max_equits=ctx.max_equits, seed=ctx.seed, track_cost=False)
    psv = psv_icd_reconstruct(scan, ctx.system, sv_side=scaled_psv_side(ctx.n_pixels), **common)
    gpu = gpu_icd_reconstruct(scan, ctx.system, params=scaled_gpu_params(ctx.n_pixels), **common)
    psv_equit_t = ctx.cpu_model.psv_equit_time(
        PAPER_PSV_SV_SIDE, zero_skip_fraction=ctx.skip_fraction(psv.trace)
    )
    gpu_equit_t = ctx.gpu_model.equit_time(
        PAPER_GPU_PARAMS, zero_skip_fraction=ctx.skip_fraction(gpu.trace)
    )
    return Fig5Result(
        psv_series=_time_series(ctx, psv.history, psv_equit_t),
        gpu_series=_time_series(ctx, gpu.history, gpu_equit_t),
    )


# ======================================================================
# Fig. 6 — data-layout transformation vs chunk width
# ======================================================================
@dataclass
class Fig6Result:
    """Speedup of the transformed layout over the naive layout, per width."""

    widths: list[int]
    speedups: list[float]

    def format(self) -> str:
        return format_table(
            ["ChunkWidth", "SpeedupOverNaiveLayout"],
            [[w, f"{s:.2f}x"] for w, s in zip(self.widths, self.speedups)],
        )

    @property
    def best_width(self) -> int:
        """The chunk width with the highest modeled speedup."""
        return self.widths[int(np.argmax(self.speedups))]


def run_fig6(
    ctx: ExperimentContext,
    widths: tuple[int, ...] = (4, 8, 16, 24, 32, 48, 64, 96, 128),
    *,
    zero_skip_fraction: float = 0.4,
) -> Fig6Result:
    """Reproduce Fig. 6: layout-transform speedup across chunk widths."""
    cfg = GPUKernelConfig()
    naive = ctx.gpu_model.equit_time(
        PAPER_GPU_PARAMS, cfg.with_(transformed_layout=False),
        zero_skip_fraction=zero_skip_fraction,
    )
    speedups = []
    for w in widths:
        params = GPUICDParams(chunk_width=w)
        t = ctx.gpu_model.equit_time(params, cfg, zero_skip_fraction=zero_skip_fraction)
        speedups.append(naive / t)
    return Fig6Result(widths=list(widths), speedups=speedups)


# ======================================================================
# Table 2 — A-matrix representation and path
# ======================================================================
@dataclass
class Table2Result:
    """Per-configuration times plus model and cache-simulated hit rates."""

    rows: list[dict]

    def format(self) -> str:
        return format_table(
            ["A-matrix(memory,type)", "ExecTime(s)", "ModelTexHit%", "CacheSimHit%"],
            [
                [r["config"], r["time"],
                 "-" if r["model_hit"] is None else f'{100 * r["model_hit"]:.2f}',
                 "-" if r["sim_hit"] is None else f'{100 * r["sim_hit"]:.2f}']
                for r in self.rows
            ],
        )


def run_table2(
    ctx: ExperimentContext,
    *,
    equits: float = 5.9,
    zero_skip_fraction: float = 0.4,
) -> Table2Result:
    """Reproduce Table 2: (global|texture) x (float|char) A-matrix reads.

    Times come from the full-size model; the hit-rate *mechanism* is also
    demonstrated by streaming real A-matrix addresses of a scaled SV
    through the 24 KB set-associative texture-cache simulator: the 1-byte
    stream fits 4x more entries, so its hit rate is markedly higher.
    """
    base = GPUKernelConfig()
    grid = shared_grid(ctx.system, scaled_gpu_params(ctx.n_pixels).sv_side)
    sv = grid.svs[len(grid.svs) // 2]
    members = np.arange(min(sv.n_voxels, 48))

    rows = []
    for label, cfg in [
        ("(Global, float)", base.with_(a_matrix_bytes=4, a_via_texture=False)),
        ("(Texture, float)", base.with_(a_matrix_bytes=4, a_via_texture=True)),
        ("(Global, char)", base.with_(a_matrix_bytes=1, a_via_texture=False)),
        ("(Texture, char)", base.with_(a_matrix_bytes=1, a_via_texture=True)),
    ]:
        t = equits * ctx.gpu_model.equit_time(
            PAPER_GPU_PARAMS, cfg, zero_skip_fraction=zero_skip_fraction
        )
        if cfg.a_via_texture:
            model_hit = ctx.gpu_model.tex_hit_rate(cfg)
            cache = SetAssociativeCache(TITAN_X.unified_l1_tex_bytes, line_bytes=32, ways=8)
            stream = amatrix_stream(sv, members, cfg.a_matrix_bytes, chunk_width=32)
            sim_hit = cache.access_trace(stream)
        else:
            model_hit = None
            sim_hit = None
        rows.append(dict(config=label, time=t, model_hit=model_hit, sim_hit=sim_hit))
    return Table2Result(rows=rows)


# ======================================================================
# Table 3 — GPU-specific optimizations on/off
# ======================================================================
@dataclass
class Table3Result:
    """Slowdown when each optimization is disabled."""

    rows: list[dict]

    def format(self) -> str:
        return format_table(
            ["Optimization turned off", "Slowdown"],
            [[r["name"], f'{r["slowdown"]:.3f}x'] for r in self.rows],
        )


def run_table3(
    ctx: ExperimentContext,
    *,
    zero_skip_fraction: float = 0.4,
) -> Table3Result:
    """Reproduce Table 3: disable each of the five optimizations.

    The first four rows are hardware effects from the full-size model.  The
    batch-size threshold row is measured: two real scaled runs (threshold
    on/off) provide the kernel-size mix and convergence, and the model
    prices the under-filled launches.
    """
    cfg = GPUKernelConfig()
    base = ctx.gpu_model.equit_time(
        PAPER_GPU_PARAMS, cfg, zero_skip_fraction=zero_skip_fraction
    )
    rows = [
        dict(
            name="Reading Sinogram as double",
            slowdown=ctx.gpu_model.equit_time(
                PAPER_GPU_PARAMS, cfg.with_(sinogram_as_double=False),
                zero_skip_fraction=zero_skip_fraction) / base,
        ),
        dict(
            name="Placing Variables on the Shared Memory",
            slowdown=ctx.gpu_model.equit_time(
                PAPER_GPU_PARAMS, cfg.with_(shared_spill=False),
                zero_skip_fraction=zero_skip_fraction) / base,
        ),
        dict(
            name="Exploiting Intra-SV Parallelism",
            slowdown=ctx.gpu_model.equit_time(
                GPUICDParams(threadblocks_per_sv=1), cfg,
                zero_skip_fraction=zero_skip_fraction) / base,
        ),
        dict(
            name="Dynamic voxel distribution",
            slowdown=ctx.gpu_model.equit_time(
                GPUICDParams(dynamic_scheduling=False), cfg,
                zero_skip_fraction=zero_skip_fraction) / base,
        ),
        dict(name="Setting threshold for batch sizes", slowdown=_threshold_slowdown(ctx, cfg)),
    ]
    return Table3Result(rows=rows)


def _threshold_slowdown(ctx: ExperimentContext, cfg: GPUKernelConfig) -> float:
    """Price the batch-size threshold from real kernel-size mixes.

    Runs the scaled driver with the threshold on and off, then costs each
    recorded kernel at full size with its relative fill level.
    """
    case = ctx.cases[0]
    scan = ctx.scan(case)
    golden = ctx.golden(case)
    params = scaled_gpu_params(ctx.n_pixels)
    # Choose a batch just below the expected per-group selection so that
    # remainder launches actually occur — the regime the threshold governs.
    grid = shared_grid(ctx.system, params.sv_side)
    per_group = params.fraction * grid.n_svs / 4.0
    batch = max(4, int(round(0.75 * per_group)))
    times = {}
    for on in (True, False):
        p = GPUICDParams(
            sv_side=params.sv_side, threadblocks_per_sv=params.threadblocks_per_sv,
            batch_size=batch, use_threshold=on, fraction=params.fraction,
        )
        res = gpu_icd_reconstruct(
            scan, ctx.system, params=p, golden=golden, stop_rmse=ctx.stop_rmse,
            max_equits=ctx.max_equits, seed=ctx.seed, track_cost=False,
        )
        # Cost each kernel at full size with the same fill ratio.
        total = 0.0
        total_updates = 0
        for k in res.trace.kernels:
            fill = k.n_svs / p.batch_size
            n_svs_full = max(1, int(round(fill * PAPER_GPU_PARAMS.batch_size)))
            total += ctx.gpu_model.batch_time(
                n_svs_full, PAPER_GPU_PARAMS.sv_side**2 * 0.6, PAPER_GPU_PARAMS, cfg,
                skipped_per_sv=PAPER_GPU_PARAMS.sv_side**2 * 0.4,
            )
            total_updates += k.updates
        # Normalise to time-to-convergence at equal update counts.
        eq = ctx.equits_of(res.history)
        times[on] = total / max(total_updates, 1) * eq
    return times[False] / times[True]


# ======================================================================
# Fig. 7a — SuperVoxel side length
# ======================================================================
@dataclass
class Fig7aResult:
    """Per-side modeled time/equit, measured equits, and total time."""

    rows: list[dict]

    def format(self) -> str:
        return format_table(
            ["SVSide(paper)", "SVSide(scaled)", "s/Equit(model)", "Equits(measured)",
             "TotalTime(s)", "L2HitRate"],
            [[r["side"], r["scaled_side"], r["equit_time"], r["equits"],
              r["total_time"], r["l2_hit"]] for r in self.rows],
        )

    @property
    def best_side(self) -> int:
        """Paper-scale SV side with the lowest total modeled time."""
        best = min(self.rows, key=lambda r: r["total_time"])
        return best["side"]


def run_fig7a(
    ctx: ExperimentContext,
    sides: tuple[int, ...] = (9, 17, 25, 33, 41, 49),
    case_index: int = 0,
    n_seeds: int = 3,
) -> Fig7aResult:
    """Reproduce Fig. 7a: sweep the SV side; equits measured, time modeled.

    Equits are averaged over ``n_seeds`` randomized visit orders — the
    side-dependence of convergence is a small effect at scaled problem
    sizes and needs the noise averaged out.
    """
    case = ctx.cases[case_index]
    scan = ctx.scan(case)
    golden = ctx.golden(case)
    cfg = GPUKernelConfig()
    rows = []
    for side in sides:
        scaled_side = max(3, int(round(side * ctx.n_pixels / 512)))
        tb = max(2, int(round(scaled_side**2 / PAPER_VOXELS_PER_TB)))
        n_svs = (ctx.n_pixels / scaled_side) ** 2
        batch = max(4, int(round(PAPER_BATCH_FRACTION * n_svs)))
        p_scaled = GPUICDParams(sv_side=scaled_side, threadblocks_per_sv=tb, batch_size=batch)
        eq_samples = []
        zsf_samples = []
        for s in range(n_seeds):
            res = gpu_icd_reconstruct(
                scan, ctx.system, params=p_scaled, golden=golden, stop_rmse=ctx.stop_rmse,
                max_equits=ctx.max_equits, seed=ctx.seed + s, track_cost=False,
            )
            eq_samples.append(ctx.equits_of(res.history))
            zsf_samples.append(ctx.skip_fraction(res.trace))
        equits = float(np.mean(eq_samples))
        zsf = float(np.mean(zsf_samples))
        p_full = GPUICDParams(sv_side=side)
        equit_time = ctx.gpu_model.equit_time(p_full, cfg, zero_skip_fraction=zsf)
        kc = ctx.gpu_model.mbir_kernel_cost(
            p_full.batch_size, side**2 * (1 - zsf), p_full, cfg, skipped_per_sv=side**2 * zsf
        )
        rows.append(
            dict(side=side, scaled_side=scaled_side, equit_time=equit_time, equits=equits,
                 total_time=equits * equit_time, l2_hit=kc.l2_hit_rate)
        )
    return Fig7aResult(rows=rows)


# ======================================================================
# Figs. 7b / 7c / 7d — threadblocks per SV, threads per block, batch size
# ======================================================================
@dataclass
class SweepResult:
    """Generic 1-D parameter sweep of modeled time per equit."""

    parameter: str
    values: list[int]
    equit_times: list[float]
    extra: dict = field(default_factory=dict)

    def format(self) -> str:
        return format_table(
            [self.parameter, "s/Equit(model)"],
            [[v, t] for v, t in zip(self.values, self.equit_times)],
        )

    @property
    def best_value(self) -> int:
        """Swept value with the lowest modeled time per equit."""
        return self.values[int(np.argmin(self.equit_times))]


def run_fig7b(
    ctx: ExperimentContext,
    values: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 40, 64),
    *,
    zero_skip_fraction: float = 0.4,
) -> SweepResult:
    """Fig. 7b: threadblocks per SV (intra-SV parallelism granularity)."""
    cfg = GPUKernelConfig()
    times = [
        ctx.gpu_model.equit_time(
            GPUICDParams(threadblocks_per_sv=v), cfg, zero_skip_fraction=zero_skip_fraction
        )
        for v in values
    ]
    return SweepResult("ThreadblocksPerSV", list(values), times)


def run_fig7c(
    ctx: ExperimentContext,
    values: tuple[int, ...] = (64, 128, 192, 256, 384, 512),
    *,
    zero_skip_fraction: float = 0.4,
) -> SweepResult:
    """Fig. 7c: threads per threadblock (intra-voxel parallelism granularity)."""
    cfg = GPUKernelConfig()
    times = []
    occupancies = {}
    for v in values:
        times.append(
            ctx.gpu_model.equit_time(
                GPUICDParams(threads_per_block=v), cfg, zero_skip_fraction=zero_skip_fraction
            )
        )
        kc = ctx.gpu_model.mbir_kernel_cost(
            32, 33**2 * 0.6, GPUICDParams(threads_per_block=v), cfg, skipped_per_sv=33**2 * 0.4
        )
        occupancies[v] = kc.occupancy
    return SweepResult("ThreadsPerBlock", list(values), times, extra={"occupancy": occupancies})


def run_fig7d(
    ctx: ExperimentContext,
    values: tuple[int, ...] = (2, 4, 8, 16, 32, 64, 128),
    *,
    zero_skip_fraction: float = 0.4,
    measure_convergence: bool = False,
    case_index: int = 0,
) -> SweepResult:
    """Fig. 7d: SVs per kernel launch (batch size).

    With ``measure_convergence=True`` the scaled driver also measures how
    larger batches (coarser error-sinogram updates) slow convergence, and
    the result carries total times (equits x modeled equit time).
    """
    cfg = GPUKernelConfig()
    times = [
        ctx.gpu_model.equit_time(
            GPUICDParams(batch_size=v), cfg, zero_skip_fraction=zero_skip_fraction
        )
        for v in values
    ]
    extra: dict = {}
    if measure_convergence:
        case = ctx.cases[case_index]
        scan = ctx.scan(case)
        golden = ctx.golden(case)
        base = scaled_gpu_params(ctx.n_pixels)
        equits = {}
        for v in values:
            scaled_batch = max(1, int(round(v * base.batch_size / 32)))
            p = GPUICDParams(
                sv_side=base.sv_side, threadblocks_per_sv=base.threadblocks_per_sv,
                batch_size=scaled_batch,
            )
            res = gpu_icd_reconstruct(
                scan, ctx.system, params=p, golden=golden, stop_rmse=ctx.stop_rmse,
                max_equits=ctx.max_equits, seed=ctx.seed, track_cost=False,
            )
            equits[v] = ctx.equits_of(res.history)
        extra["equits"] = equits
        extra["total_times"] = {v: equits[v] * t for v, t in zip(values, times)}
    return SweepResult("SVsPerBatch", list(values), times, extra=extra)
