"""Multi-slice volume reconstruction with auto-tuned GPU-ICD.

The paper's 3200-slice suite is really volumes reconstructed slice by
slice.  This example builds a small ellipsoid volume, estimates the
zero-skip fraction from an FBP preview, lets the model-driven auto-tuner
pick input-specific GPU parameters (the paper's proposed future work,
implemented in :mod:`repro.tuning`), reconstructs the whole stack, and
reports per-slice convergence plus the modeled full-size wall time.

Two optional stages exercise the hierarchical/sharded subsystem
(:mod:`repro.multires`):

* ``--levels SPEC`` reconstructs each slice coarse-to-fine through the
  multi-resolution pyramid instead of at full resolution from a cold
  start (e.g. ``--levels 24,48``);
* ``--shards N`` re-runs the stack as a *job group* on an in-process
  reconstruction service with ``N`` workers — one child job per slice,
  stitched back bit-identically.

Invalid pyramid or shard specs are usage errors (exit code 2).

Run:  python examples/medical_multislice.py [--slices 4] [--pixels 48]
                                            [--levels 24,48] [--shards 2]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro import (
    GPUICDParams,
    GPUTimingModel,
    build_system_matrix,
    paper_geometry,
    rmse_hu,
    scaled_geometry,
)
from repro.core.volume import ellipsoid_volume, reconstruct_volume, simulate_volume_scan
from repro.tuning import AutoTuner, estimate_zero_skip_fraction


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description="multi-slice reconstruction with auto-tuned GPU-ICD"
    )
    parser.add_argument("--slices", type=int, default=4, metavar="N",
                        help="slices in the test volume (default 4)")
    parser.add_argument("--pixels", type=int, default=48, metavar="N",
                        help="slice side in pixels (default 48)")
    parser.add_argument("--levels", metavar="SPEC", default=None,
                        help="reconstruct each slice coarse-to-fine through "
                        "this pyramid (comma list of ascending sizes ending "
                        "at --pixels, e.g. '24,48')")
    parser.add_argument("--shards", type=int, default=None, metavar="N",
                        help="also run the stack as a sharded job group on "
                        "an in-process reconstruction service with N "
                        "workers (one child job per slice)")
    args = parser.parse_args(argv)
    if args.slices < 1:
        parser.error(f"--slices must be >= 1, got {args.slices}")
    if args.pixels < 4:
        parser.error(f"--pixels must be >= 4, got {args.pixels}")
    if args.shards is not None and args.shards < 1:
        parser.error(f"--shards must be >= 1, got {args.shards}")

    n_slices, n_pixels = args.slices, args.pixels
    geom = scaled_geometry(n_pixels)

    levels = None
    if args.levels is not None:
        from repro.multires import parse_levels

        try:
            levels = parse_levels(args.levels, geom)
        except ValueError as exc:
            parser.error(f"invalid --levels spec {args.levels!r}: {exc}")

    system = build_system_matrix(geom)
    vol = ellipsoid_volume(n_slices, n_pixels, seed=3)
    scans = simulate_volume_scan(vol, system, dose=8e4, seed=5)
    print(f"== volume: {n_slices} slices of {n_pixels}^2 ==")

    zsf = float(np.mean([estimate_zero_skip_fraction(s) for s in scans]))
    print(f"   estimated zero-skip fraction (FBP preview): {zsf:.0%}")

    model = GPUTimingModel(paper_geometry())
    tuner = AutoTuner(model, zero_skip_fraction=zsf)
    tuned = tuner.coordinate_descent()
    p = tuned.best_params
    print(f"   auto-tuned full-size parameters: side={p.sv_side} tb/SV="
          f"{p.threadblocks_per_sv} threads={p.threads_per_block} "
          f"batch={p.batch_size} chunk={p.chunk_width} "
          f"-> {tuned.best_time * 1e3:.1f} ms/equit "
          f"({tuner.evaluations} model evals)")

    if levels is not None:
        # Hierarchical path: each slice runs the coarse-to-fine pyramid —
        # the full-resolution stage starts from a prolonged coarse solve
        # instead of an FBP seed.
        from repro.multires import multires_reconstruct

        print(f"   pyramid: {' -> '.join(str(s) for s in levels)}")
        results = [
            multires_reconstruct(
                scan, system, levels=list(levels), max_equits=8, seed=0,
                track_cost=False,
            )
            for scan in scans
        ]
        volume = np.stack([r.image for r in results])
        print("\n   slice  fine-equits  effective-equits  RMSE-vs-truth(HU)")
        for k, r in enumerate(results):
            print(f"   {k:5d}  {r.levels[-1].equits:11.2f}  "
                  f"{r.total_effective_equits:16.2f}  "
                  f"{rmse_hu(volume[k], vol[k]):17.1f}")
        total_equits = sum(r.total_effective_equits for r in results)
    else:
        # Reconstruct with scaled equivalents of the tuned parameters.
        scaled = GPUICDParams(
            sv_side=max(4, round(p.sv_side * n_pixels / 512)),
            threadblocks_per_sv=4,
            batch_size=8,
            chunk_width=p.chunk_width,
        )
        res = reconstruct_volume(
            scans, system, method="gpu", params=scaled, max_equits=8, seed=0,
            track_cost=False,
        )
        volume = res.volume
        print("\n   slice  equits  RMSE-vs-truth(HU)")
        for k, r in enumerate(res.slice_results):
            print(f"   {k:5d}  {r.history.equits:6.2f}  "
                  f"{rmse_hu(res.volume[k], vol[k]):10.1f}")
        total_equits = res.total_equits

    total_time = model.reconstruction_time(
        total_equits, p, zero_skip_fraction=zsf
    )
    print(f"\n   total modeled wall time for the volume at full size: "
          f"{total_time:.3f} s ({total_equits:.1f} equits across slices)")

    if args.shards is not None:
        # Sharded path: the same stack as a job group — one ordinary
        # service job per slice, stitched back by the group's own job.
        from repro.multires import submit_volume
        from repro.service.service import ReconstructionService

        print(f"\n== sharded job group ({args.shards} workers) ==")
        service = ReconstructionService(n_workers=args.shards)
        try:
            gid = submit_volume(
                service, scans, driver="icd",
                params={"max_equits": 4, "seed": 0, "track_cost": False},
            )
            group = service.result(gid, timeout=600)
            status = service.status(gid)
            print(f"   group {gid}: {status['state']}, "
                  f"{status['group']['children_done']} children done")
            print(f"   stitched stack shape: {group.image.shape}, "
                  f"mean RMSE vs truth: "
                  f"{np.mean([rmse_hu(group.image[k], vol[k]) for k in range(n_slices)]):.1f} HU")
        finally:
            service.close()


if __name__ == "__main__":
    main()
