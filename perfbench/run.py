"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Prints a human summary (environment,
every end-to-end metric with its unit and sample counts, every check's
verdict; with ``--trace 1`` the per-layer table, the median operation's
breakdown with its unattributed remainder, and the tracing overhead) and,
as its last line, one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` — the ``end_to_end`` metrics of ``BENCHMARK.json``
untraced, its ``per_layer`` metrics traced.  ``correct`` is true only when
every check passed.  Exits 2 without a result when the checkout holds no
program to measure, and 1 without a result when a metric is not finite
(more than half of the operations failed, so the median is infinite).
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import signal
import sys

import common

WORKLOADS = {
    "slice-solve": "slice_solve",
    "service-stream": "stream",
    "volume-group": "groups",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def spec() -> dict:
    with open(common.ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def history_path(workload: str):
    return common.STATE / "results" / f"{workload}.jsonl"


def untraced_medians(workload: str, names, code_sha: str) -> dict:
    """Medians of earlier untraced runs of ``workload`` in this checkout
    that measured the same code (``env.code_sha``)."""
    try:
        with open(history_path(workload)) as f:
            runs = [json.loads(line) for line in f if line.strip()]
    except FileNotFoundError:
        return {}
    runs = [r for r in runs if not r["trace"] and r["env"].get("code_sha") == code_sha]
    return {
        n: common.median(r["metrics"][n] for r in runs)
        for n in names if runs and all(n in r["metrics"] for r in runs)
    }


def summarise(args, env: dict, result: dict, bench: dict) -> None:
    print(f"== {args.workload}  seed {args.seed}  {args.seconds:g} s  trace {args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print("samples: " + ", ".join(f"{k}={v}" for k, v in result["counts"].items())
          + f", timed {result['timed_s']:.1f} s")
    print(f"references: {result['refs_built']} built in {result['refs_s']:.1f} s (not in setup_s)")
    print(f"host speed: probe {1e3 * result['host'].probe_s:.2f} ms "
          f"over {len(result['host'].samples)} samples (recorded, not used to scale)")
    print("end-to-end:")
    for m in bench["end_to_end"]:
        print(f"  {m['name']:<24} {result['metrics'][m['name']]:>12.4f} {m['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'failure_ratio':<24} {ratio:>12.4f} ({result['failed']}/{result['attempted']})")
    for line in result.get("notes", []):
        print(line)
    print("checks:")
    for name, ok in result["checks"].items():
        print(f"  [{'pass' if ok else 'FAIL'}] {name}")
    for line in result["failures"][:20]:
        print(f"    {line}")
    if not args.trace:
        return
    print("per-layer (traced run):")
    for m in bench["per_layer"]:
        value = result["layer"].get(m["name"])
        if value:
            print(f"  {m['name']:<36} {value:>12.4f} {m['unit']}")
    parts = result["layer"].get("trace.median_op")
    if parts:
        print("median operation:")
        for name, seconds in parts.items():
            print(f"  {name:<28} {seconds:>9.4f} s")
    share = result["layer"].get("trace.unattributed_share")
    if share is not None:
        label = "unattributed" if share >= 0 else "overlap (parts exceed latency)"
        print(f"  {label:<28} {100 * abs(share):>8.2f} %")
    base = untraced_medians(args.workload, [m["name"] for m in bench["end_to_end"]],
                            env["code_sha"])
    if base:
        print("tracing overhead (this traced run minus the median untraced run "
              "of the same code here):")
        for name, median in base.items():
            delta = result["metrics"][name] - median
            print(f"  {name:<24} {delta:>+12.4f} ({100 * delta / median:+.1f} %)")
    else:
        print("tracing overhead: no untraced run of this code and workload in this checkout yet")


def record(args, env: dict, result: dict) -> None:
    path = history_path(args.workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    layer = {k: v for k, v in result["layer"].items() if isinstance(v, (int, float))}
    with open(path, "a") as f:
        f.write(json.dumps({
            "seed": args.seed, "trace": args.trace, "env": env,
            "metrics": result["metrics"], "layer": layer,
            "attempted": result["attempted"], "failed": result["failed"],
        }) + "\n")


def result_line(result: dict, values: dict, names_units: list[tuple[str, str]]) -> dict:
    """The final JSON object: exactly ``names_units`` as metrics, and
    ``correct`` only when every check passed.  Raises ``ValueError`` when a
    value is not finite: no number may stand in for an infinite median."""
    metrics = {}
    for name, unit in names_units:
        value = float(values.get(name, 0.0))
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": all(result["checks"].values()),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # Unwind on SIGTERM too, so the servers a run started are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    common.adopt_orphans()
    try:
        return measure(args)
    finally:
        common.reap_children()  # no process this run started outlives it


def measure(args) -> int:
    try:
        common.import_repro()
        bench = spec()
    except (common.MissingProgram, FileNotFoundError) as exc:
        print(f"error: nothing to measure here: {exc}", file=sys.stderr)
        return 2
    module = importlib.import_module(WORKLOADS[args.workload])
    result = module.run(args.seed, args.seconds, bool(args.trace))
    if args.trace:
        result["layer"]["trace.latency_p50_s"] = result["metrics"]["latency_p50_s"]
    result["layer"]["host.probe_s"] = result["host"].probe_s
    env = common.environment(args.seed)
    summarise(args, env, result, bench)
    record(args, env, result)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = result["layer"] if args.trace else result["metrics"]
    try:
        line = result_line(result, values, [(m["name"], m["unit"]) for m in wanted])
    except ValueError as exc:
        print(f"error: no result: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
