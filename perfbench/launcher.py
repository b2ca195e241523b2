"""Start ``repro serve-http`` with the program's layers wrapped in spans.

Usage: ``python3 perfbench/launcher.py <trace-dir> serve-http <args>``

Each name is patched where its caller looks it up: the scheduler binds
``run_job`` and ``process_worker_main`` at import, the worker imports
``run_job`` from the runner at call time, the gateway binds
``save_reconstruction`` and the scan loaders at import, the runner builds
system matrices through its own ``build_system_matrix`` name and
dispatches through its driver table.  Forked workers inherit the wrappers;
each process appends its spans to ``<trace-dir>/spans-<pid>.jsonl`` when
it is done, and every span names the job it served.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import common
from tracing import Tracer


def _arg_size(args, kwargs, result) -> int:
    return os.path.getsize(args[0] if args else kwargs["path"])


def _result_size(args, kwargs, result) -> int:
    return os.path.getsize(result)


def _metadata_job(args, kwargs):
    meta = kwargs.get("metadata") or {}
    return meta.get("job_id") or meta.get("group_id")


def install(tracer: Tracer, trace_dir: Path) -> None:
    import repro.service.cache as cache
    import repro.service.http as gateway
    import repro.service.runner as runner
    import repro.service.scheduler as scheduler
    import repro.service.worker as worker
    from repro.resilience import CheckpointManager

    tracer.patch(runner, "build_system_matrix", "ct.system_matrix_build")
    for name in list(runner._DRIVER_FNS):
        runner._DRIVER_FNS[name] = tracer.wrap(f"core.{name}", runner._DRIVER_FNS[name])
    run_job = tracer.wrap("service.run_job", runner.run_job)
    runner.run_job = run_job
    scheduler.run_job = run_job
    tracer.patch(gateway, "_load_scan", "io.scan_load", size=_arg_size)
    tracer.patch(gateway, "_load_volume_scan", "io.scan_load", size=_arg_size)
    for module in (gateway, worker, cache):
        tracer.patch(module, "save_reconstruction", "io.result_save", size=_arg_size,
                     job_of=_metadata_job)
    tracer.patch(worker, "load_reconstruction", "io.result_load")
    tracer.patch(CheckpointManager, "save", "resilience.checkpoint_save", size=_result_size)
    tracer.patch(cache.ResultCache, "get", "service.cache_get")
    tracer.patch(cache.ResultCache, "put", "service.cache_put")

    execute = scheduler.Scheduler._execute

    def traced_execute(self, job):
        tracer.job = job.job_id
        try:
            return execute(self, job)
        finally:
            tracer.job = None

    scheduler.Scheduler._execute = traced_execute

    worker_main = scheduler.process_worker_main

    def traced_worker_main(conn, cancel_event, spec, checkpoint_dir, *args, **kwargs):
        # The job's checkpoint directory is <root>/<job id>/checkpoints.
        tracer.job = Path(checkpoint_dir).parent.name
        try:
            return worker_main(conn, cancel_event, spec, checkpoint_dir, *args, **kwargs)
        finally:
            tracer.dump(trace_dir)

    scheduler.process_worker_main = traced_worker_main


def main(argv: list[str]) -> int:
    trace_dir = Path(argv[0])
    common.import_repro()
    tracer = Tracer()
    install(tracer, trace_dir)
    from repro.harness.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        tracer.dump(trace_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
