"""The benchmark's tracer still finds and triggers every name it patches.

``perfbench/slice_solve.install_tracer`` and ``perfbench/launcher.install``
replace module globals and class attributes where the program looks them
up.  A renamed global makes a traced benchmark run raise; a global the
program no longer calls silently loses its span.  The installers patch
for good, so the check runs in a fresh interpreter.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_PROBE = """
import json, sys
from pathlib import Path

sys.path[:0] = [{perfbench!r}, {src!r}]
import launcher
import slice_solve
from tracing import Tracer

from repro import scaled_geometry
from repro.ct import build_system_matrix, shepp_logan, simulate_scan
from repro.service import JobSpec

tracer = Tracer()
slice_solve.install_tracer(tracer)
work = Path({work!r})
launcher.install(tracer, work)
import repro.service.runner as runner

system = build_system_matrix(scaled_geometry(64))
scan = simulate_scan(shepp_logan(64), system, dose=1e5, seed=7)
seen = {{}}
for name, fn in slice_solve.driver_fns().items():
    tracer.spans.clear()
    extra = {{"levels": [32, 64]}} if name == "multires" else {{}}
    fn(scan, system, max_equits=0.5, track_cost=False, **extra)
    seen[name] = sorted({{s["name"] for s in tracer.spans}})
tracer.spans.clear()
spec = JobSpec(driver="icd", scan=scan, params={{"max_equits": 0.5, "track_cost": False}})
runner.run_job(spec, checkpoint_dir=work / "job" / "checkpoints")
seen["run_job"] = sorted({{s["name"] for s in tracer.spans}})
print(json.dumps(seen))
"""


def test_tracer_patches_are_found_and_triggered(tmp_path):
    probe = _PROBE.format(
        perfbench=str(REPO / "perfbench"), src=str(REPO / "src"), work=str(tmp_path)
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    seen = {name: set(spans) for name, spans in json.loads(done.stdout.splitlines()[-1]).items()}

    prep = {"ct.fbp", "core.updater_build", "core.initial_error"}
    expected = {
        "icd": prep,
        "psv_icd": prep | {"core.sv_grid_build"},
        "gpu_icd": prep | {"core.sv_grid_build"},
        "multires": prep | {"multires.resample"},
        "run_job": {
            "service.run_job",
            "core.icd",
            "ct.system_matrix_build",
            "resilience.checkpoint_save",
        },
    }
    for name, names in expected.items():
        assert names <= seen[name], (name, sorted(names - seen[name]))
