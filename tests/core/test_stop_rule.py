"""The reference-free stopping rule and the stop tests in the loop condition.

* :class:`StopRule` / :meth:`RunHistory.mean_update_hu` read only the
  history: the window is the trailing iterations holding one equit of
  updates against the full raster, and the reasons have a fixed order.
* Calibration pins: on 32² and 64² harness cases every driver stops on
  ``stop_delta_hu=DEFAULT_STOP_DELTA_HU`` within 5 HU of the 40-equit
  golden image and before its budget; a cold start reports ``"budget"``.
* A run resumed from the checkpoint of its stopping iteration stops there
  again — same iteration, bit-identical image and history — instead of
  running one more iteration.
* The recorded statistic is identical across kernels.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.convergence import IterationRecord, RunHistory, StopRule
from repro.core.gpu_icd import gpu_icd_reconstruct
from repro.core.icd import golden_reconstruction, icd_reconstruct
from repro.core.kernels import no_compiler
from repro.core.psv_icd import psv_icd_reconstruct
from repro.ct.geometry import scaled_geometry
from repro.ct.system_matrix import build_system_matrix
from repro.harness.testcases import generate_suite, scan_for_case
from repro.multires.pyramid import multires_reconstruct
from repro.resilience import CheckpointManager
from repro.service.runner import DEFAULT_STOP_DELTA_HU

DRIVERS = {
    "icd": icd_reconstruct,
    "psv_icd": psv_icd_reconstruct,
    "gpu_icd": gpu_icd_reconstruct,
}


def record(iteration, updates, delta_hu, rmse=None):
    return IterationRecord(
        iteration=iteration, equits=0.0, cost=0.0, rmse=rmse,
        updates=updates, svs_updated=0, delta_hu=delta_hu,
    )


# ----------------------------------------------------------------------
# The rule itself
# ----------------------------------------------------------------------
class TestStopRule:
    def test_window_holds_one_equit_of_updates(self):
        h = RunHistory()
        h.append(record(1, 100, 500.0))
        assert h.mean_update_hu(100) == 5.0
        h.append(record(2, 60, 6.0))
        # 60 updates < one equit: the window reaches back into iteration 1.
        assert h.mean_update_hu(100) == pytest.approx(506.0 / 160)
        h.append(record(3, 40, 4.0))
        assert h.mean_update_hu(100) == pytest.approx(10.0 / 100)

    def test_no_decision_under_one_equit_or_without_statistic(self):
        h = RunHistory(records=[record(1, 99, 0.0)])
        assert h.mean_update_hu(100) is None
        h = RunHistory(records=[record(1, 100, None), record(2, 50, 0.0)])
        assert h.mean_update_hu(100) is None
        rule = StopRule(n_voxels=100, max_updates=1e9, stop_delta_hu=1.0)
        assert rule.reason(h, 150) is None

    def test_reasons_and_their_order(self):
        rule = StopRule(
            n_voxels=100, max_updates=300, max_iterations=5,
            stop_rmse=10.0, stop_delta_hu=1.0,
        )
        assert rule.reason(RunHistory(), 0) is None
        h = RunHistory(records=[record(1, 100, 500.0, rmse=20.0)])
        assert rule.reason(h, 100) is None
        h.append(record(2, 100, 500.0, rmse=9.0))
        assert rule.reason(h, 300) == "target"  # beats an exhausted budget
        h.records[-1] = record(2, 100, 500.0, rmse=11.0)
        assert rule.reason(h, 300) == "budget"
        h.records[-1] = record(2, 100, 500.0, rmse=None)
        assert rule.reason(h, 200) is None
        h.append(record(3, 100, 99.0))
        assert rule.reason(h, 250) == "converged"  # 0.99 HU per update
        h.append(record(4, 0, 0.0))
        # Zero updates on a short window: the rule sees iteration 3 too.
        assert rule.reason(h, 250) == "converged"
        h = RunHistory(records=[record(1, 100, 500.0), record(2, 0, 0.0)])
        assert StopRule(n_voxels=100, max_updates=1e9).reason(h, 100) == "stalled"
        h = RunHistory(records=[record(k, 1, 0.0) for k in range(1, 6)])
        assert StopRule(n_voxels=100, max_updates=1e9, max_iterations=5).reason(h, 5) == "budget"

    def test_rule_off_records_nothing_and_stops_on_budget(self, scan32, system32):
        h = icd_reconstruct(scan32, system32, max_equits=2, track_cost=False).history
        assert [r.delta_hu for r in h.records] == [None] * len(h.records)
        assert h.stop_reason == "budget"


# ----------------------------------------------------------------------
# Calibration pins
# ----------------------------------------------------------------------
BUDGET = 20.0


@pytest.fixture(scope="module")
def case64():
    system = build_system_matrix(scaled_geometry(64))
    (case,) = generate_suite(1, 64, seed=0)
    scan = scan_for_case(case, system)
    return scan, system, golden_reconstruction(scan, system)


@pytest.fixture(scope="module")
def case32(scan32, system32):
    return scan32, system32, golden_reconstruction(scan32, system32)


@pytest.mark.parametrize("driver", ["icd", "psv_icd", "gpu_icd", "multires"])
@pytest.mark.parametrize("case", ["case32", "case64"])
def test_default_stops_converged_near_golden(driver, case, request):
    scan, system, golden = request.getfixturevalue(case)
    fn = multires_reconstruct if driver == "multires" else DRIVERS[driver]
    h = fn(
        scan, system, max_equits=BUDGET, golden=golden, track_cost=False,
        stop_delta_hu=DEFAULT_STOP_DELTA_HU,
    ).history
    assert h.stop_reason == "converged"
    assert h.equits < BUDGET
    assert h.records[-1].rmse <= 5.0


@pytest.mark.parametrize("driver", ["icd", "gpu_icd"])
def test_cold_start_reports_budget(driver, case32):
    scan, system, _ = case32
    h = DRIVERS[driver](
        scan, system, init="zero", max_equits=4.0, track_cost=False,
        stop_delta_hu=DEFAULT_STOP_DELTA_HU,
    ).history
    assert h.stop_reason == "budget"
    assert h.equits >= 4.0


# ----------------------------------------------------------------------
# Resume from the checkpoint of the stopping iteration
# ----------------------------------------------------------------------
@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("stop", ["target", "converged"])
def test_resume_from_final_checkpoint_stops_at_once(driver, stop, case32, tmp_path):
    scan, system, golden = case32
    kwargs = (
        {"golden": golden, "stop_rmse": 10.0}
        if stop == "target"
        else {"stop_delta_hu": DEFAULT_STOP_DELTA_HU}
    )
    fn = DRIVERS[driver]
    first = fn(scan, system, max_equits=BUDGET, checkpoint=tmp_path, **kwargs)
    last = first.history.records[-1].iteration
    assert first.history.stop_reason == stop
    assert first.history.equits < BUDGET

    final = CheckpointManager(tmp_path).path_for(last)
    resumed = fn(scan, system, max_equits=BUDGET, resume_from=final, **kwargs)
    assert resumed.history.records == first.history.records
    assert resumed.history.stop_reason == stop
    assert np.array_equal(resumed.image, first.image)
    assert np.array_equal(resumed.error_sinogram, first.error_sinogram)


# ----------------------------------------------------------------------
# The statistic is kernel-neutral
# ----------------------------------------------------------------------
def _deltas(history):
    return [r.delta_hu for r in history.records]


def test_statistic_matches_across_kernels(scan32, system32):
    kwargs = dict(max_equits=3, track_cost=False, stop_delta_hu=DEFAULT_STOP_DELTA_HU)
    with no_compiler():
        oracle = icd_reconstruct(scan32, system32, **kwargs).history
    history = icd_reconstruct(scan32, system32, **kwargs).history
    assert None not in _deltas(oracle)
    assert _deltas(history) == _deltas(oracle)
