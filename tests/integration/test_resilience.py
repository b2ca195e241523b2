"""Resilience layer: checkpoint/resume bit-identity, sentinel, fault injection.

The load-bearing property is *bit-identity*: a run checkpointed, killed and
resumed must produce exactly the same image, error sinogram and RunHistory
as an uninterrupted run — for every driver and kernel flavor.  These tests
enforce it with ``np.array_equal`` (no tolerances); ``same_history``
compares records NaN-aware because untracked costs are NaN and
``nan != nan`` would fail dataclass equality on identical records.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math

import numpy as np
import pytest

from repro import (
    CheckpointManager,
    FaultInjector,
    GPUICDParams,
    IntegritySentinel,
    MetricsRecorder,
    StateCorruptionError,
    build_system_matrix,
    gpu_icd_reconstruct,
    icd_reconstruct,
    psv_icd_reconstruct,
    scaled_geometry,
    shepp_logan,
    simulate_scan,
)
from repro.core.kernels import load_c_kernel, no_compiler
from repro.resilience import (
    Checkpoint,
    CheckpointError,
    CorruptCheckpointError,
    _history_from_json,
    capture_rng_state,
    restore_rng_state,
)


@pytest.fixture(scope="module")
def system16m():
    return build_system_matrix(scaled_geometry(16))


@pytest.fixture(scope="module")
def scan16m(system16m):
    return simulate_scan(shepp_logan(16), system16m, seed=3)


COMMON = dict(max_equits=3.0, seed=0, track_cost=False)


def same_history(h1, h2) -> bool:
    """RunHistory equality with NaN-aware record comparison."""
    if len(h1.records) != len(h2.records):
        return False
    for a, b in zip(h1.records, h2.records):
        for f in ("iteration", "equits", "cost", "rmse", "updates", "svs_updated", "delta_hu"):
            va, vb = getattr(a, f), getattr(b, f)
            both_nan = (
                isinstance(va, float) and isinstance(vb, float)
                and math.isnan(va) and math.isnan(vb)
            )
            if not both_nan and va != vb:
                return False
    return (
        h1.converged_equits == h2.converged_equits
        and h1.converged_iteration == h2.converged_iteration
        and h1.converged_threshold_hu == h2.converged_threshold_hu
        and h1.stop_reason == h2.stop_reason
    )


def assert_same_result(ref, res):
    np.testing.assert_array_equal(ref.image, res.image)
    np.testing.assert_array_equal(ref.error_sinogram, res.error_sinogram)
    assert same_history(ref.history, res.history)


def run_driver(driver, scan, system, **kwargs):
    if driver == "icd":
        return icd_reconstruct(scan, system, **COMMON, **kwargs)
    if driver == "psv_icd":
        return psv_icd_reconstruct(scan, system, sv_side=6, **COMMON, **kwargs)
    if driver == "gpu_icd":
        params = GPUICDParams(sv_side=8, batch_size=4)
        return gpu_icd_reconstruct(scan, system, params=params, **COMMON, **kwargs)
    raise AssertionError(driver)


# ----------------------------------------------------------------------
# Checkpoint container + manager
# ----------------------------------------------------------------------
class TestCheckpointContainer:
    def _ckpt(self, rng):
        from repro.core.convergence import IterationRecord, RunHistory

        history = RunHistory()
        history.append(
            IterationRecord(
                iteration=1, equits=1.0, cost=float("nan"), rmse=None,
                updates=10, svs_updated=2,
            )
        )
        x, e, amounts = rng.normal(size=16), rng.normal(size=32), rng.normal(size=4)
        return Checkpoint(
            driver="icd",
            iteration=1,
            total_updates=10,
            x=x,
            e=e,
            rng_state=capture_rng_state(rng),  # after all draws above
            history=history,
            update_amounts=amounts,
            counters={"a.b": 3.0},
            meta={"note": "test"},
        )

    def test_bytes_roundtrip(self, rng):
        ckpt = self._ckpt(rng)
        back = Checkpoint.from_bytes(ckpt.to_bytes())
        assert back.driver == "icd"
        assert back.iteration == 1 and back.total_updates == 10
        np.testing.assert_array_equal(back.x, ckpt.x)
        np.testing.assert_array_equal(back.e, ckpt.e)
        np.testing.assert_array_equal(back.update_amounts, ckpt.update_amounts)
        assert back.counters == {"a.b": 3.0}
        assert back.meta == {"note": "test"}
        assert same_history(back.history, ckpt.history)
        # the restored RNG continues the exact same stream
        r2 = np.random.default_rng(999)
        r2 = restore_rng_state(r2, back.rng_state)
        assert np.array_equal(rng.integers(0, 1000, 8), r2.integers(0, 1000, 8))

    def test_stop_reason_and_statistic_round_trip(self, rng):
        ckpt = self._ckpt(rng)
        ckpt.history.records[0] = dataclasses.replace(ckpt.history.records[0], delta_hu=2.5)
        ckpt.history.stop_reason = "target"
        back = Checkpoint.from_bytes(ckpt.to_bytes())
        assert back.history.records[0].delta_hu == 2.5
        assert back.history.stop_reason == "target"

    def test_history_without_stop_fields_loads_as_none(self):
        """Checkpoints written before ``delta_hu``/``stop_reason`` existed."""
        old = json.dumps({
            "records": [{"iteration": 1, "equits": 1.0, "cost": 0.0, "rmse": None,
                         "updates": 10, "svs_updated": 0}],
            "converged_equits": None, "converged_iteration": None,
            "converged_threshold_hu": None,
        })
        history = _history_from_json(old)
        assert history.records[0].delta_hu is None
        assert history.stop_reason is None

    def test_bad_magic_rejected(self, rng):
        raw = self._ckpt(rng).to_bytes()
        with pytest.raises(CorruptCheckpointError, match="bad magic"):
            Checkpoint.from_bytes(b"NOTMAGIC" + raw[8:])

    def test_bitflip_rejected(self, rng):
        raw = bytearray(self._ckpt(rng).to_bytes())
        raw[len(raw) // 2] ^= 0xFF
        with pytest.raises(CorruptCheckpointError, match="checksum mismatch"):
            Checkpoint.from_bytes(bytes(raw))

    def test_truncation_rejected(self, rng):
        raw = self._ckpt(rng).to_bytes()
        with pytest.raises(CorruptCheckpointError, match="checksum mismatch"):
            Checkpoint.from_bytes(raw[: len(raw) - 100])

    def test_save_load_rotation(self, rng, tmp_path):
        mgr = CheckpointManager(tmp_path / "ck", keep=2)
        for i in (1, 2, 3):
            c = self._ckpt(rng)
            c.iteration = i
            mgr.save(c)
        names = [p.name for p in mgr.paths()]
        assert names == ["ckpt-00000002.ckpt", "ckpt-00000003.ckpt"]
        assert mgr.load_latest().iteration == 3
        assert mgr.load(mgr.path_for(2)).iteration == 2

    def test_load_latest_skips_corrupt(self, rng, tmp_path):
        mgr = CheckpointManager(tmp_path / "ck", keep=5)
        for i in (1, 2):
            c = self._ckpt(rng)
            c.iteration = i
            mgr.save(c)
        FaultInjector(seed=0).corrupt_file(mgr.path_for(2), n_bytes=16)
        ckpt = mgr.load_latest()
        assert ckpt.iteration == 1
        assert mgr.corrupt_skipped == 1

    def test_load_latest_none_when_all_corrupt(self, rng, tmp_path):
        mgr = CheckpointManager(tmp_path / "ck", keep=5)
        c = self._ckpt(rng)
        mgr.save(c)
        FaultInjector.truncate_file(mgr.path_for(1), keep_bytes=16)
        assert mgr.load_latest() is None

    def test_empty_directory(self, tmp_path):
        mgr = CheckpointManager(tmp_path / "nothing-here")
        assert mgr.paths() == []
        assert mgr.load_latest() is None

    def test_keep_validated(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            CheckpointManager(tmp_path, keep=0)

    def test_atomic_save_no_temp_residue(self, rng, tmp_path):
        mgr = CheckpointManager(tmp_path / "ck")
        mgr.save(self._ckpt(rng))
        assert [p.name for p in (tmp_path / "ck").iterdir()] == ["ckpt-00000001.ckpt"]


# ----------------------------------------------------------------------
# Kill-and-resume bit-identity matrix
# ----------------------------------------------------------------------
class TestResumeBitIdentity:
    @pytest.mark.parametrize("driver", ["icd", "psv_icd", "gpu_icd"])
    @pytest.mark.parametrize(
        "kernel",
        [
            "python",
            pytest.param(
                "c",
                marks=pytest.mark.skipif(
                    load_c_kernel() is not None, reason="the c kernel does not build on this host"
                ),
            ),
        ],
    )
    def test_driver_kernel_matrix(self, driver, kernel, scan16m, system16m, tmp_path):
        """Resume from a mid-run checkpoint == uninterrupted run, bit for bit,
        and both equal the run without a compiler (``python`` runs inside it)."""
        with no_compiler():
            ref = run_driver(driver, scan16m, system16m)
        with no_compiler() if kernel == "python" else contextlib.nullcontext():
            mgr = CheckpointManager(tmp_path / driver, keep=50)
            full = run_driver(driver, scan16m, system16m, checkpoint=mgr)
            assert_same_result(ref, full)  # checkpointing itself never perturbs
            assert len(mgr.paths()) >= 2
            # resume from EVERY retained checkpoint, not just the latest
            for path in mgr.paths()[:-1]:
                res = run_driver(driver, scan16m, system16m, resume_from=path)
                assert_same_result(ref, res)

    def test_resume_latest_from_manager(self, scan16m, system16m, tmp_path):
        mgr = CheckpointManager(tmp_path / "icd", keep=1)
        ref = run_driver("icd", scan16m, system16m, checkpoint=mgr)
        res = run_driver(
            "icd", scan16m, system16m, checkpoint=mgr, resume_from="latest"
        )
        assert_same_result(ref, res)

    def test_resume_latest_empty_is_fresh_start(self, scan16m, system16m, tmp_path):
        mgr = CheckpointManager(tmp_path / "empty")
        ref = run_driver("icd", scan16m, system16m)
        res = run_driver(
            "icd", scan16m, system16m, checkpoint=mgr, resume_from="latest"
        )
        assert_same_result(ref, res)

    def test_resume_from_directory_path(self, scan16m, system16m, tmp_path):
        ref = run_driver("icd", scan16m, system16m)
        mgr = CheckpointManager(tmp_path / "icd", keep=1)
        run_driver("icd", scan16m, system16m, checkpoint=mgr)
        res = run_driver("icd", scan16m, system16m, resume_from=tmp_path / "icd")
        assert_same_result(ref, res)

    def test_checkpoint_every_cadence(self, scan16m, system16m, tmp_path):
        mgr = CheckpointManager(tmp_path / "c2", keep=50)
        run_driver("icd", scan16m, system16m, checkpoint=mgr, checkpoint_every=2)
        iters = [int(p.stem.split("-")[1]) for p in mgr.paths()]
        assert iters and all(i % 2 == 0 for i in iters)

    def test_wrong_driver_rejected(self, scan16m, system16m, tmp_path):
        mgr = CheckpointManager(tmp_path / "icd", keep=1)
        run_driver("icd", scan16m, system16m, checkpoint=mgr)
        with pytest.raises(CheckpointError, match="written by driver 'icd'"):
            run_driver("psv_icd", scan16m, system16m, resume_from=mgr.paths()[-1])

    def test_wrong_geometry_rejected(self, scan16m, system16m, system32, scan32, tmp_path):
        mgr = CheckpointManager(tmp_path / "icd", keep=1)
        run_driver("icd", scan16m, system16m, checkpoint=mgr)
        with pytest.raises(CheckpointError, match="geometry mismatch"):
            icd_reconstruct(scan32, system32, resume_from=mgr.paths()[-1], **COMMON)

    def test_resume_missing_dir_rejected(self, scan16m, system16m, tmp_path):
        with pytest.raises(CheckpointError, match="no valid checkpoint"):
            run_driver("icd", scan16m, system16m, resume_from=tmp_path)

    def test_resumed_counters_are_whole_run_totals(self, scan16m, system16m, tmp_path):
        rec_full = MetricsRecorder()
        mgr = CheckpointManager(tmp_path / "icd", keep=50)
        run_driver("icd", scan16m, system16m, checkpoint=mgr, metrics=rec_full)
        sweeps_key = next(k for k in rec_full.counters if k.endswith(".sweeps"))
        rec_res = MetricsRecorder()
        run_driver(
            "icd", scan16m, system16m, resume_from=mgr.paths()[0], metrics=rec_res
        )
        assert rec_res.counters[sweeps_key] == rec_full.counters[sweeps_key]
        assert rec_res.counters["checkpoint.resumes"] == 1


# ----------------------------------------------------------------------
# Sentinel: guards, drift, rollback
# ----------------------------------------------------------------------
class TestIntegritySentinel:
    @pytest.mark.parametrize("driver", ["icd", "psv_icd", "gpu_icd"])
    def test_sentinel_alone_does_not_perturb(self, driver, scan16m, system16m):
        ref = run_driver(driver, scan16m, system16m)
        res = run_driver(driver, scan16m, system16m, sentinel=IntegritySentinel())
        assert_same_result(ref, res)

    @pytest.mark.parametrize("driver", ["icd", "psv_icd", "gpu_icd"])
    def test_poison_without_checkpoint_raises(self, driver, scan16m, system16m):
        inj = FaultInjector(seed=1).poison_voxel(at_iteration=2, index=5)
        with pytest.raises(StateCorruptionError, match="image x is non-finite"):
            run_driver(
                driver, scan16m, system16m,
                sentinel=IntegritySentinel(fault_injector=inj),
            )

    def test_poison_sinogram_detected(self, scan16m, system16m):
        inj = FaultInjector(seed=1).poison_sinogram(
            at_iteration=1, value=float("inf")
        )
        with pytest.raises(StateCorruptionError, match="error sinogram e"):
            run_driver(
                "icd", scan16m, system16m,
                sentinel=IntegritySentinel(fault_injector=inj),
            )

    @pytest.mark.parametrize("driver", ["icd", "psv_icd", "gpu_icd"])
    def test_rollback_recovers_bit_identically(self, driver, scan16m, system16m, tmp_path):
        """Poison mid-run -> rollback to checkpoint -> same final state."""
        ref = run_driver(driver, scan16m, system16m)
        inj = FaultInjector(seed=1).poison_voxel(at_iteration=2, index=5)
        rec = MetricsRecorder()
        res = run_driver(
            driver, scan16m, system16m,
            checkpoint=CheckpointManager(tmp_path / driver, keep=5),
            sentinel=IntegritySentinel(fault_injector=inj),
            metrics=rec,
        )
        assert_same_result(ref, res)
        assert inj.log  # the fault really fired
        assert rec.counters["resilience.rollbacks"] == 1

    def test_repeated_corruption_eventually_raises(self, scan16m, system16m, tmp_path):
        """A fault that reappears after every rollback exhausts max_rollbacks."""

        class AlwaysPoison(FaultInjector):
            def on_iteration(self, iteration, x, e):
                if iteration == 2:
                    x[5] = float("nan")
                    return True
                return False

        with pytest.raises(StateCorruptionError):
            run_driver(
                "icd", scan16m, system16m,
                checkpoint=CheckpointManager(tmp_path / "p", keep=5),
                sentinel=IntegritySentinel(fault_injector=AlwaysPoison()),
            )

    def test_drift_refresh_fires(self, scan16m, system16m):
        """A poisoned-but-finite e entry is caught and repaired by drift check."""
        inj = FaultInjector(seed=1).poison_sinogram(at_iteration=1, index=7, value=0.5)
        sen = IntegritySentinel(fault_injector=inj, drift_every=1, drift_tol=1e-9)
        rec = MetricsRecorder()
        res = run_driver("icd", scan16m, system16m, sentinel=sen, metrics=rec)
        assert sen.refreshes >= 1
        assert sen.max_drift > 1e-9
        assert rec.counters["sentinel.refreshes"] == sen.refreshes
        assert rec.counters["sentinel.drift_checks"] >= 1
        # after the final refresh-capable run, e is consistent with x
        np.testing.assert_allclose(
            res.error_sinogram.ravel(),
            scan16m.sinogram.ravel() - system16m.forward(res.image).ravel(),
            atol=1e-8,
        )

    def test_clean_run_has_tiny_drift(self, scan16m, system16m):
        """The incremental e tracks y - Ax to float noise on a healthy run."""
        sen = IntegritySentinel(drift_every=1, drift_tol=1.0)
        run_driver("icd", scan16m, system16m, sentinel=sen)
        assert sen.refreshes == 0
        assert sen.max_drift < 1e-9

    def test_sentinel_validates_args(self):
        with pytest.raises(ValueError):
            IntegritySentinel(check_every=0)
        with pytest.raises(ValueError):
            IntegritySentinel(drift_every=-1)
        with pytest.raises(ValueError):
            IntegritySentinel(drift_tol=0.0)


# ----------------------------------------------------------------------
# Disabled-by-default is provably inert
# ----------------------------------------------------------------------
class TestDisabledByDefault:
    @pytest.mark.parametrize("driver", ["icd", "psv_icd", "gpu_icd"])
    def test_checkpointing_does_not_perturb(self, driver, scan16m, system16m, tmp_path):
        ref = run_driver(driver, scan16m, system16m)
        res = run_driver(
            driver, scan16m, system16m,
            checkpoint=CheckpointManager(tmp_path / driver),
        )
        assert_same_result(ref, res)

    def test_no_hooks_object_when_disabled(self):
        from repro.core.icd import resilience_hooks

        assert resilience_hooks("icd", None, 1, None, None, None) is None
