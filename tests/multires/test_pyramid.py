"""Pyramid solver: spec parsing, convergence, checkpoint/resume, kill drill."""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.icd import icd_reconstruct
from repro.ct import build_system_matrix, scaled_geometry, shepp_logan, simulate_scan
from repro.multires.pyramid import (
    _level_scope,
    multires_reconstruct,
    parse_levels,
)
from repro.resilience import Checkpoint, CheckpointManager


class TestParseLevels:
    def test_auto_uses_valid_factors(self, mr_geom):
        # 32px/48v/64c: factor 2 divides everything and 16 >= 16; factor 4
        # would give an 8px level, below the auto floor.
        assert parse_levels(None, mr_geom) == (16, 32)

    def test_auto_skips_indivisible_factors(self):
        # scaled_geometry(32) has 45 views: no power-of-two factor divides.
        geom = scaled_geometry(32)
        assert parse_levels(None, geom) == (32,)

    def test_count_and_string_and_iterable_specs(self, mr_geom):
        assert parse_levels(2, mr_geom) == (16, 32)
        assert parse_levels("16,32", mr_geom) == (16, 32)
        assert parse_levels([16, 32], mr_geom) == (16, 32)
        assert parse_levels("32", mr_geom) == (32,)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("32,16", "ascending"),
            ("16", "finest pyramid level"),
            ("7,32", "does not divide"),
            ("", "no sizes"),
            ("a,b", "comma-separated"),
            (0, "count must be"),
            (object(), "expected sizes"),
        ],
    )
    def test_invalid_specs_rejected(self, mr_geom, spec, message):
        with pytest.raises(ValueError, match=message):
            parse_levels(spec, mr_geom)

    def test_factor_must_divide_views_and_channels(self):
        geom = scaled_geometry(32)  # 45 views
        with pytest.raises(ValueError, match="n_views"):
            parse_levels("16,32", geom)


class TestMultiresReconstruct:
    def test_converges_and_reports_levels(self, mr_scan, mr_system, mr_golden):
        from repro import rmse_hu

        result = multires_reconstruct(
            mr_scan, mr_system, levels=[16, 32], coarse_equits=2.0,
            max_equits=6.0, seed=0, track_cost=False,
        )
        assert rmse_hu(result.image, mr_golden) < 10.0
        assert [run.size for run in result.levels] == [16, 32]
        assert result.levels[0].factor == 2 and not result.levels[0].seeded
        assert result.levels[1].factor == 1 and result.levels[1].seeded
        # Effective equits: coarse work scaled by (16/32)^2.
        assert result.levels[0].effective_equits == pytest.approx(
            result.levels[0].equits * 0.25
        )
        assert result.total_effective_equits == pytest.approx(
            sum(run.effective_equits for run in result.levels)
        )

    def test_combined_history_rebased_by_coarse_work(self, mr_scan, mr_system):
        result = multires_reconstruct(
            mr_scan, mr_system, levels=[16, 32], coarse_equits=2.0,
            max_equits=3.0, seed=0, track_cost=False,
        )
        offset = result.levels[0].effective_equits
        assert result.history.records[0].equits > offset
        diffs = np.diff([r.equits for r in result.history.records])
        assert np.all(diffs > 0)

    def test_single_level_matches_plain_icd(self, mr_scan, mr_system):
        mr = multires_reconstruct(
            mr_scan, mr_system, levels=[32], max_equits=2.0, seed=0,
            track_cost=False,
        )
        ref = icd_reconstruct(
            mr_scan, mr_system, max_equits=2.0, seed=0, track_cost=False
        )
        np.testing.assert_array_equal(mr.image, ref.image)

    def test_bit_reproducible(self, mr_scan, mr_system):
        kwargs = dict(levels=[16, 32], coarse_equits=1.0, max_equits=2.0,
                      seed=0, track_cost=False)
        a = multires_reconstruct(mr_scan, mr_system, **kwargs)
        b = multires_reconstruct(mr_scan, mr_system, **kwargs)
        np.testing.assert_array_equal(a.image, b.image)

    def test_ndarray_init(self, mr_scan, mr_system):
        seed_img = np.full((32, 32), 0.01)
        result = multires_reconstruct(
            mr_scan, mr_system, levels=[32], max_equits=1.0, seed=0,
            init=seed_img, track_cost=False,
        )
        ref = icd_reconstruct(
            mr_scan, mr_system, max_equits=1.0, seed=0, init=seed_img,
            track_cost=False,
        )
        np.testing.assert_array_equal(result.image, ref.image)

    def test_invalid_inputs_rejected(self, mr_scan, mr_system):
        with pytest.raises(ValueError, match="base_driver"):
            multires_reconstruct(mr_scan, mr_system, base_driver="nope")
        with pytest.raises(ValueError, match="resume_from"):
            multires_reconstruct(mr_scan, mr_system, resume_from="ckpt-5")
        with pytest.raises(TypeError, match="does not accept"):
            multires_reconstruct(mr_scan, mr_system, not_a_param=1)
        with pytest.raises(ValueError, match="ascending"):
            multires_reconstruct(mr_scan, mr_system, levels=[32, 16])
        with pytest.raises(ValueError, match="coarse_equits"):
            multires_reconstruct(
                mr_scan, mr_system, levels=[16, 32], coarse_equits=[1.0, 2.0]
            )


class TestLevelCheckpoints:
    def test_level_scoped_files_and_markers(self, mr_scan, mr_system, tmp_path):
        multires_reconstruct(
            mr_scan, mr_system, levels=[16, 32], coarse_equits=2.0,
            max_equits=2.0, seed=0, track_cost=False, checkpoint=tmp_path,
        )
        names = sorted(p.name for p in tmp_path.iterdir())
        assert any(n.startswith("ckpt-L00-") for n in names)
        assert any(n.startswith("ckpt-L01-") for n in names)
        assert "level-L00-final.npz" in names
        # Level files still match the service liveness glob.
        assert list(tmp_path.glob("ckpt-*.ckpt"))

    def test_manager_isolation_between_levels(self, tmp_path):
        from repro.core.convergence import RunHistory

        def ckpt(iteration):
            return Checkpoint(
                driver="icd", iteration=iteration, total_updates=4 * iteration,
                x=np.zeros(4), e=np.zeros(4), rng_state={}, history=RunHistory(),
            )

        m0 = _level_scope(CheckpointManager(tmp_path, keep=2), 0)
        m1 = _level_scope(CheckpointManager(tmp_path, keep=2), 1)
        for it in (1, 2, 3):
            m0.save(ckpt(it))
        m1.save(ckpt(1))
        assert [p.name for p in m0.paths()] == [
            "ckpt-L00-00000002.ckpt",
            "ckpt-L00-00000003.ckpt",
        ]
        assert [p.name for p in m1.paths()] == ["ckpt-L01-00000001.ckpt"]
        loaded = m0.load_latest()
        assert loaded.iteration == 3
        assert loaded.meta["multires_level"] == 0
        # The base manager sees every level's files (the service's view).
        assert len(CheckpointManager(tmp_path).paths()) == 3

    def test_checkpointing_is_iterate_neutral(self, mr_scan, mr_system, tmp_path):
        kwargs = dict(levels=[16, 32], coarse_equits=1.0, max_equits=2.0,
                      seed=0, track_cost=False)
        plain = multires_reconstruct(mr_scan, mr_system, **kwargs)
        ckpt = multires_reconstruct(
            mr_scan, mr_system, checkpoint=tmp_path, **kwargs
        )
        np.testing.assert_array_equal(plain.image, ckpt.image)

    def test_resume_after_completion_is_bit_identical(
        self, mr_scan, mr_system, tmp_path
    ):
        kwargs = dict(levels=[16, 32], coarse_equits=1.0, max_equits=2.0,
                      seed=0, track_cost=False, checkpoint=tmp_path)
        first = multires_reconstruct(mr_scan, mr_system, **kwargs)
        resumed = multires_reconstruct(
            mr_scan, mr_system, resume_from="latest", **kwargs
        )
        np.testing.assert_array_equal(first.image, resumed.image)
        assert resumed.levels[0].from_marker

    def test_corrupt_marker_reruns_level(self, mr_scan, mr_system, tmp_path):
        kwargs = dict(levels=[16, 32], coarse_equits=1.0, max_equits=2.0,
                      seed=0, track_cost=False, checkpoint=tmp_path)
        first = multires_reconstruct(mr_scan, mr_system, **kwargs)
        (tmp_path / "level-L00-final.npz").write_bytes(b"torn")
        resumed = multires_reconstruct(
            mr_scan, mr_system, resume_from="latest", **kwargs
        )
        assert not resumed.levels[0].from_marker
        np.testing.assert_array_equal(first.image, resumed.image)


# ----------------------------------------------------------------------
# Mid-pyramid kill-and-resume drill
# ----------------------------------------------------------------------
# The child completes the coarse level (2 iterations at 16px under a
# 2-equit budget) and is SIGKILLed after fine-level iteration 4 — the
# injector's threshold is above anything the coarse level reaches, so the
# kill necessarily lands at level 1.
_CHILD = """\
import sys
import numpy as np
from repro import FaultInjector, IntegritySentinel
from repro.ct import build_system_matrix, shepp_logan, simulate_scan
from repro.ct.geometry import ParallelBeamGeometry
from repro.multires.pyramid import multires_reconstruct

ckpt_dir = sys.argv[1]
geom = ParallelBeamGeometry(n_pixels=32, n_views=48, n_channels=64)
system = build_system_matrix(geom)
scan = simulate_scan(shepp_logan(32), system, dose=1e5, seed=1)
sentinel = IntegritySentinel(fault_injector=FaultInjector().kill_at(4))
multires_reconstruct(
    scan, system, levels=[16, 32], coarse_equits=2.0, max_equits=8.0,
    seed=0, track_cost=False, checkpoint=ckpt_dir, sentinel=sentinel,
)
print("UNREACHABLE: run completed without being killed")
sys.exit(3)
"""


def test_sigkill_mid_fine_level_resumes_at_level_one(
    mr_scan, mr_system, tmp_path
):
    ckpt_dir = tmp_path / "pyramid"
    src_dir = str(Path(__file__).resolve().parents[2] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(ckpt_dir)],
        env={"PYTHONPATH": src_dir, "PATH": "/usr/bin:/bin"},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        returncode = proc.wait(timeout=300)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    stdout, stderr = proc.communicate(timeout=60)
    assert returncode == -signal.SIGKILL, (
        f"child should die by SIGKILL, got rc={returncode}\n{stdout}\n{stderr}"
    )

    # The kill landed mid-level-1: the coarse level's final image was
    # persisted, and only fine-level checkpoints beyond it exist.
    assert (ckpt_dir / "level-L00-final.npz").is_file()
    assert list(ckpt_dir.glob("ckpt-L01-*.ckpt"))

    resumed = multires_reconstruct(
        mr_scan, mr_system, levels=[16, 32], coarse_equits=2.0, max_equits=8.0,
        seed=0, track_cost=False, checkpoint=ckpt_dir, resume_from="latest",
    )
    # Resume landed in the correct pyramid stage: the coarse level was
    # restored from its marker, never re-run.
    assert resumed.levels[0].from_marker
    assert not resumed.levels[1].from_marker

    reference = multires_reconstruct(
        mr_scan, mr_system, levels=[16, 32], coarse_equits=2.0, max_equits=8.0,
        seed=0, track_cost=False,
    )
    np.testing.assert_array_equal(resumed.image, reference.image)


# ----------------------------------------------------------------------
# Hierarchical-vs-cold acceptance
# ----------------------------------------------------------------------
def _equits_to(history, threshold):
    for record in history.records:
        if record.rmse is not None and record.rmse < threshold:
            return record.equits
    return None


@pytest.fixture(scope="module")
def accept64():
    geom = scaled_geometry(64)
    system = build_system_matrix(geom)
    scan = simulate_scan(shepp_logan(64), system, dose=1e5, seed=1)
    golden = icd_reconstruct(
        scan, system, max_equits=30, seed=0, track_cost=False
    ).image
    return scan, system, golden


def test_hierarchical_beats_cold_start_at_64(accept64):
    """From a cold (zero) start the pyramid reaches the 10 HU target in
    strictly fewer finest-raster equits than full-resolution ICD."""
    scan, system, golden = accept64
    cold = icd_reconstruct(
        scan, system, max_equits=20, golden=golden, seed=7, init="zero",
        track_cost=False,
    )
    hier = multires_reconstruct(
        scan, system, levels=[32, 64], coarse_equits=3.0, max_equits=20,
        golden=golden, seed=7, init="zero", track_cost=False,
    )
    cold_equits = _equits_to(cold.history, 10.0)
    hier_equits = _equits_to(hier.history, 10.0)
    assert cold_equits is not None and hier_equits is not None
    assert hier_equits < cold_equits


@pytest.mark.skipif(
    not os.environ.get("REPRO_TEST_LARGE"),
    reason="256^2 acceptance run takes minutes; set REPRO_TEST_LARGE=1",
)
def test_hierarchical_beats_cold_start_at_256():
    """The ISSUE's pinned acceptance criterion at full 256^2 scale."""
    geom = scaled_geometry(256)
    system = build_system_matrix(geom)
    scan = simulate_scan(shepp_logan(256), system, dose=1e5, seed=1)
    golden = icd_reconstruct(
        scan, system, max_equits=30, seed=0, track_cost=False
    ).image
    cold = icd_reconstruct(
        scan, system, max_equits=20, golden=golden, seed=7, init="zero",
        track_cost=False,
    )
    hier = multires_reconstruct(
        scan, system, levels=[64, 128, 256], coarse_equits=3.0, max_equits=20,
        golden=golden, seed=7, init="zero", track_cost=False,
    )
    cold_equits = _equits_to(cold.history, 10.0)
    hier_equits = _equits_to(hier.history, 10.0)
    assert cold_equits is not None and hier_equits is not None
    assert hier_equits < cold_equits
