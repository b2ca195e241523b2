"""Tests for scan / reconstruction persistence."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import icd_reconstruct
from repro.io import (
    arm_disk_fault,
    atomic_write,
    disarm_disk_fault,
    load_reconstruction,
    load_scan,
    save_reconstruction,
    save_scan,
)


class TestScanRoundtrip:
    def test_full_roundtrip(self, scan32, tmp_path):
        p = tmp_path / "scan.npz"
        save_scan(p, scan32)
        loaded = load_scan(p)
        np.testing.assert_array_equal(loaded.sinogram, scan32.sinogram)
        np.testing.assert_array_equal(loaded.weights, scan32.weights)
        np.testing.assert_array_equal(loaded.ground_truth, scan32.ground_truth)
        assert loaded.geometry.n_pixels == scan32.geometry.n_pixels
        assert loaded.geometry.channel_spacing == pytest.approx(
            scan32.geometry.channel_spacing
        )

    def test_without_ground_truth(self, scan32, tmp_path):
        from repro.ct import ScanData

        scan = ScanData(
            geometry=scan32.geometry,
            sinogram=scan32.sinogram,
            weights=scan32.weights,
        )
        p = tmp_path / "scan.npz"
        save_scan(p, scan)
        assert load_scan(p).ground_truth is None

    def test_wrong_format_rejected(self, tmp_path):
        p = tmp_path / "other.npz"
        np.savez(p, format=np.array("something-else"), x=np.zeros(3))
        with pytest.raises(ValueError, match="not a repro scan"):
            load_scan(p)

    def test_loaded_scan_reconstructs(self, scan32, system32, tmp_path):
        p = tmp_path / "scan.npz"
        save_scan(p, scan32)
        loaded = load_scan(p)
        res = icd_reconstruct(loaded, system32, max_equits=1, seed=0, track_cost=False)
        ref = icd_reconstruct(scan32, system32, max_equits=1, seed=0, track_cost=False)
        np.testing.assert_allclose(res.image, ref.image, atol=1e-12)


class TestReconstructionRoundtrip:
    def test_image_and_history(self, scan32, system32, tmp_path, golden32):
        res = icd_reconstruct(
            scan32, system32, max_equits=2, golden=golden32, stop_rmse=1e-9,
            seed=0, track_cost=False,
        )
        p = tmp_path / "recon.npz"
        save_reconstruction(p, res.image, res.history, metadata={"driver": "seq"})
        image, history, meta = load_reconstruction(p)
        np.testing.assert_array_equal(image, res.image)
        assert meta == {"driver": "seq"}
        assert history is not None
        assert len(history.records) == len(res.history.records)
        for a, b in zip(history.records, res.history.records):
            assert a.equits == pytest.approx(b.equits)
            assert a.updates == b.updates
            assert (a.rmse is None) == (b.rmse is None)

    def test_image_only(self, tmp_path, rng):
        img = rng.random((8, 8))
        p = tmp_path / "img.npz"
        save_reconstruction(p, img)
        image, history, meta = load_reconstruction(p)
        np.testing.assert_array_equal(image, img)
        assert history is None
        assert meta == {}

    def test_converged_equits_preserved(self, tmp_path):
        from repro.core.convergence import IterationRecord, RunHistory

        h = RunHistory()
        h.append(IterationRecord(1, 1.0, 2.0, 5.0, 10, 1))
        h.converged_equits = 1.0
        p = tmp_path / "r.npz"
        save_reconstruction(p, np.zeros((2, 2)), h)
        _, loaded, _ = load_reconstruction(p)
        assert loaded.converged_equits == 1.0

    def test_convergence_judgement_preserved(self, tmp_path):
        """converged_iteration / converged_threshold_hu survive the round-trip.

        Regression: earlier versions persisted only converged_equits, so an
        archived run lost which convergence bar it had been judged against.
        """
        from repro.core.convergence import IterationRecord, RunHistory

        h = RunHistory()
        h.append(IterationRecord(1, 1.0, 2.0, 25.0, 10, 1))
        h.mark_converged_if_below(30.0)
        assert h.converged_iteration == 1  # precondition
        p = tmp_path / "r.npz"
        save_reconstruction(p, np.zeros((2, 2)), h)
        _, loaded, _ = load_reconstruction(p)
        assert loaded.converged_equits == h.converged_equits
        assert loaded.converged_iteration == 1
        assert loaded.converged_threshold_hu == 30.0

    def test_never_converged_round_trips_as_none(self, tmp_path):
        from repro.core.convergence import IterationRecord, RunHistory

        h = RunHistory()
        h.append(IterationRecord(1, 1.0, 2.0, 99.0, 10, 1))
        h.mark_converged_if_below(30.0)
        p = tmp_path / "r.npz"
        save_reconstruction(p, np.zeros((2, 2)), h)
        _, loaded, _ = load_reconstruction(p)
        assert loaded.converged_equits is None
        assert loaded.converged_iteration is None
        assert loaded.converged_threshold_hu == 30.0  # threshold always recorded

    def test_old_format_files_still_load(self, tmp_path):
        """Files written before the new keys existed load with fields None."""
        from repro.core.convergence import IterationRecord, RunHistory

        h = RunHistory()
        h.append(IterationRecord(1, 1.0, 2.0, 5.0, 10, 1))
        p = tmp_path / "old.npz"
        save_reconstruction(p, np.zeros((2, 2)), h)
        # Rewrite the archive without the two new keys, as an old writer did.
        with np.load(p, allow_pickle=False) as data:
            stripped = {
                k: data[k]
                for k in data.files
                if k not in ("converged_iteration", "converged_threshold_hu")
            }
        np.savez_compressed(p, **stripped)
        _, loaded, _ = load_reconstruction(p)
        assert loaded is not None
        assert loaded.converged_iteration is None
        assert loaded.converged_threshold_hu is None

    def test_stop_reason_and_statistic_round_trip(self, tmp_path):
        from repro.core.convergence import IterationRecord, RunHistory

        h = RunHistory()
        h.append(IterationRecord(1, 1.0, 2.0, None, 10, 1, delta_hu=3.5))
        h.append(IterationRecord(2, 2.0, 2.0, None, 10, 1))
        h.stop_reason = "converged"
        p = tmp_path / "r.npz"
        save_reconstruction(p, np.zeros((2, 2)), h)
        _, loaded, _ = load_reconstruction(p)
        assert [r.delta_hu for r in loaded.records] == [3.5, None]
        assert loaded.stop_reason == "converged"

    def test_files_without_stop_reason_load_as_none(self, tmp_path):
        """Files written before the stop reason existed load with None."""
        from repro.core.convergence import IterationRecord, RunHistory

        h = RunHistory()
        h.append(IterationRecord(1, 1.0, 2.0, 5.0, 10, 1, delta_hu=1.0))
        h.stop_reason = "budget"
        p = tmp_path / "old.npz"
        save_reconstruction(p, np.zeros((2, 2)), h)
        with np.load(p, allow_pickle=False) as data:
            stripped = {
                k: data[k] for k in data.files if k not in ("hist_delta_hu", "stop_reason")
            }
        np.savez_compressed(p, **stripped)
        _, loaded, _ = load_reconstruction(p)
        assert loaded.stop_reason is None
        assert loaded.records[0].delta_hu is None

    def test_wrong_format_rejected(self, tmp_path):
        p = tmp_path / "bad.npz"
        np.savez(p, format=np.array("repro-scan-v1"), image=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="not a repro reconstruction"):
            load_reconstruction(p)


class TestCorruptionHardening:
    """The typed CorruptFileError paths added by the resilience PR."""

    def test_corrupt_error_is_value_error(self):
        from repro.io import CorruptFileError

        assert issubclass(CorruptFileError, ValueError)

    def test_truncated_scan_names_file(self, scan32, tmp_path):
        from repro.io import CorruptFileError

        p = tmp_path / "scan.npz"
        save_scan(p, scan32)
        p.write_bytes(p.read_bytes()[:100])
        with pytest.raises(CorruptFileError, match="unreadable scan file"):
            load_scan(p)

    def test_missing_key_named(self, scan32, tmp_path):
        from repro.io import CorruptFileError

        p = tmp_path / "scan.npz"
        save_scan(p, scan32)
        with np.load(p, allow_pickle=False) as data:
            kept = {k: data[k] for k in data.files if k != "weights"}
        np.savez(p, **kept)
        with pytest.raises(CorruptFileError, match="missing required key 'weights'"):
            load_scan(p)

    def test_invalid_geometry_json_named(self, scan32, tmp_path):
        from repro.io import CorruptFileError

        p = tmp_path / "scan.npz"
        save_scan(p, scan32)
        with np.load(p, allow_pickle=False) as data:
            kept = {k: data[k] for k in data.files}
        kept["geometry"] = np.array("{not json")
        np.savez(p, **kept)
        with pytest.raises(CorruptFileError, match="'geometry'"):
            load_scan(p)

    def test_history_length_mismatch_named(self, tmp_path):
        from repro.core.convergence import IterationRecord, RunHistory
        from repro.io import CorruptFileError

        h = RunHistory()
        h.append(IterationRecord(1, 1.0, 2.0, None, 10, 1))
        p = tmp_path / "recon.npz"
        save_reconstruction(p, np.zeros((2, 2)), h)
        with np.load(p, allow_pickle=False) as data:
            kept = {k: data[k] for k in data.files}
        kept["hist_equits"] = np.array([1.0, 2.0])  # one record, two equits
        np.savez(p, **kept)
        with pytest.raises(CorruptFileError, match="mismatched lengths"):
            load_reconstruction(p)

    def test_missing_file_still_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_scan(tmp_path / "nope.npz")

    def test_atomic_write_leaves_single_file(self, scan32, tmp_path):
        p = tmp_path / "scan.npz"
        save_scan(p, scan32)
        save_scan(p, scan32)  # overwrite goes through the same tmp+replace
        assert [f.name for f in tmp_path.iterdir()] == ["scan.npz"]

    def test_save_scan_appends_npz_suffix(self, scan32, tmp_path):
        save_scan(tmp_path / "scan", scan32)
        assert (tmp_path / "scan.npz").exists()
        load_scan(tmp_path / "scan.npz")


class TestAtomicWrite:
    """:func:`repro.io.atomic_write` is the one durable write in ``src/``."""

    def test_bytes_and_writer_functions_both_land(self, tmp_path):
        assert atomic_write(tmp_path / "a" / "raw", b"abc") == tmp_path / "a" / "raw"
        atomic_write(tmp_path / "a" / "fn", lambda f: f.write(b"xyz"))
        assert (tmp_path / "a" / "raw").read_bytes() == b"abc"
        assert (tmp_path / "a" / "fn").read_bytes() == b"xyz"

    def test_a_failed_write_keeps_the_old_file_and_no_temp(self, tmp_path):
        path = tmp_path / "f"
        atomic_write(path, b"old")

        def boom(f):
            f.write(b"half")
            raise RuntimeError("mid-write")

        with pytest.raises(RuntimeError):
            atomic_write(path, boom)
        arm_disk_fault(tmp_path)
        with pytest.raises(OSError):
            atomic_write(path, b"new")
        disarm_disk_fault(tmp_path)
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["f"]

    def test_fsync_is_called_only_in_the_one_writer(self):
        src = Path(repro.__file__).parent
        callers = sorted(
            str(p.relative_to(src))
            for p in src.rglob("*.py")
            if re.search(r"\bfsync\b", p.read_text())
        )
        assert callers == ["io.py"]


class TestConcurrentWriters:
    """PR-7 bugfix: same-path writers from different threads must not collide.

    Two service workers finishing jobs with the same cache key both write
    ``cache/<key>.npz``.  Pre-fix the atomic-write temp name was keyed on
    pid alone, so the threads shared one temp file: one truncated the
    other mid-write and the loser's ``os.replace`` raised ENOENT.
    """

    def test_many_threads_one_path(self, tmp_path):
        import sys
        import threading

        image = np.full((8, 8), 7.0)
        path = tmp_path / "entry.npz"
        errors = []
        start = threading.Barrier(6)

        def writer():
            start.wait()
            try:
                for _ in range(25):
                    save_reconstruction(path, image, None, metadata={"k": 1})
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(f"{type(exc).__name__}: {exc}")

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(old)
        assert errors == []
        # Last writer won with a complete file; no temp litter left behind.
        loaded, _, meta = load_reconstruction(path)
        np.testing.assert_array_equal(loaded, image)
        assert meta == {"k": 1}
        assert [f.name for f in tmp_path.iterdir()] == ["entry.npz"]


class TestConcurrentReaders:
    """numpy parses each npz entry's header with ``ast.literal_eval``.

    On CPython 3.11 two threads doing that at once can raise ``SystemError``
    ("AST constructor recursion depth mismatch"), which the readers mapped
    to :class:`CorruptFileError`: a healthy job's result could load as
    corrupt when a gateway thread read a scan at the same moment.
    """

    def test_header_parses_never_overlap(self, tmp_path, monkeypatch):
        import ast
        import threading
        import time

        real_literal_eval = ast.literal_eval
        inside = threading.Lock()

        def literal_eval(source):
            # Stands in for the interpreter fault: fails whenever another
            # parse is still running.
            if not inside.acquire(blocking=False):
                raise SystemError("AST constructor recursion depth mismatch")
            try:
                time.sleep(0.001)
                return real_literal_eval(source)
            finally:
                inside.release()

        path = tmp_path / "recon.npz"
        save_reconstruction(path, np.full((8, 8), 3.0), None, metadata={"k": 1})
        monkeypatch.setattr(ast, "literal_eval", literal_eval)
        errors = []
        start = threading.Barrier(4)

        def reader():
            start.wait()
            for _ in range(10):
                try:
                    load_reconstruction(path)
                except Exception as exc:  # noqa: BLE001 - recorded for the assert
                    errors.append(f"{type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_forked_child_reads_while_parent_thread_holds_the_lock(self, tmp_path):
        import multiprocessing

        from repro import io as repro_io

        path = tmp_path / "recon.npz"
        save_reconstruction(path, np.zeros((4, 4)), None)
        child = multiprocessing.get_context("fork").Process(
            target=load_reconstruction, args=(path,)
        )
        with repro_io._read_lock:  # as if a gateway thread were mid-read
            child.start()
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0
