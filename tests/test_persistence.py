"""Tests for model save/load."""

import tracemalloc
import zipfile

import numpy as np
import pytest

from repro.core import ALSConfig, ALSModel, CGConfig, Precision, ReadScheme, SolverKind
from repro.data import load_surrogate
from repro.persistence import load_factors, load_model, save_model
from repro.resilience.atomicio import load_archive


@pytest.fixture(scope="module")
def fitted():
    split, spec = load_surrogate("netflix", scale=0.06, seed=41)
    cfg = ALSConfig(
        f=12,
        lam=spec.lam,
        solver=SolverKind.CG,
        precision=Precision.FP16,
        read_scheme=ReadScheme.NONCOAL_L1,
        cg=CGConfig(max_iters=5, tol=1e-3),
        seed=7,
    )
    model = ALSModel(cfg)
    model.fit(split.train, split.test, epochs=3)
    return model, split


class TestRoundTrip:
    def test_factors_identical(self, fitted, tmp_path):
        model, _ = fitted
        p = tmp_path / "model.npz"
        save_model(p, model)
        again = load_model(p)
        np.testing.assert_array_equal(again.x_, model.x_)
        np.testing.assert_array_equal(again.theta_, model.theta_)

    def test_config_restored(self, fitted, tmp_path):
        model, _ = fitted
        p = tmp_path / "model.npz"
        save_model(p, model)
        again = load_model(p)
        assert again.config == model.config

    def test_predictions_identical(self, fitted, tmp_path):
        model, split = fitted
        p = tmp_path / "model.npz"
        save_model(p, model)
        again = load_model(p)
        assert again.score(split.test) == model.score(split.test)
        u = np.array([0, 1, 2])
        np.testing.assert_array_equal(again.predict(u, u), model.predict(u, u))


class TestErrors:
    def test_unfitted_save_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not fitted"):
            save_model(tmp_path / "x.npz", ALSModel(ALSConfig(f=4)))

    def test_corrupt_shapes_rejected(self, fitted, tmp_path):
        model, _ = fitted
        p = tmp_path / "model.npz"
        save_model(p, model)
        with np.load(p) as z:
            data = dict(z)
        data["x"] = data["x"][:, :-1]  # drop a factor column
        np.savez(p, **data)
        with pytest.raises(ValueError, match="corrupt"):
            load_model(p)

    def test_wrong_version_rejected(self, fitted, tmp_path):
        import json

        model, _ = fitted
        p = tmp_path / "model.npz"
        save_model(p, model)
        with np.load(p) as z:
            data = dict(z)
        header = json.loads(bytes(data["header"].tobytes()).decode())
        header["format_version"] = 999
        data["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        np.savez(p, **data)
        with pytest.raises(ValueError, match="unsupported"):
            load_model(p)


class TestHardening:
    def test_truncated_file_rejected(self, fitted, tmp_path):
        model, _ = fitted
        p = tmp_path / "model.npz"
        save_model(p, model)
        blob = p.read_bytes()
        p.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError, match="corrupt|truncated"):
            load_model(p)

    def test_bit_flip_rejected_by_checksum(self, fitted, tmp_path):
        model, _ = fitted
        p = tmp_path / "model.npz"
        save_model(p, model)
        # Rewrite with one factor value flipped but the original (now
        # stale) checksums — exactly what silent storage corruption of a
        # correctly written file looks like.
        with np.load(p) as z:
            data = dict(z)
        data["x"] = data["x"].copy()
        data["x"][0, 0] += 1.0
        np.savez(p, **data)
        with pytest.raises(ValueError, match="checksum"):
            load_model(p)

    def test_garbage_file_rejected(self, tmp_path):
        p = tmp_path / "model.npz"
        p.write_bytes(b"this is not a zip archive")
        with pytest.raises(ValueError, match="corrupt|truncated"):
            load_model(p)

    def test_save_leaves_no_temp_files(self, fitted, tmp_path):
        model, _ = fitted
        save_model(tmp_path / "model.npz", model)
        assert [f.name for f in tmp_path.iterdir()] == ["model.npz"]

    def test_save_replaces_atomically(self, fitted, tmp_path):
        model, _ = fitted
        p = tmp_path / "model.npz"
        save_model(p, model)
        first = load_model(p)
        save_model(p, model)  # overwrite in place via os.replace
        again = load_model(p)
        np.testing.assert_array_equal(again.x_, first.x_)

    def test_version1_files_still_load(self, fitted, tmp_path):
        import json

        model, _ = fitted
        p = tmp_path / "model.npz"
        save_model(p, model)
        # Re-encode as a pre-checksum v1 archive (plain savez, no
        # checksums key) — old files must keep loading.
        with np.load(p) as z:
            data = dict(z)
        header = json.loads(bytes(data["header"].tobytes()).decode())
        header["format_version"] = 1
        header.pop("checksums", None)
        data["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        np.savez(p, **data)
        again = load_model(p)
        np.testing.assert_array_equal(again.x_, model.x_)

    def test_mid_member_bit_flip_rejected(self, fitted, tmp_path):
        # A flipped byte inside a stored zip member fails the member's
        # zip CRC-32 (or, failing that, its SHA-256 checksum); it must
        # come back as the documented ValueError, not leak a zipfile
        # exception.
        model, _ = fitted
        p = tmp_path / "model.npz"
        save_model(p, model)
        blob = bytearray(p.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        p.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="corrupt|truncated"):
            load_model(p)


class TestStoredArchive:
    def test_members_are_stored(self, fitted, tmp_path):
        model, _ = fitted
        p = tmp_path / "model.npz"
        save_model(p, model)
        with zipfile.ZipFile(p) as zf:
            assert {i.compress_type for i in zf.infolist()} == {
                zipfile.ZIP_STORED
            }

    def test_deflated_model_still_loads(self, fitted, tmp_path):
        # A model written before members were stored: same header and
        # checksums, deflated members.
        model, _ = fitted
        p = tmp_path / "model.npz"
        save_model(p, model)
        with np.load(p) as z:
            data = dict(z)
        np.savez_compressed(p, **data)
        again = load_model(p)
        np.testing.assert_array_equal(again.x_, model.x_)
        np.testing.assert_array_equal(again.theta_, model.theta_)

    def test_save_peak_memory_bounded(self, tmp_path):
        # Stored members are written in chunks and checksums hash the
        # buffers in place, so saving never holds a full-size copy.
        model = ALSModel(ALSConfig(f=32))
        model.x_ = np.ones((16, 32), dtype=np.float32)
        model.theta_ = np.ones((262_144, 32), dtype=np.float32)
        tracemalloc.start()
        try:
            save_model(tmp_path / "model.npz", model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.6 * model.theta_.nbytes


class TestLoadFactors:
    def test_returns_arrays_and_header(self, fitted, tmp_path):
        model, _ = fitted
        p = tmp_path / "model.npz"
        save_model(p, model)
        x, theta, header = load_factors(p)
        np.testing.assert_array_equal(x, model.x_)
        np.testing.assert_array_equal(theta, model.theta_)
        assert header["format_version"] == 2
        assert header["f"] == model.config.f

    def test_float32_members_not_copied(self, fitted, tmp_path, monkeypatch):
        import repro.persistence as persistence

        model, _ = fitted
        p = tmp_path / "model.npz"
        save_model(p, model)
        loaded = {}

        def recording_load(path):
            header, arrays = load_archive(path)
            loaded.update(arrays)
            return header, arrays

        monkeypatch.setattr(persistence, "load_archive", recording_load)
        x, theta, _ = load_factors(p)
        assert x is loaded["x"] and theta is loaded["theta"]

    def test_missing_array_rejected(self, fitted, tmp_path):
        model, _ = fitted
        p = tmp_path / "model.npz"
        save_model(p, model)
        with np.load(p) as z:
            data = dict(z)
        del data["theta"]
        np.savez(p, **data)
        with pytest.raises(ValueError, match="corrupt|checksum"):
            load_factors(p)

    def test_same_integrity_errors_as_load_model(self, tmp_path):
        p = tmp_path / "model.npz"
        p.write_bytes(b"not an archive")
        with pytest.raises(ValueError, match="corrupt|truncated"):
            load_factors(p)
