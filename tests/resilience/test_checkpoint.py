"""Checkpoints: atomic, checksummed, resumable."""

import os

import numpy as np
import pytest

from repro.resilience.checkpoint import (
    Checkpoint,
    CheckpointError,
    CheckpointManager,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    prune_checkpoints,
    save_checkpoint,
)


def make_checkpoint(epoch=3, seed=0):
    rng = np.random.default_rng(seed)
    return Checkpoint(
        epoch=epoch,
        x=rng.normal(size=(8, 4)).astype(np.float32),
        theta=rng.normal(size=(6, 4)).astype(np.float32),
        clock=12.5,
        rng_state=rng.bit_generator.state,
        curve=[{"epoch": 1, "seconds": 1.0, "rmse": 0.9, "train_rmse": 0.8}],
        breakdowns=[{"get_hermitian": 0.5, "get_bias": 0.1, "solve": 0.4}],
        health=[{"kind": "checkpoint.saved", "detail": "x"}],
        extra={"precision": "fp16", "solver": "cg"},
    )


class TestValidation:
    def test_negative_epoch_rejected(self):
        ckpt = make_checkpoint()
        with pytest.raises(ValueError, match="epoch"):
            Checkpoint(epoch=-1, x=ckpt.x, theta=ckpt.theta)

    def test_factor_rank_mismatch_rejected(self):
        ckpt = make_checkpoint()
        with pytest.raises(ValueError, match="factor"):
            Checkpoint(epoch=1, x=ckpt.x, theta=ckpt.theta[:, :-1])


class TestRoundTrip:
    def test_everything_survives(self, tmp_path):
        ckpt = make_checkpoint()
        path = save_checkpoint(tmp_path, ckpt)
        assert os.path.basename(path) == "ckpt-000003.npz"
        back = load_checkpoint(path)
        np.testing.assert_array_equal(back.x, ckpt.x)
        np.testing.assert_array_equal(back.theta, ckpt.theta)
        assert back.epoch == ckpt.epoch
        assert back.clock == ckpt.clock
        assert back.rng_state == ckpt.rng_state
        assert back.curve == ckpt.curve
        assert back.breakdowns == ckpt.breakdowns
        assert back.health == ckpt.health
        assert back.extra == ckpt.extra

    def test_rng_state_drives_identical_draws(self, tmp_path):
        rng = np.random.default_rng(7)
        rng.normal(size=10)  # advance
        ckpt = make_checkpoint()
        ckpt.rng_state = rng.bit_generator.state
        expected = rng.normal(size=5)
        back = load_checkpoint(load_path := save_checkpoint(tmp_path, ckpt))
        rng2 = np.random.default_rng(0)
        rng2.bit_generator.state = back.rng_state
        np.testing.assert_array_equal(rng2.normal(size=5), expected)
        assert load_path.endswith(".npz")

    def test_no_temp_files_left(self, tmp_path):
        save_checkpoint(tmp_path, make_checkpoint())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt-000003.npz"]


class TestDiscovery:
    def test_list_sorted_by_epoch(self, tmp_path):
        for epoch in (7, 2, 11):
            save_checkpoint(tmp_path, make_checkpoint(epoch=epoch))
        names = [os.path.basename(p) for p in list_checkpoints(tmp_path)]
        assert names == ["ckpt-000002.npz", "ckpt-000007.npz", "ckpt-000011.npz"]

    def test_latest(self, tmp_path):
        assert latest_checkpoint(tmp_path) is None
        for epoch in (1, 5, 3):
            save_checkpoint(tmp_path, make_checkpoint(epoch=epoch))
        assert os.path.basename(latest_checkpoint(tmp_path)) == "ckpt-000005.npz"

    def test_foreign_files_ignored(self, tmp_path):
        (tmp_path / "notes.txt").write_text("hi")
        (tmp_path / "ckpt-zzz.npz").write_bytes(b"junk")
        save_checkpoint(tmp_path, make_checkpoint(epoch=1))
        assert len(list_checkpoints(tmp_path)) == 1

    def test_latest_of_missing_directory(self, tmp_path):
        assert latest_checkpoint(tmp_path / "nope") is None


class TestCorruption:
    def test_truncated_checkpoint_rejected(self, tmp_path):
        path = save_checkpoint(tmp_path, make_checkpoint())
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="corrupt|truncated"):
            load_checkpoint(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "ckpt-000001.npz"
        path.write_bytes(b"garbage")
        with pytest.raises(CheckpointError, match="corrupt|truncated"):
            load_checkpoint(path)

    def test_stale_checksum_rejected(self, tmp_path):
        path = save_checkpoint(tmp_path, make_checkpoint())
        with np.load(path) as z:
            data = dict(z)
        data["x"] = data["x"].copy()
        data["x"][0, 0] += 1.0  # corrupt a value, keep the old checksums
        np.savez(path, **data)
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_unknown_schema_rejected(self, tmp_path):
        import json

        path = save_checkpoint(tmp_path, make_checkpoint())
        with np.load(path) as z:
            data = dict(z)
        header = json.loads(bytes(data["header"].tobytes()).decode())
        header["schema"] = 99
        header.pop("checksums", None)
        data["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        np.savez(path, **data)
        with pytest.raises(CheckpointError, match="unsupported"):
            load_checkpoint(path)


class TestRetention:
    def save_epochs(self, directory, epochs):
        return [save_checkpoint(directory, make_checkpoint(epoch=e)) for e in epochs]

    def test_none_keeps_everything(self, tmp_path):
        self.save_epochs(tmp_path, range(1, 5))
        assert prune_checkpoints(tmp_path, None) == []
        assert len(list_checkpoints(tmp_path)) == 4

    def test_prunes_oldest_first(self, tmp_path):
        paths = self.save_epochs(tmp_path, range(1, 6))
        deleted = prune_checkpoints(tmp_path, 2)
        assert deleted == paths[:3]  # oldest victims, in deletion order
        assert list_checkpoints(tmp_path) == paths[3:]

    def test_under_budget_is_a_noop(self, tmp_path):
        self.save_epochs(tmp_path, range(1, 3))
        assert prune_checkpoints(tmp_path, 5) == []
        assert len(list_checkpoints(tmp_path)) == 2

    def test_invalid_budget_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="keep_last"):
            prune_checkpoints(tmp_path, 0)

    def test_vanished_victim_is_skipped(self, tmp_path):
        paths = self.save_epochs(tmp_path, range(1, 5))
        os.unlink(paths[0])  # concurrent prune got there first
        deleted = prune_checkpoints(tmp_path, 1)
        assert deleted == paths[1:3]

    def test_newest_survives_any_crash_prefix(self, tmp_path):
        # Crash-safety by construction: every prefix of the deletion
        # order leaves the newest checkpoint resumable.
        paths = self.save_epochs(tmp_path, range(1, 6))
        deleted = prune_checkpoints(tmp_path, 2)
        for prefix in range(len(deleted) + 1):
            survivors = [p for p in paths if p not in deleted[:prefix]]
            assert survivors[-1] == paths[-1]


class TestCheckpointManager:
    def test_save_enforces_budget(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), keep_last=2)
        paths = [manager.save(make_checkpoint(epoch=epoch)) for epoch in range(1, 5)]
        assert manager.list() == paths[-2:]

    def test_unbounded_by_default(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        for epoch in range(1, 4):
            manager.save(make_checkpoint(epoch=epoch))
        assert len(manager.list()) == 3

    def test_empty_directory(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        assert manager.latest() is None

    def test_budget_validation(self, tmp_path):
        with pytest.raises(CheckpointError, match="keep_last"):
            CheckpointManager(str(tmp_path), keep_last=0)


class TestForeignFilenamePrune:
    def test_prune_ignores_streaming_artifacts(self, tmp_path):
        # A streaming directory interleaves full checkpoints with delta
        # checkpoints, corpus snapshots and WAL segments; retention must
        # only ever count (and delete) full checkpoints.
        paths = [
            save_checkpoint(tmp_path, make_checkpoint(epoch=e)) for e in (1, 2, 3)
        ]
        foreign = [
            tmp_path / "ckpt-000002.delta.npz",
            tmp_path / "corpus-000002.npz",
            tmp_path / "wal-000000.log",
            tmp_path / "notes.txt",
        ]
        for path in foreign:
            path.write_bytes(b"not a full checkpoint")
        deleted = prune_checkpoints(tmp_path, 1)
        assert deleted == paths[:2]
        assert list_checkpoints(tmp_path) == paths[2:]
        for path in foreign:
            assert path.exists()


class TestOrphanSweep:
    def test_sweeps_tmp_files_only(self, tmp_path):
        from repro.resilience.checkpoint import sweep_orphan_tmp

        keep = save_checkpoint(tmp_path, make_checkpoint(epoch=1))
        orphans = [tmp_path / "tmpabc123.tmp-npz", tmp_path / "old-layout.tmp"]
        for path in orphans:
            path.write_bytes(b"crash left me behind")
        deleted = sweep_orphan_tmp(tmp_path)
        assert sorted(deleted) == sorted(os.fspath(p) for p in orphans)
        assert not any(p.exists() for p in orphans)
        assert os.path.exists(keep)

    def test_missing_directory_is_empty(self, tmp_path):
        from repro.resilience.checkpoint import sweep_orphan_tmp

        assert sweep_orphan_tmp(tmp_path / "nope") == []

    def test_manager_sweeps_at_startup(self, tmp_path):
        orphan = tmp_path / "tmpxyz.tmp-npz"
        orphan.write_bytes(b"leak")
        CheckpointManager(os.fspath(tmp_path))
        assert not orphan.exists()
