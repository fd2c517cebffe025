"""Atomic archive plumbing: rename durability, directory fsync, stored
members, backward-compatible loads and copy-free digests."""

import hashlib
import json
import os
import zipfile

import numpy as np
import pytest

from repro.resilience import atomicio
from repro.resilience.atomicio import atomic_savez, fsync_directory, load_archive
from repro.streaming.delta import state_digest


class TestDirectoryFsync:
    def test_atomic_savez_fsyncs_the_parent_directory(self, tmp_path, monkeypatch):
        # os.replace makes the rename atomic for readers, but only an
        # fsync of the parent directory makes it *durable* — track every
        # fsynced fd and assert one of them was the destination dir.
        synced_dirs = []
        real_fsync = os.fsync

        def tracking_fsync(fd):
            try:
                if os.path.isdir(f"/proc/self/fd/{fd}") or os.fstat(fd).st_mode & 0o040000:
                    synced_dirs.append(os.path.realpath(f"/proc/self/fd/{fd}"))
            except OSError:
                pass
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", tracking_fsync)
        atomic_savez(
            tmp_path / "a.npz",
            {"schema": 1},
            {"x": np.ones((2, 2), dtype=np.float32)},
        )
        assert os.path.realpath(tmp_path) in synced_dirs

    def test_fsync_directory_tolerates_missing_path(self, tmp_path):
        fsync_directory(tmp_path / "nope")  # must not raise

    def test_fsync_directory_tolerates_unfsyncable_fd(self, tmp_path, monkeypatch):
        # Some platforms cannot fsync a directory fd; the helper must
        # swallow that and leave the write path merely non-durable.
        def refusing_fsync(fd):
            raise OSError("EINVAL")

        monkeypatch.setattr(os, "fsync", refusing_fsync)
        fsync_directory(tmp_path)


class TestAtomicity:
    def test_failed_write_leaves_no_temp_and_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "a.npz"
        atomic_savez(path, {"v": 1}, {"x": np.zeros(3, dtype=np.float32)})
        before = path.read_bytes()

        def exploding_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(atomicio.os, "replace", exploding_replace)
        try:
            atomic_savez(path, {"v": 2}, {"x": np.ones(3, dtype=np.float32)})
        except OSError:
            pass
        assert path.read_bytes() == before
        assert [n for n in os.listdir(tmp_path) if n.endswith(".tmp-npz")] == []
        header, arrays = load_archive(path)
        assert header["v"] == 1
        np.testing.assert_array_equal(arrays["x"], np.zeros(3, dtype=np.float32))


def write_deflated_archive(path, header, arrays):
    """An archive as written before members were stored: deflated
    members plus the same per-array checksums header."""
    full = dict(header)
    full["checksums"] = {
        name: atomicio.array_checksum(a) for name, a in arrays.items()
    }
    blob = np.frombuffer(json.dumps(full).encode(), dtype=np.uint8)
    np.savez_compressed(path, header=blob, **arrays)


class TestStoredMembers:
    def test_every_member_is_stored(self, tmp_path):
        path = tmp_path / "a.npz"
        atomic_savez(
            path,
            {"v": 1},
            {
                "x": np.arange(64, dtype=np.float32).reshape(8, 8),
                "ids": np.arange(5, dtype=np.int64),
            },
        )
        with zipfile.ZipFile(path) as zf:
            infos = zf.infolist()
        assert sorted(i.filename for i in infos) == [
            "header.npy", "ids.npy", "x.npy"
        ]
        assert all(i.compress_type == zipfile.ZIP_STORED for i in infos)

    def test_deflated_archive_still_loads_and_verifies(self, tmp_path):
        path = tmp_path / "old.npz"
        x = np.random.default_rng(0).standard_normal((64, 16)).astype(np.float32)
        write_deflated_archive(path, {"v": 7}, {"x": x})
        with zipfile.ZipFile(path) as zf:
            assert all(
                i.compress_type == zipfile.ZIP_DEFLATED for i in zf.infolist()
            )
        header, arrays = load_archive(path)
        assert header == {"v": 7}
        np.testing.assert_array_equal(arrays["x"], x)

    def test_deflated_archive_with_stale_checksum_rejected(self, tmp_path):
        path = tmp_path / "old.npz"
        x = np.ones((4, 4), dtype=np.float32)
        write_deflated_archive(path, {"v": 7}, {"x": x})
        with np.load(path) as z:
            data = dict(z)
        data["x"] = x + 1.0
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError, match="checksum"):
            load_archive(path)

    def test_flipped_byte_in_deflated_archive_rejected(self, tmp_path):
        # Inside a deflated member the flip surfaces as a zlib error, a
        # zip CRC failure or a checksum mismatch; all must come back as
        # the documented ValueError.
        path = tmp_path / "old.npz"
        x = np.random.default_rng(1).standard_normal((256, 16)).astype(np.float32)
        write_deflated_archive(path, {"v": 7}, {"x": x})
        with zipfile.ZipFile(path) as zf:
            info = zf.getinfo("x.npy")
        # Local header: 30 fixed bytes + name + extra, then the data.
        blob = bytearray(path.read_bytes())
        name_len = int.from_bytes(blob[info.header_offset + 26:][:2], "little")
        extra_len = int.from_bytes(blob[info.header_offset + 28:][:2], "little")
        start = info.header_offset + 30 + name_len + extra_len
        blob[start + info.compress_size // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="corrupt|truncated"):
            load_archive(path)


def tobytes_digest(*arrays, dtype=None):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
    return h.hexdigest()


def digest_cases():
    for dtype in (np.float32, np.int64):
        base = np.arange(6 * 5, dtype=dtype).reshape(6, 5) * 3 - 7
        yield f"{np.dtype(dtype).name}-c", base
        yield f"{np.dtype(dtype).name}-f", np.asfortranarray(base)
        yield f"{np.dtype(dtype).name}-strided", base[::2, 1::2]
        yield f"{np.dtype(dtype).name}-0d", np.array(dtype(5))
        yield f"{np.dtype(dtype).name}-empty", np.empty((0, 5), dtype=dtype)


CASES = dict(digest_cases())


class TestCopyFreeDigests:
    """The in-place buffer digests equal the ``tobytes()`` digests they
    replaced, so every stored checksum and state digest is unchanged."""

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_array_checksum(self, case):
        a = CASES[case]
        assert atomicio.array_checksum(a) == tobytes_digest(a)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_state_digest(self, case):
        a = CASES[case]
        other = CASES["float32-strided"]
        assert state_digest(a, other) == tobytes_digest(
            a, other, dtype=np.float32
        )

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_factor_digest(self, case):
        # The serving store's content digest is state_digest too; here
        # with a non-float32 first argument, cast before hashing.
        a = CASES[case]
        other = CASES["int64-f"]
        assert state_digest(other, a) == tobytes_digest(
            other, a, dtype=np.float32
        )
