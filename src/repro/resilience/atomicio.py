"""Atomic, checksummed ``.npz`` archives (shared persistence plumbing).

Both :mod:`repro.persistence` (trained models) and
:mod:`repro.resilience.checkpoint` (mid-training state) must survive the
same two storage hazards: a crash mid-write leaving a truncated file at
the destination path, and silent corruption of a file that was written
correctly.  This module solves both once, with no dependency on any
other ``repro`` module so either side can import it freely:

* **atomicity** — the archive is written to a temporary file in the
  destination directory, fsynced, then moved into place with
  :func:`os.replace`; readers can never observe a half-written file;
* **integrity** — the JSON header embeds a SHA-256 checksum per array,
  verified on load; a flipped bit or truncated member is reported as a
  clear ``corrupt``/``truncated`` error instead of propagating garbage
  into factors.

Members are stored (``np.savez``), not deflated: float32 factors barely
compress (a 262,144×32 theta deflates by ~7.5%) while zlib costs
20–30× the write time of a stored member.  Archives written deflated by
earlier versions still load and verify through the same path.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
import zlib

import numpy as np

__all__ = ["array_checksum", "atomic_savez", "fsync_directory", "load_archive"]


def array_checksum(arr: np.ndarray) -> str:
    """SHA-256 over an array's raw bytes (shape/dtype guarded separately).

    Hashes the contiguous buffer in place: equal to hashing
    ``arr.tobytes()``, without the transient copy.
    """
    return hashlib.sha256(np.ascontiguousarray(arr)).hexdigest()


def fsync_directory(directory: str | os.PathLike) -> None:
    """fsync a directory fd so a completed rename survives power loss.

    ``os.replace`` makes the rename atomic with respect to *readers*, but
    the directory entry itself lives in the parent directory's data — on
    a crash before the journal flushes, the rename can be rolled back and
    the destination reverts to the old file (or nothing).  Syncing the
    parent directory pins the rename durably.  Platforms that cannot open
    a directory read-only (or fsync one) are skipped silently; the write
    path stays atomic there, just not rename-durable.
    """
    try:
        dirfd = os.open(os.fspath(directory) or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dirfd)
    except OSError:
        pass
    finally:
        os.close(dirfd)


def atomic_savez(
    path: str | os.PathLike, header: dict, arrays: dict[str, np.ndarray]
) -> None:
    """Write ``arrays`` + JSON ``header`` to ``path`` atomically.

    Per-array SHA-256 checksums are added to the header under
    ``"checksums"`` before writing; members are stored uncompressed,
    each still covered by the zip CRC-32.  The archive lands via
    temp-file + :func:`os.replace`, so a crash at any point leaves either
    the old file or the new one at ``path`` — never a truncated hybrid.
    """
    if "header" in arrays:
        raise ValueError("'header' is a reserved archive member name")
    full = dict(header)
    full["checksums"] = {name: array_checksum(a) for name, a in arrays.items()}
    blob = np.frombuffer(json.dumps(full).encode(), dtype=np.uint8)
    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp-npz")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, header=blob, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        fsync_directory(directory)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_archive(
    path: str | os.PathLike, *, verify: bool = True
) -> tuple[dict, dict[str, np.ndarray]]:
    """Load an archive written by :func:`atomic_savez`.

    Returns ``(header, arrays)`` with the ``"checksums"`` entry removed
    from the header after verification.  Archives written before the
    checksum field existed (no ``"checksums"`` key) load without
    verification, keeping old files readable.

    Raises ``ValueError`` with a ``corrupt``/``truncated`` message on any
    integrity failure — unreadable zip, missing header, missing member,
    or checksum mismatch.
    """
    try:
        with np.load(path) as z:
            header_blob = z["header"].tobytes() if "header" in z else None
            arrays = {k: z[k] for k in z.files if k != "header"}
    except (
        zipfile.BadZipFile,
        zlib.error,  # a flipped byte inside a deflated member (older files)
        ValueError,
        OSError,
        EOFError,
        KeyError,
    ) as exc:
        raise ValueError(
            f"corrupt or truncated archive {os.fspath(path)!r}: {exc}"
        ) from exc
    if header_blob is None:
        raise ValueError(f"corrupt archive {os.fspath(path)!r}: missing header")
    try:
        header = json.loads(bytes(header_blob).decode())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(
            f"corrupt archive {os.fspath(path)!r}: unreadable header ({exc})"
        ) from exc
    checksums = header.pop("checksums", None)
    if verify and checksums is not None:
        for name, want in checksums.items():
            if name not in arrays:
                raise ValueError(
                    f"corrupt or truncated archive {os.fspath(path)!r}: "
                    f"member {name!r} missing"
                )
            got = array_checksum(arrays[name])
            if got != want:
                raise ValueError(
                    f"corrupt archive {os.fspath(path)!r}: checksum mismatch "
                    f"for {name!r} (expected {want[:12]}…, got {got[:12]}…)"
                )
    return header, arrays
