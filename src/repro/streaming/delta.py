"""Delta checkpoints: fold-in results persisted as O(delta) archives.

A full checkpoint of a serving-scale model is O(model) bytes; a fold-in
touches a handful of rows.  Writing a full ``ckpt-NNNNNN.npz`` after
every apply would make checkpoint I/O the streaming bottleneck, so the
ingest engine persists **deltas**: ``ckpt-NNNNNN.delta.npz`` archives
(written through the same :func:`repro.resilience.atomicio.atomic_savez`
temp-file + fsync + rename + directory-fsync discipline) holding only
the folded user/item rows, the WAL high-water mark they cover, and a
**digest chain** — each delta names the state digest it applies on top
of (``parent_digest``) and the digest of the state it produces
(``result_digest``), with the chain rooted at a base checkpoint's
digest.  Resume walks base → ordered deltas → WAL tail and is
bit-identical to the uninterrupted run; a delta whose parent does not
chain is detected, never silently applied.

After ``compact_every`` deltas the chain is **compacted**: one full
checkpoint (plus a ``corpus-NNNNNN.npz`` snapshot of the streamed
ratings, which future fold-ins still need as solve data) replaces the
base + deltas, and WAL segments at or below the snapshot's high-water
mark become deletable (:meth:`repro.streaming.wal.RatingsWAL
.truncate_through`).  Ordinals are shared with the full-checkpoint
namespace — a delta's ordinal is simply the next number after its base —
so ``list_checkpoints`` (which regex-matches full checkpoints only)
and :func:`list_deltas` partition the directory cleanly.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass, field

import numpy as np

from ..resilience.atomicio import atomic_savez, load_archive
from ..resilience.checkpoint import (
    Checkpoint,
    CheckpointError,
    latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
)

__all__ = [
    "DELTA_SCHEMA",
    "DeltaCheckpoint",
    "DeltaError",
    "StreamState",
    "compact",
    "list_corpus_snapshots",
    "list_deltas",
    "load_corpus_snapshot",
    "load_delta",
    "resume_state",
    "save_corpus_snapshot",
    "save_delta",
    "state_digest",
]

DELTA_SCHEMA = 1

_DELTA_NAME_RE = re.compile(r"^ckpt-(\d{6})\.delta\.npz$")
_CORPUS_NAME_RE = re.compile(r"^corpus-(\d{6})\.npz$")


class DeltaError(CheckpointError):
    """A delta chain could not be written, verified, or replayed."""


def state_digest(x: np.ndarray, theta: np.ndarray) -> str:
    """SHA-256 over both factor matrices' float32 bytes.

    The serving side's content digest too (:mod:`repro.serving.reload`
    imports it), so a digest computed here names the same state
    everywhere.
    """
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(x, dtype=np.float32))
    h.update(np.ascontiguousarray(theta, dtype=np.float32))
    return h.hexdigest()


@dataclass
class DeltaCheckpoint:
    """One fold-in's persisted effect (plain data).

    ``ordinal`` numbers the delta in the shared checkpoint namespace;
    ``applied_seq`` is the WAL sequence of the apply barrier this delta
    covers — every rating with a lower sequence is reflected in the
    rows, everything above it lives only in the WAL tail.
    """

    ordinal: int
    parent_digest: str
    result_digest: str
    applied_seq: int
    users: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    user_rows: np.ndarray = field(default_factory=lambda: np.empty((0, 0), np.float32))
    items: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    item_rows: np.ndarray = field(default_factory=lambda: np.empty((0, 0), np.float32))

    def __post_init__(self) -> None:
        if self.ordinal < 0:
            raise DeltaError("ordinal must be non-negative")
        if self.applied_seq < 0:
            raise DeltaError("applied_seq must be non-negative")
        self.users = np.asarray(self.users, dtype=np.int64)
        self.items = np.asarray(self.items, dtype=np.int64)
        self.user_rows = np.ascontiguousarray(self.user_rows, dtype=np.float32)
        self.item_rows = np.ascontiguousarray(self.item_rows, dtype=np.float32)
        if self.user_rows.shape[0] != self.users.shape[0]:
            raise DeltaError("user_rows must have one row per user id")
        if self.item_rows.shape[0] != self.items.shape[0]:
            raise DeltaError("item_rows must have one row per item id")

    def apply(self, x: np.ndarray, theta: np.ndarray) -> None:
        """Install the folded rows into ``(x, theta)`` in place."""
        if self.users.size:
            x[self.users] = self.user_rows
        if self.items.size:
            theta[self.items] = self.item_rows


def _delta_path(directory: str | os.PathLike, ordinal: int) -> str:
    return os.path.join(os.fspath(directory), f"ckpt-{ordinal:06d}.delta.npz")


def save_delta(directory: str | os.PathLike, delta: DeltaCheckpoint) -> str:
    """Write one delta atomically; returns the path."""
    os.makedirs(directory, exist_ok=True)
    path = _delta_path(directory, delta.ordinal)
    header = {
        "schema": DELTA_SCHEMA,
        "ordinal": delta.ordinal,
        "parent_digest": delta.parent_digest,
        "result_digest": delta.result_digest,
        "applied_seq": delta.applied_seq,
    }
    atomic_savez(
        path,
        header,
        {
            "users": delta.users,
            "user_rows": delta.user_rows,
            "items": delta.items,
            "item_rows": delta.item_rows,
        },
    )
    return path


def load_delta(path: str | os.PathLike) -> DeltaCheckpoint:
    """Reload one delta, verifying checksums and schema."""
    try:
        header, arrays = load_archive(path)
    except ValueError as exc:
        raise DeltaError(str(exc)) from exc
    if header.get("schema") != DELTA_SCHEMA:
        raise DeltaError(
            f"unsupported delta schema {header.get('schema')!r} in "
            f"{os.fspath(path)!r} (this build reads schema {DELTA_SCHEMA})"
        )
    try:
        return DeltaCheckpoint(
            ordinal=int(header["ordinal"]),
            parent_digest=str(header["parent_digest"]),
            result_digest=str(header["result_digest"]),
            applied_seq=int(header["applied_seq"]),
            users=arrays["users"],
            user_rows=arrays["user_rows"],
            items=arrays["items"],
            item_rows=arrays["item_rows"],
        )
    except KeyError as exc:
        raise DeltaError(
            f"corrupt delta {os.fspath(path)!r}: missing member {exc}"
        ) from exc


def list_deltas(directory: str | os.PathLike) -> list[str]:
    """All delta paths in ``directory``, sorted by ordinal ascending."""
    if not os.path.isdir(directory):
        return []
    found = []
    for name in os.listdir(directory):
        match = _DELTA_NAME_RE.match(name)
        if match:
            found.append(
                (int(match.group(1)), os.path.join(os.fspath(directory), name))
            )
    return [path for _, path in sorted(found)]


# -- corpus snapshots -------------------------------------------------------


def save_corpus_snapshot(
    directory: str | os.PathLike,
    ordinal: int,
    applied_seq: int,
    users: np.ndarray,
    items: np.ndarray,
    ratings: np.ndarray,
) -> str:
    """Persist the *streamed* ratings merged so far (compaction only).

    Factor checkpoints capture fold-in **results**; the ratings
    themselves remain solve *inputs* for every future fold-in of the
    same rows, so WAL segments cannot be deleted until an equivalent
    snapshot is durable.  The snapshot holds only streamed entries — the
    batch training corpus stays wherever the caller keeps it.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(os.fspath(directory), f"corpus-{ordinal:06d}.npz")
    atomic_savez(
        path,
        {"schema": DELTA_SCHEMA, "ordinal": ordinal, "applied_seq": applied_seq},
        {
            "users": np.asarray(users, dtype=np.int64),
            "items": np.asarray(items, dtype=np.int64),
            "ratings": np.asarray(ratings, dtype=np.float32),
        },
    )
    return path


def list_corpus_snapshots(directory: str | os.PathLike) -> list[str]:
    if not os.path.isdir(directory):
        return []
    found = []
    for name in os.listdir(directory):
        match = _CORPUS_NAME_RE.match(name)
        if match:
            found.append(
                (int(match.group(1)), os.path.join(os.fspath(directory), name))
            )
    return [path for _, path in sorted(found)]


def load_corpus_snapshot(
    path: str | os.PathLike,
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Returns ``(applied_seq, users, items, ratings)``."""
    try:
        header, arrays = load_archive(path)
    except ValueError as exc:
        raise DeltaError(str(exc)) from exc
    return (
        int(header["applied_seq"]),
        arrays["users"].astype(np.int64, copy=False),
        arrays["items"].astype(np.int64, copy=False),
        arrays["ratings"].astype(np.float32, copy=False),
    )


# -- resume -----------------------------------------------------------------


@dataclass
class StreamState:
    """Everything :func:`resume_state` reconstructs from disk."""

    x: np.ndarray
    theta: np.ndarray
    ordinal: int  # ordinal of the newest artifact folded in
    applied_seq: int  # WAL high-water mark reflected in the factors
    digest: str  # state digest of (x, theta)
    deltas_applied: int
    corpus_users: np.ndarray
    corpus_items: np.ndarray
    corpus_ratings: np.ndarray
    corpus_seq: int  # WAL high-water mark covered by the corpus snapshot


def resume_state(
    directory: str | os.PathLike, *, verify: bool = True
) -> StreamState:
    """Rebuild factor state from base checkpoint + ordered deltas.

    The WAL tail (records above ``applied_seq``) is the caller's to
    replay — :meth:`repro.streaming.IngestEngine.resume` does exactly
    that.  With ``verify=True`` every chain link is checked: the base
    digest must match the first delta's ``parent_digest``, each delta
    must chain off its predecessor's ``result_digest``, and the final
    recomputed state digest must equal the last ``result_digest``.
    """
    base_path = latest_checkpoint(directory)
    if base_path is None:
        raise DeltaError(f"no base checkpoint in {os.fspath(directory)!r}")
    base = load_checkpoint(base_path)
    x = np.ascontiguousarray(base.x, dtype=np.float32).copy()
    theta = np.ascontiguousarray(base.theta, dtype=np.float32).copy()
    digest = state_digest(x, theta)
    applied_seq = int(base.extra.get("applied_seq", -1))
    ordinal = base.epoch
    deltas_applied = 0
    for path in list_deltas(directory):
        delta = load_delta(path)
        if delta.ordinal <= ordinal:
            continue  # pre-compaction leftover; superseded by the base
        if verify and delta.parent_digest != digest:
            raise DeltaError(
                f"delta {os.path.basename(path)} does not chain: parent "
                f"{delta.parent_digest[:12]}… but state is {digest[:12]}…"
            )
        delta.apply(x, theta)
        digest = delta.result_digest
        applied_seq = delta.applied_seq
        ordinal = delta.ordinal
        deltas_applied += 1
    if verify and state_digest(x, theta) != digest:
        raise DeltaError(
            "replayed state digest mismatch after applying "
            f"{deltas_applied} delta(s) — chain is corrupt"
        )
    snapshots = list_corpus_snapshots(directory)
    if snapshots:
        corpus_seq, cu, ci, cr = load_corpus_snapshot(snapshots[-1])
    else:
        corpus_seq = -1
        cu = np.empty(0, dtype=np.int64)
        ci = np.empty(0, dtype=np.int64)
        cr = np.empty(0, dtype=np.float32)
    return StreamState(
        x=x,
        theta=theta,
        ordinal=ordinal,
        applied_seq=applied_seq,
        digest=digest,
        deltas_applied=deltas_applied,
        corpus_users=cu,
        corpus_items=ci,
        corpus_ratings=cr,
        corpus_seq=corpus_seq,
    )


def compact(
    directory: str | os.PathLike,
    *,
    ordinal: int,
    x: np.ndarray,
    theta: np.ndarray,
    applied_seq: int,
    corpus_users: np.ndarray,
    corpus_items: np.ndarray,
    corpus_ratings: np.ndarray,
) -> str:
    """Collapse the delta chain into one full checkpoint.

    Crash-safe by ordering, same as pruning: the full checkpoint and the
    corpus snapshot are atomically durable **before** any delta or older
    snapshot is deleted, so a crash at any instruction leaves a
    resumable directory.  Returns the new checkpoint path.
    """
    ckpt = Checkpoint(
        epoch=ordinal,
        x=np.ascontiguousarray(x, dtype=np.float32),
        theta=np.ascontiguousarray(theta, dtype=np.float32),
        extra={"applied_seq": int(applied_seq), "streaming": True},
    )
    path = save_checkpoint(directory, ckpt)
    save_corpus_snapshot(
        directory, ordinal, applied_seq, corpus_users, corpus_items, corpus_ratings
    )
    for delta_path in list_deltas(directory):
        delta_ordinal = int(_DELTA_NAME_RE.match(os.path.basename(delta_path)).group(1))
        if delta_ordinal <= ordinal:
            try:
                os.unlink(delta_path)
            except FileNotFoundError:
                continue
    for snap_path in list_corpus_snapshots(directory)[:-1]:
        try:
            os.unlink(snap_path)
        except FileNotFoundError:
            continue
    return path
