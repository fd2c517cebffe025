"""Atomic epoch-level checkpoints with exact resume.

A checkpoint captures everything ``ALSModel.fit``/``ImplicitALSModel.fit``
need to continue as if never interrupted: both factor matrices, the
trainer RNG state, the simulated clock, the training curve and epoch
breakdowns recorded so far, the run's health log, and a free-form
``extra`` dict for trainer-specific state (e.g. the implicit trainer's
loss history).  Because ALS epochs are deterministic functions of the
factors entering them, restoring this state makes a resumed run
*bit-equivalent* to an uninterrupted one — the kill-and-resume test and
the CI chaos-smoke job both assert exactly that.

Files are ``ckpt-<epoch>.npz`` archives written through
:mod:`repro.resilience.atomicio` (temp-file + :func:`os.replace` +
per-array SHA-256), so a crash mid-save can never destroy the previous
checkpoint and bit-rot is detected on load.  This module deliberately
imports nothing from :mod:`repro.core` or :mod:`repro.persistence` — the
trainers import *it*, and the pure-data design keeps the dependency
graph acyclic.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

import numpy as np

from .atomicio import atomic_savez, load_archive

__all__ = [
    "CHECKPOINT_SCHEMA",
    "Checkpoint",
    "CheckpointError",
    "CheckpointManager",
    "latest_checkpoint",
    "list_checkpoints",
    "load_checkpoint",
    "prune_checkpoints",
    "save_checkpoint",
    "sweep_orphan_tmp",
]

#: On-disk schema version; bump when the header layout changes.
CHECKPOINT_SCHEMA = 1

_NAME_RE = re.compile(r"^ckpt-(\d{6})\.npz$")


class CheckpointError(ValueError):
    """A checkpoint could not be written, found, or restored."""


@dataclass
class Checkpoint:
    """In-memory image of one epoch-boundary training state (plain data).

    ``epoch`` is the number of *completed* epochs; resuming continues at
    ``epoch + 1``.  Everything except the two factor arrays is
    JSON-serializable so the header round-trips losslessly.
    """

    epoch: int
    x: np.ndarray
    theta: np.ndarray
    clock: float = 0.0
    rng_state: dict = field(default_factory=dict)
    curve: list[dict] = field(default_factory=list)
    breakdowns: list[dict] = field(default_factory=list)
    health: list[dict] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.epoch < 0:
            raise CheckpointError("epoch must be non-negative")
        for name in ("x", "theta"):
            arr = getattr(self, name)
            if not isinstance(arr, np.ndarray) or arr.ndim != 2:
                raise CheckpointError(f"{name} must be a 2-D ndarray")
        if self.x.shape[1] != self.theta.shape[1]:
            raise CheckpointError("x and theta must share the factor dimension")


def _checkpoint_path(directory: str | os.PathLike, epoch: int) -> str:
    return os.path.join(os.fspath(directory), f"ckpt-{epoch:06d}.npz")


def save_checkpoint(directory: str | os.PathLike, ckpt: Checkpoint) -> str:
    """Write ``ckpt`` into ``directory`` atomically; returns the path."""
    os.makedirs(directory, exist_ok=True)
    path = _checkpoint_path(directory, ckpt.epoch)
    header = {
        "schema": CHECKPOINT_SCHEMA,
        "epoch": ckpt.epoch,
        "clock": ckpt.clock,
        "rng_state": ckpt.rng_state,
        "curve": ckpt.curve,
        "breakdowns": ckpt.breakdowns,
        "health": ckpt.health,
        "extra": ckpt.extra,
    }
    atomic_savez(
        path,
        header,
        {
            "x": np.ascontiguousarray(ckpt.x, dtype=np.float32),
            "theta": np.ascontiguousarray(ckpt.theta, dtype=np.float32),
        },
    )
    return path


def load_checkpoint(path: str | os.PathLike) -> Checkpoint:
    """Reload a checkpoint, verifying checksums and schema."""
    try:
        header, arrays = load_archive(path)
    except ValueError as exc:
        raise CheckpointError(str(exc)) from exc
    schema = header.get("schema")
    if schema != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"unsupported checkpoint schema {schema!r} in {os.fspath(path)!r} "
            f"(this build reads schema {CHECKPOINT_SCHEMA})"
        )
    if "x" not in arrays or "theta" not in arrays:
        raise CheckpointError(
            f"corrupt checkpoint {os.fspath(path)!r}: factor arrays missing"
        )
    return Checkpoint(
        epoch=int(header["epoch"]),
        x=arrays["x"].astype(np.float32, copy=False),
        theta=arrays["theta"].astype(np.float32, copy=False),
        clock=float(header.get("clock", 0.0)),
        rng_state=header.get("rng_state", {}),
        curve=header.get("curve", []),
        breakdowns=header.get("breakdowns", []),
        health=header.get("health", []),
        extra=header.get("extra", {}),
    )


def list_checkpoints(directory: str | os.PathLike) -> list[str]:
    """All checkpoint paths in ``directory``, sorted by epoch ascending."""
    if not os.path.isdir(directory):
        return []
    found = []
    for name in os.listdir(directory):
        match = _NAME_RE.match(name)
        if match:
            found.append((int(match.group(1)), os.path.join(os.fspath(directory), name)))
    return [path for _, path in sorted(found)]


def sweep_orphan_tmp(directory: str | os.PathLike) -> list[str]:
    """Delete temp files a crash mid-write left behind; returns deletions.

    :func:`repro.resilience.atomicio.atomic_savez` stages archives as
    ``mkstemp``-named ``*.tmp-npz`` files in the destination directory and
    unlinks them on any failure — but a hard kill (SIGKILL, power loss)
    between ``mkstemp`` and ``os.replace`` can orphan one.  Orphans are
    harmless to correctness (``list_checkpoints`` never matches them) but
    leak disk forever, so the manager sweeps them at startup.  Plain
    ``*.tmp`` files are swept too for older layouts.  A file that vanishes
    underneath us (concurrent sweep) is skipped, not an error.
    """
    if not os.path.isdir(directory):
        return []
    deleted = []
    for name in sorted(os.listdir(directory)):
        if not (name.endswith(".tmp-npz") or name.endswith(".tmp")):
            continue
        path = os.path.join(os.fspath(directory), name)
        try:
            os.unlink(path)
        except OSError:
            continue
        deleted.append(path)
    return deleted


def latest_checkpoint(directory: str | os.PathLike) -> str | None:
    """The newest (highest-epoch) checkpoint in ``directory``, if any."""
    paths = list_checkpoints(directory)
    return paths[-1] if paths else None


def prune_checkpoints(
    directory: str | os.PathLike, keep_last: int | None
) -> list[str]:
    """Delete all but the newest ``keep_last`` checkpoints; returns deletions.

    ``keep_last=None`` (the default everywhere) preserves the historical
    keep-everything behaviour.  Deletion ordering is crash-safe by
    construction: victims are removed **oldest first**, so a crash at any
    point during the prune leaves a directory whose newest checkpoint is
    exactly the newest valid checkpoint before the prune — resume never
    loses ground, it only sees extra stale files that the next prune
    sweeps.  A checkpoint that vanishes underneath us (concurrent prune)
    is skipped, not an error.
    """
    if keep_last is None:
        return []
    if keep_last < 1:
        raise CheckpointError("keep_last must be >= 1 (or None to keep all)")
    paths = list_checkpoints(directory)
    victims = paths[:-keep_last] if keep_last < len(paths) else []
    deleted = []
    for path in victims:  # oldest first — newest survives any crash point
        try:
            os.unlink(path)
        except FileNotFoundError:
            continue
        deleted.append(path)
    return deleted


@dataclass
class CheckpointManager:
    """Directory-level checkpoint policy: atomic saves + bounded retention.

    Wraps the module functions with a ``keep_last`` budget so callers
    (trainers, the ``repro train`` CLI) cannot forget to prune: every
    :meth:`save` first lands the new checkpoint atomically, then prunes
    the excess oldest-first.  The order matters — the new file is on
    disk and fsynced before any delete starts, so the invariant "the
    newest valid checkpoint is never removed" holds across a crash at
    any instruction of the save+prune sequence.
    """

    directory: str
    keep_last: int | None = None

    def __post_init__(self) -> None:
        self.directory = os.fspath(self.directory)
        if self.keep_last is not None and self.keep_last < 1:
            raise CheckpointError("keep_last must be >= 1 (or None to keep all)")
        # A crash between mkstemp and os.replace orphans a temp file;
        # sweep them now so a restart-loop cannot leak disk.
        sweep_orphan_tmp(self.directory)

    def save(self, ckpt: Checkpoint) -> str:
        """Write ``ckpt`` atomically, then enforce the retention budget."""
        path = save_checkpoint(self.directory, ckpt)
        prune_checkpoints(self.directory, self.keep_last)
        return path

    def list(self) -> list[str]:
        return list_checkpoints(self.directory)

    def latest(self) -> str | None:
        return latest_checkpoint(self.directory)
