"""Model persistence: save/load factor matrices with their config.

A production library must round-trip trained models.  The format is a
single ``.npz``: factor matrices plus a JSON-encoded config header, so a
model can be reloaded for serving without retraining (and without
pickle's code-execution risk).

Writes go through :mod:`repro.resilience.atomicio` — the same plumbing
the training checkpoints use — so a crash mid-save leaves the previous
file intact (temp-file + :func:`os.replace`) and every array carries a
SHA-256 checksum that is verified on load.  Format version 2 adds the
checksums; version-1 files (no checksums) still load.
"""

from __future__ import annotations

import os

import numpy as np

from .core.als import ALSModel
from .core.config import ALSConfig, CGConfig, Precision, ReadScheme, SolverKind
from .resilience.atomicio import atomic_savez, load_archive

__all__ = ["save_model", "load_model", "load_factors"]

#: v1 = plain npz; v2 = atomic write + per-array SHA-256 checksums.
_FORMAT_VERSION = 2
_READABLE_VERSIONS = (1, 2)


def save_model(path: str | os.PathLike, model: ALSModel) -> None:
    """Persist a fitted :class:`ALSModel`'s factors and config atomically."""
    if model.x_ is None or model.theta_ is None:
        raise ValueError("model is not fitted; nothing to save")
    cfg = model.config
    header = {
        "format_version": _FORMAT_VERSION,
        "f": cfg.f,
        "lam": cfg.lam,
        "solver": cfg.solver.value,
        "precision": cfg.precision.value,
        "read_scheme": cfg.read_scheme.value,
        "cg_max_iters": cfg.cg.max_iters,
        "cg_tol": cfg.cg.tol,
        "seed": cfg.seed,
        "device": model.device.name,
    }
    atomic_savez(path, header, {"x": model.x_, "theta": model.theta_})


def load_factors(
    path: str | os.PathLike,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Load just the factor matrices (plus the raw header) from a model file.

    The serving layer's hot-reload path wants the arrays without paying
    for :class:`ALSModel` construction (and without importing the solver
    stack into the request path).  Performs the same integrity checks as
    :func:`load_model` — checksums, format version, shape agreement —
    and raises the same documented ``ValueError`` messages, so a corrupt
    artifact is rejected *before* a swap is attempted.
    """
    try:
        header, arrays = load_archive(path)
    except ValueError as exc:
        raise ValueError(f"corrupt model file: {exc}") from exc
    if header.get("format_version") not in _READABLE_VERSIONS:
        raise ValueError(
            f"unsupported model format {header.get('format_version')!r}"
        )
    if "x" not in arrays or "theta" not in arrays:
        raise ValueError("corrupt model file: factor matrices missing")
    x = arrays["x"].astype(np.float32, copy=False)
    theta = arrays["theta"].astype(np.float32, copy=False)
    if x.ndim != 2 or theta.ndim != 2 or x.shape[1] != theta.shape[1]:
        raise ValueError("corrupt model file: factor shapes disagree")
    if x.shape[1] != header["f"]:
        raise ValueError("corrupt model file: f does not match factors")
    return x, theta, header


def load_model(path: str | os.PathLike) -> ALSModel:
    """Reload a model saved by :func:`save_model`.

    The returned model is ready for ``predict``/``score``; its engine
    ledger starts empty (training history is not persisted).  Raises
    ``ValueError`` with a ``corrupt``/``truncated`` message when the file
    is unreadable, missing members, or fails checksum verification, and
    an ``unsupported model format`` error for unknown versions.
    """
    x, theta, header = load_factors(path)
    cfg = ALSConfig(
        f=header["f"],
        lam=header["lam"],
        solver=SolverKind(header["solver"]),
        precision=Precision(header["precision"]),
        read_scheme=ReadScheme(header["read_scheme"]),
        cg=CGConfig(max_iters=header["cg_max_iters"], tol=header["cg_tol"]),
        seed=header["seed"],
    )
    model = ALSModel(cfg)
    model.x_ = x
    model.theta_ = theta
    return model
