"""Pluggable kernel backends for the batched CG solver.

The CG hot loop (see :mod:`repro.core.cg`) spends essentially all of its
time in three primitive kernels: staging the FP16-emulated copy of the
batched A matrices, the batched matvec ``A_u @ p_u`` over every lane,
and the lane-wise dot products feeding the alpha/beta recurrences.  This
module factors those primitives behind the :class:`CGKernelBackend`
protocol so the solver's *algorithm* (freezing, best-iterate tracking,
compaction, guards) is written once while the *kernels* stay swappable:

``reference``
    The frozen oracle: exactly the seed implementation's einsum matvec
    and clip→f16→f32 staging, call for call.  It is the kernel-level
    default (``cg_solve_batched``) and the backend of
    :data:`~repro.runtime.plan.ORACLE_PLAN`, so direct kernel callers
    and every seed bit-identity test see unchanged bits.

``fused``
    The fast path and the default :class:`~repro.runtime.plan.RuntimePlan`
    backend, in the mold of cuMF_ALS's fused batched solvers: the
    per-iteration matvec is one ``(lanes, 1, f) @ (lanes, f, f)`` batched
    GEMM (``np.matmul`` over the contiguous lane-major store — legitimate
    because CG's input contract already requires symmetric A, and faster
    than the einsum inner loop), and FP16 staging rounds in the float32
    bit domain instead of materializing a binary16 array, skipping the
    slow f32→f16→f32 cast round-trip entirely.

Backend contract (what :mod:`tests.core.test_cg_backends` enforces for
every registered backend): identical Krylov residual behaviour, the
truncated early-stop and frozen-lane semantics of the solver, FP16
quantize-skip for entry-frozen lanes, safety under ``out=`` aliasing and
the arena sanitizer, and — within each backend — bit-identical results
whatever the compaction mode.  Across backends the results agree to
*derived* tolerances (VF006): the fused GEMM reorders float sums and its
FP16 rounding resolves exact ties away from round-to-nearest-even, so
fused-vs-reference differences are bounded by the same κ-scaled floors
the other differential oracles use, not by bit equality.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from .config import Precision
from .precision import FP16_MAX, quantize

__all__ = [
    "CGKernelBackend",
    "ReferenceBackend",
    "FusedBackend",
    "CG_BACKENDS",
    "register_backend",
    "get_backend",
    "backend_names",
]

#: Bit pattern of one float32: 13 low mantissa bits are dropped by a
#: round-trip through binary16 (24 -> 11 significand bits).
_F16_DROPPED_BITS = 13
_F16_ROUND_BIAS = np.uint32(1 << (_F16_DROPPED_BITS - 1))  # 0x1000
_F16_GRID_MASK = np.uint32(0xFFFFFFFF ^ ((1 << _F16_DROPPED_BITS) - 1))


@runtime_checkable
class CGKernelBackend(Protocol):
    """The three primitive kernels a CG backend must provide.

    Implementations must be allocation-free given a reusing workspace:
    every large intermediate goes through ``ws.request`` and every array
    op writes into caller-provided buffers (``out=``), which is what
    keeps the solver's steady state at zero arena allocations.
    """

    name: str

    def stage(self, A, ws, precision, rows=None) -> np.ndarray:
        """Return the solver's working copy of ``A`` at ``precision``.

        FP32 may alias ``A`` (no copy); FP16 must emulate one round-trip
        through binary16 storage.  With ``rows``, only those lanes are
        staged and every other lane of the store is zeroed (the
        entry-frozen quantize skip — see :mod:`repro.core.cg`).
        """

    def matvec(self, A_store, p, out) -> None:
        """Batched ``out[i] = A_store[i] @ p[i]`` over all lanes."""

    def dot(self, a, b) -> np.ndarray:
        """Lane-wise dot products ``(batch,) <- sum_f a[i]·b[i]``."""


class ReferenceBackend:
    """The seed implementation's kernels, preserved bit for bit."""

    name = "reference"

    def stage(self, A, ws, precision, rows=None) -> np.ndarray:
        if precision is not Precision.FP16:
            return quantize(A, precision)
        batch, f, _ = A.shape
        store = ws.request("cg.A_store", (batch, f, f))
        if rows is None:
            np.clip(A, -FP16_MAX, FP16_MAX, out=store)
            halves = ws.request("cg.A16", (batch, f, f), np.float16)
            np.copyto(halves, store, casting="same_kind")
            np.copyto(store, halves)
            return store
        store.fill(0.0)
        if rows.size:
            gathered = ws.request("cg.A_gather", (rows.size, f, f))
            np.take(A, rows, axis=0, out=gathered, mode="clip")
            np.clip(gathered, -FP16_MAX, FP16_MAX, out=gathered)
            halves = ws.request("cg.A16", (rows.size, f, f), np.float16)
            np.copyto(halves, gathered, casting="same_kind")
            np.copyto(gathered, halves)
            store[rows] = gathered
        return store

    def matvec(self, A_store, p, out) -> None:
        np.einsum("bfg,bg->bf", A_store, p, out=out)

    def dot(self, a, b) -> np.ndarray:
        return np.einsum("bf,bf->b", a, b)


def _round_f16_grid_inplace(store: np.ndarray) -> None:
    """Round clipped float32 values onto the binary16 grid, in place.

    Works in the float32 *bit* domain: adding half of the dropped-bit
    range and masking the low 13 mantissa bits rounds the significand to
    binary16's 11 bits, with mantissa carries propagating into the
    exponent exactly as IEEE rounding does.  Two integer passes replace
    the f32→f16→f32 cast pair, which NumPy executes scalar-slow on hosts
    without native half conversions — this is where the fused backend's
    staging speedup comes from.

    Deviations from the reference round-trip, both within the eps16
    noise floor the FP16 oracles derive (VF003/VF006): exact ties round
    half-up in magnitude instead of to-even (one binary16 ulp, on a
    measure-zero set of inputs), and magnitudes in binary16's subnormal
    range (< 2^-14) keep full relative precision instead of flushing to
    the 2^-24 absolute grid — strictly *more* accurate than binary16.
    Inputs must already be clipped to ±FP16_MAX: the caller's clip both
    saturates overflow (including ±inf) the way the reference path does
    and guarantees the bias add cannot carry past the exponent field.
    NaN payloads keep their quiet bit (mantissa bit 22 survives the
    mask), so NaN stays NaN.
    """
    bits = store.view(np.uint32)
    np.add(bits, _F16_ROUND_BIAS, out=bits)
    np.bitwise_and(bits, _F16_GRID_MASK, out=bits)


class FusedBackend:
    """Batched-GEMM matvec + bit-domain FP16 staging (the fast path)."""

    name = "fused"

    def stage(self, A, ws, precision, rows=None) -> np.ndarray:
        if precision is not Precision.FP16:
            return quantize(A, precision)
        batch, f, _ = A.shape
        store = ws.request("cg.A_store", (batch, f, f))
        if rows is None:
            np.clip(A, -FP16_MAX, FP16_MAX, out=store)
            _round_f16_grid_inplace(store)
            return store
        store.fill(0.0)
        if rows.size:
            gathered = ws.request("cg.A_gather", (rows.size, f, f))
            np.take(A, rows, axis=0, out=gathered, mode="clip")
            np.clip(gathered, -FP16_MAX, FP16_MAX, out=gathered)
            _round_f16_grid_inplace(gathered)
            store[rows] = gathered
        return store

    def matvec(self, A_store, p, out) -> None:
        # One batched GEMM in the (lanes, 1, f) @ (lanes, f, f) layout —
        # the row-vector side measures faster than (lanes, f, f) @
        # (lanes, f, 1) under BLAS.  Mathematically this computes
        # ``pᵀA = (Aᵀp)ᵀ``, which is the matvec because the solver's
        # input contract requires symmetric A (CG is undefined
        # otherwise); per-lane results are independent of the batch
        # size, so compaction gathers stay bit-identical to the dense
        # sweep, same as the reference backend.
        batch, f = p.shape
        np.matmul(
            p.reshape(batch, 1, f), A_store, out=out.reshape(batch, 1, f)
        )

    def dot(self, a, b) -> np.ndarray:
        return np.einsum("bf,bf->b", a, b)


#: Registry of constructed backends, keyed by name.  The plan layer
#: mirrors these names as plain strings (``repro.runtime.plan``
#: deliberately imports nothing from ``core``); a test pins the two in
#: sync.
CG_BACKENDS: dict[str, CGKernelBackend] = {}


def register_backend(backend: CGKernelBackend) -> CGKernelBackend:
    """Add ``backend`` to the registry (name collisions are an error)."""
    name = getattr(backend, "name", "")
    if not name or not isinstance(name, str):
        raise ValueError("backend must carry a non-empty string .name")
    if name in CG_BACKENDS:
        raise ValueError(f"CG backend {name!r} is already registered")
    CG_BACKENDS[name] = backend
    return backend


def get_backend(backend: str | CGKernelBackend) -> CGKernelBackend:
    """Resolve a backend name (or pass an instance through)."""
    if isinstance(backend, str):
        try:
            return CG_BACKENDS[backend]
        except KeyError:
            raise ValueError(
                f"unknown CG backend {backend!r}; "
                f"registered: {sorted(CG_BACKENDS)}"
            ) from None
    if not isinstance(backend, CGKernelBackend):
        raise TypeError(
            "backend must be a registered name or implement CGKernelBackend"
        )
    return backend


def backend_names() -> tuple[str, ...]:
    """Names of every registered backend, registration order."""
    return tuple(CG_BACKENDS)


register_backend(ReferenceBackend())
register_backend(FusedBackend())
