"""Batched truncated conjugate-gradient solver (paper Algorithm 1).

Solves m independent SPD systems ``A_u x_u = b_u`` simultaneously with at
most ``f_s`` iterations each.  Two approximations make it fast:

* **truncation** — ``f_s ≪ f`` iterations give an O(f² f_s) solve instead
  of the exact O(f³); ALS tolerates the residual because its inputs are
  themselves estimates (paper Solution 3);
* **reduced precision** — A may be stored in FP16 and converted on load,
  halving the solver's dominant memory traffic (paper Solution 4).

Note: Algorithm 1 in the paper has a typo at line 5 (``r = r − αp``);
the correct CG recurrence used here and in the released cuMF code is
``r = r − α·(A·p)``.

The systems converge at different rates, so each is frozen individually
once its residual drops below ``tol`` (the mask trick keeps everything
vectorized — no Python-level per-system loop).  Frozen systems also stop
*paying*: their rows are skipped by the FP16 quantization staging when
they are converged on entry, and the per-iteration matvec gathers down to
the active lanes once few enough remain (``compact=``).  Both shortcuts
are return-value bit-identical to the dense sweep — a frozen lane's
scratch never reaches the returned solution, which only ever reads the
per-system best iterate recorded while that lane was active.

The primitive kernels of the hot loop — FP16 staging, the batched
matvec, the lane-wise dots — are pluggable (see
:mod:`repro.core.cg_backends`): ``backend="reference"`` (the kernel
default) is bit-identical to the seed implementation, ``backend="fused"``
is the batched-GEMM fast path the default runtime plan runs.

All large intermediates can be staged through a ``workspace`` arena (see
:mod:`repro.runtime.arena`) and the solution written to a caller-provided
``out`` buffer, making steady-state ALS training allocation-free here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cg_backends import CGKernelBackend, get_backend
from .config import CGConfig, Precision
from .scratch import FRESH

__all__ = ["CGResult", "cg_solve_batched"]


@dataclass(frozen=True)
class CGResult:
    """Solution plus the accounting the cost model needs."""

    x: np.ndarray  # (batch, f) solutions
    iterations: int  # CG iterations actually executed (max over batch)
    matvec_count: int  # total A·p products across the batch
    residual_norms: np.ndarray  # final ‖b - A x‖₂ per system
    fault_lanes: np.ndarray | None = None  # (batch,) bool — lanes frozen by
    # breakdown (p·Ap ≤ 0) or explosion; only with ``lane_report=True``


def cg_solve_batched(
    A: np.ndarray,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    config: CGConfig | None = None,
    precision: Precision = Precision.FP32,
    *,
    workspace=None,
    compact: bool | None = None,
    out: np.ndarray | None = None,
    fault_hook=None,
    lane_report: bool = False,
    backend: str | CGKernelBackend = "reference",
) -> CGResult:
    """Solve the batch of SPD systems ``A[i] @ x[i] = b[i]``.

    Parameters
    ----------
    A:
        ``(batch, f, f)`` symmetric positive-definite matrices.  With
        ``precision=FP16`` they are quantized once up front — emulating
        FP16 storage — and all arithmetic runs in FP32, exactly like the
        convert-on-load kernels of the paper.
    b:
        ``(batch, f)`` right-hand sides.
    x0:
        Warm start; ALS passes the previous epoch's factors, which is why
        a handful of iterations suffice.  Defaults to zero.
    workspace:
        Optional scratch arena (``request(name, shape, dtype)``); with a
        reusing arena the solver allocates no large buffers in steady
        state.  ``None`` allocates fresh scratch (seed behaviour).
    compact:
        Per-iteration frozen-lane compaction of the A·p matvec.
        ``None`` decides per iteration (gather once ≤ a quarter of the
        batch is still active); ``True``/``False`` force it.  Returned
        results are bit-identical in every mode.
    out:
        Optional ``(batch, f)`` float32 buffer to receive the solution;
        the returned ``CGResult.x`` is then ``out`` itself.  Without it,
        a workspace-backed solve copies the solution out of the arena so
        the result can't be clobbered by later requests.
    fault_hook:
        Optional callable invoked once with the *staged* A store (the
        FP16-emulating copy, never the caller's pristine ``A``) before
        any iteration runs — the resilience layer's corruption injection
        point (see :mod:`repro.resilience.faults`).  ``None`` (the
        default) costs nothing.
    lane_report:
        Track which lanes were frozen by CG breakdown (negative
        curvature) or residual explosion and return the boolean mask as
        ``CGResult.fault_lanes``; ``False`` (the default) skips the
        bookkeeping entirely and returns ``fault_lanes=None``.
    backend:
        Kernel backend (a registered name or a
        :class:`~repro.core.cg_backends.CGKernelBackend` instance)
        supplying the staging/matvec/dot primitives.  ``"reference"``
        (the default) is bit-identical to the seed implementation;
        ``"fused"`` is the batched-GEMM fast path, equivalent within the
        derived tolerances of VF006.
    """
    config = config or CGConfig()
    kern = get_backend(backend)
    A = np.asarray(A, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise ValueError(f"A must be (batch, f, f), got {A.shape}")
    batch, f, _ = A.shape
    if b.shape != (batch, f):
        raise ValueError(f"b must be {(batch, f)}, got {b.shape}")
    if out is not None and (out.shape != (batch, f) or out.dtype != np.float32):
        raise ValueError(f"out must be float32 {(batch, f)}, got {out.shape}")
    ws = workspace if workspace is not None else FRESH

    x = ws.request("cg.x", (batch, f))
    r = ws.request("cg.r", (batch, f))
    tmp = ws.request("cg.tmp", (batch, f))
    if x0 is None:
        # Entry-converged systems never run an iteration, so with FP16
        # storage their A rows never get loaded: quantize only the rows
        # that will actually be touched (the skipped rows' solutions are
        # the zero warm start, whose residual b − A·0 = b reads no A).
        entry_rs = kern.dot(b, b)
        entry_active = np.sqrt(entry_rs) >= config.tol
        if precision is Precision.FP16 and not entry_active.all():
            A_store = kern.stage(
                A, ws, precision, rows=np.flatnonzero(entry_active)
            )
        else:
            A_store = kern.stage(A, ws, precision)
        if fault_hook is not None:
            if A_store is A:  # FP32 staging aliases A; corrupt a copy only
                A_store = A.copy()
            fault_hook(A_store)
        x.fill(0.0)
        np.copyto(r, b)
    else:
        if x0.shape != b.shape:
            raise ValueError("x0 must match b's shape")
        A_store = kern.stage(A, ws, precision)
        if fault_hook is not None:
            if A_store is A:
                A_store = A.copy()
            fault_hook(A_store)
        np.copyto(x, np.asarray(x0, dtype=np.float32))
        kern.matvec(A_store, x, tmp)
        np.subtract(b, tmp, out=r)

    p = ws.request("cg.p", (batch, f))
    np.copyto(p, r)
    ap = ws.request("cg.ap", (batch, f))
    rsold = kern.dot(r, r)
    rs_start = np.maximum(rsold.copy(), np.float32(1e-30))
    active = np.sqrt(rsold) >= config.tol
    # Guards must be RELATIVE to each system's own scale: an absolute
    # epsilon silently corrupts alpha/beta on legitimately tiny-scale
    # systems (A ~ 1e-10 I stalls at zero progress) and lets denormal
    # rsold denominators spawn inf/NaN on degenerate A_u.  A system is
    # numerically converged once its residual energy has dropped ~14
    # orders below where it started — the FP32 floor (eps32² ≈ 1.4e-14).
    rs_floor = rs_start * np.float32(4e-14)
    explode_limit = np.minimum(rs_start.astype(np.float64) * 1e6, 3e38).astype(
        np.float32
    )
    one = np.float32(1.0)

    # CG's 2-norm residual may oscillate upward transiently even on SPD
    # systems, so a step-wise guard would be wrong; instead track the
    # best iterate per system and only freeze on outright explosion
    # (quantization-broken definiteness) or non-finite values.
    best_x = ws.request("cg.best_x", (batch, f))
    np.copyto(best_x, x)
    best_rs = rsold.copy()
    fault_mask = np.zeros(batch, dtype=bool) if lane_report else None

    iters = 0
    matvecs = 0
    for _ in range(config.max_iters):
        # rsold is the numerator of alpha and the denominator of beta; once
        # it underflows the relative floor both are meaningless, so freeze.
        active &= rsold > rs_floor
        nact = int(active.sum())
        if nact == 0:
            break
        iters += 1
        matvecs += nact
        # A frozen lane's alpha is 0, so its A·p value is irrelevant to
        # every returned quantity — gather the matvec down to the active
        # lanes once few enough remain to beat the gather/scatter cost.
        use_gather = nact < batch and (
            compact is True or (compact is None and nact * 4 <= batch)
        )
        if use_gather:
            lanes = np.flatnonzero(active)
            Ag = ws.request("cg.cAg", (nact, f, f))
            np.take(A_store, lanes, axis=0, out=Ag, mode="clip")
            pg = ws.request("cg.cpg", (nact, f))
            np.take(p, lanes, axis=0, out=pg, mode="clip")
            apg = ws.request("cg.capg", (nact, f))
            kern.matvec(Ag, pg, apg)
            ap.fill(0.0)
            ap[lanes] = apg
        else:
            kern.matvec(A_store, p, ap)
        denom = kern.dot(p, ap)
        # Negative curvature means quantization (or a caller bug) broke
        # positive-definiteness for that system: freeze it as-is rather
        # than letting the whole batch overflow.
        posdef = denom > 0
        if fault_mask is not None:
            fault_mask |= active & ~posdef
        active &= posdef
        alpha = np.where(
            active, rsold / np.where(active, denom, one), 0.0
        ).astype(np.float32)
        np.multiply(p, alpha[:, None], out=tmp)
        np.add(x, tmp, out=x)
        np.multiply(ap, alpha[:, None], out=tmp)
        np.subtract(r, tmp, out=r)
        rsnew = kern.dot(r, r)
        exploded = active & ~(rsnew <= explode_limit)  # catches NaN too
        if fault_mask is not None:
            fault_mask |= exploded
        active &= ~exploded
        improved = active & (rsnew < best_rs)
        if improved.any():
            np.copyto(best_x, x, where=improved[:, None])
            best_rs = np.where(improved, rsnew, best_rs)
        still = np.sqrt(rsnew) >= config.tol
        grow = active & still & (rsnew > rs_floor)
        beta = np.where(grow, rsnew / np.where(active, rsold, one), 0.0).astype(
            np.float32
        )
        p *= beta[:, None]
        p += r
        rsold = rsnew
        active = active & still

    if out is not None:
        np.copyto(out, best_x)
        solution = out
    elif workspace is not None:
        solution = best_x.copy()  # detach from the arena before returning
    else:
        solution = best_x

    kern.matvec(A_store, solution, tmp)
    np.subtract(b, tmp, out=tmp)
    return CGResult(
        x=solution,
        iterations=iters,
        matvec_count=matvecs,
        residual_norms=np.sqrt(kern.dot(tmp, tmp)),
        fault_lanes=fault_mask,
    )
