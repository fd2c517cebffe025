"""The ``get_hermitian`` and ``get_bias`` kernels (paper §III).

For every user u these form the normal equations of the row subproblem:

    A_u = Σ_{r_uv ≠ 0} θ_v θ_vᵀ + n_xu · λ I          (get_hermitian)
    b_u = Θᵀ R_{u*}ᵀ                                   (get_bias)

Numerically this is the library's hottest routine, so it is implemented
the way the HPC guides prescribe: fully vectorized, chunked to bound peak
memory, using contiguous segment reductions (``np.add.reduceat`` over CSR
row boundaries) rather than per-row Python loops.

Two host kernels are available (``method=``):

* ``"reduceat"`` — the reference: materialize the per-entry outer
  products (O(nnz·f²) scratch) and segment-reduce over CSR boundaries.
  Bit-exact across any chunking, sharding or workspace reuse, because a
  row's sum only ever sees its own entries in CSR order.
* ``"grouped"`` — bucket rows by observation count and compute each
  bucket's Gram matrices with one batched BLAS ``matmul`` (GᵀG), the
  host analogue of the paper's register tiling: regularize the irregular
  workload so the dense engine runs at full rate.  Same math, different
  summation order — results agree with ``reduceat`` to float32 rounding
  but are not bit-identical, which is why it is opt-in.

Both kernels stage their large intermediates through a ``workspace``
(see :mod:`repro.runtime.arena`) and can write into caller-provided
``out`` arrays, so steady-state training allocates nothing big.

The regularizer follows the paper's objective (1), which weights λ by the
number of observations ``n_xu`` (the ALS-WR convention of Zhou et al.,
which all the compared systems use on Netflix).
"""

from __future__ import annotations

import warnings

import numpy as np

from ..data.sparse import RatingMatrix
from .scratch import FRESH, check_indices

__all__ = [
    "hermitian_and_bias",
    "hermitian_rows",
    "HERMITIAN_CHUNK_ELEMS",
    "HERMITIAN_METHODS",
]

#: Upper bound on per-chunk scratch elements (float32): nnz*f*f outer
#: products for ``reduceat``, ~nnz*f staged gathers for ``grouped``.  64M
#: elements = 256 MB of outer-product scratch, the chunking knob that
#: keeps peak memory flat regardless of dataset size.
HERMITIAN_CHUNK_ELEMS = 64_000_000

#: Valid ``method=`` values (mirrored by ``repro.runtime.plan``).
HERMITIAN_METHODS = ("reduceat", "grouped")

#: One-shot latch for the oversized-row warning; module-level so a long
#: training run warns once, not once per epoch.
_OVERSIZED_ROW_WARNED = False


def _reset_oversized_row_warning() -> None:
    """Re-arm the oversized-row warning (test hook)."""
    global _OVERSIZED_ROW_WARNED
    _OVERSIZED_ROW_WARNED = False


def _warn_oversized_row(row_nnz: int, max_nnz: int) -> None:
    global _OVERSIZED_ROW_WARNED
    if _OVERSIZED_ROW_WARNED:
        return
    _OVERSIZED_ROW_WARNED = True
    warnings.warn(
        f"a single row has {row_nnz} observations but the chunk budget "
        f"only covers {max_nnz}; rows are never split, so this chunk "
        f"exceeds the scratch budget by ~{row_nnz / max(max_nnz, 1):.1f}x "
        "— raise chunk_elems (or accept the one-time overshoot)",
        RuntimeWarning,
        stacklevel=4,
    )


def _row_chunks(row_ptr: np.ndarray, elems_per_nnz: int, budget_elems: int):
    """Yield (row_start, row_end) slices whose nnz·elems_per_nnz fits the budget.

    Rows are never split across chunks — per-row results are therefore
    independent of the chunking, which is what makes chunk size a pure
    performance knob (and sharded execution bit-deterministic).  A single
    row whose footprint alone exceeds the budget is clamped to its own
    chunk and warned about once per process.
    """
    m = len(row_ptr) - 1
    max_nnz = max(1, budget_elems // max(1, elems_per_nnz))
    start = 0
    while start < m:
        end = int(
            np.searchsorted(row_ptr, row_ptr[start] + max_nnz, side="right") - 1
        )
        if end <= start:
            row_nnz = int(row_ptr[start + 1] - row_ptr[start])
            if row_nnz > max_nnz:
                _warn_oversized_row(row_nnz, max_nnz)
            end = start + 1
        end = min(end, m)
        yield start, end
        start = end


def _accumulate_reduceat(
    A: np.ndarray,
    b: np.ndarray,
    ratings,
    theta: np.ndarray,
    ptr: np.ndarray,
    counts: np.ndarray,
    entry_weights,
    bias_values,
    chunk_elems: int,
    ws,
) -> None:
    """Reference kernel: outer products + ``np.add.reduceat`` segments."""
    f = theta.shape[1]
    for s, e in _row_chunks(ptr, f * f, chunk_elems):
        lo, hi = int(ptr[s]), int(ptr[e])
        if hi == lo:
            continue
        k = hi - lo
        idx = ratings.col_idx[lo:hi]
        G = ws.request("hermitian.gather", (k, f))
        np.take(theta, idx, axis=0, out=G, mode="clip")
        vals = (
            ratings.row_val[lo:hi]
            if bias_values is None
            else np.asarray(bias_values[lo:hi], dtype=np.float32)
        )
        # Outer products summed per row: reduceat over CSR boundaries.
        O = ws.request("hermitian.outer", (k, f, f))
        if entry_weights is None:
            np.einsum("nf,ng->nfg", G, G, out=O)
        else:
            w = np.asarray(entry_weights[lo:hi], dtype=np.float32)
            np.einsum("n,nf,ng->nfg", w, G, G, out=O)
        Gv = ws.request("hermitian.gv", (k, f))
        np.multiply(G, vals[:, None], out=Gv)
        seg = (ptr[s:e] - lo).astype(np.int64)
        nonempty = counts[s:e] > 0
        # reduceat treats repeated boundaries as single-element picks, so
        # compute on deduplicated boundaries then scatter to nonempty rows.
        if nonempty.all():
            rA = ws.request("hermitian.rowsA", (e - s, f, f))
            np.add.reduceat(O, seg, axis=0, out=rA)
            A[s:e] += rA
            rb = ws.request("hermitian.rowsb", (e - s, f))
            np.add.reduceat(Gv, seg, axis=0, out=rb)
            b[s:e] += rb
        else:
            live = np.flatnonzero(nonempty)
            if live.size:
                boundaries = seg[live]
                A[s + live] += np.add.reduceat(O, boundaries, axis=0)
                b[s + live] += np.add.reduceat(Gv, boundaries, axis=0)


def _accumulate_grouped(
    A: np.ndarray,
    b: np.ndarray,
    ratings,
    theta: np.ndarray,
    ptr: np.ndarray,
    counts: np.ndarray,
    entry_weights,
    bias_values,
    chunk_elems: int,
    ws,
) -> None:
    """Bucketed kernel: rows grouped by count, one batched matmul each.

    Rows with c observations stack their gathered θ rows into a regular
    (rows, c, f) tensor whose Gram matrices GᵀG come from a single BLAS
    batched matmul — trading the O(nnz·f²) materialized outer products
    for O(nnz·f) staging plus dense FLOPs, exactly the irregular→regular
    transform the paper's register tiling performs on the GPU.

    Per chunk, θ is gathered once, straight into bucket order (rows
    sorted by count, each row's entries in CSR order), so every bucket
    is a contiguous slice of it.  Each bucket's products land in scratch
    sized to the largest bucket and are scattered to their rows; every
    row with observations is written, so ``A``/``b`` need no zeroing
    except at empty rows (the caller's job).  The bucket order depends
    only on the CSR structure.
    """
    f = theta.shape[1]
    for s, e in _row_chunks(ptr, f, chunk_elems):
        lo, hi = int(ptr[s]), int(ptr[e])
        if hi == lo:
            continue
        k = hi - lo
        c = counts[s:e]
        order = np.argsort(c, kind="stable")
        sorted_c = c[order]
        uniq, first = np.unique(sorted_c, return_index=True)
        bounds = np.append(first, order.size)
        # Entry permutation into bucket order: steps of one, a jump at each
        # row's first entry, then a running sum.
        live = sorted_c > 0
        starts = (ptr[s:e] - lo)[order][live]
        lens = sorted_c[live]
        jumps = starts.astype(np.int64)
        jumps[1:] -= starts[:-1] + lens[:-1] - 1
        steps = ws.request("hermitian.grp.steps", (k,), np.int64)
        steps.fill(1)
        steps[np.cumsum(lens) - lens] = jumps
        perm = ws.request("hermitian.grp.perm", (k,), np.int64)
        np.cumsum(steps, out=perm)
        cols = ws.request("hermitian.grp.cols", (k,), ratings.col_idx.dtype)
        np.take(ratings.col_idx[lo:hi], perm, out=cols, mode="clip")
        G = ws.request("hermitian.gather", (k, f))
        np.take(theta, cols, axis=0, out=G, mode="clip")
        V = ws.request("hermitian.grp.v", (k,))
        vals = ratings.row_val if bias_values is None else bias_values
        np.take(np.asarray(vals[lo:hi], dtype=np.float32), perm, out=V, mode="clip")
        W = None
        if entry_weights is not None:
            W = ws.request("hermitian.grp.w", (k,))
            np.take(
                np.asarray(entry_weights[lo:hi], dtype=np.float32), perm,
                out=W, mode="clip",
            )
        rows_per = np.diff(bounds)
        kb_max = int(rows_per[uniq > 0].max())
        Ab_all = ws.request("hermitian.grp.A", (kb_max, f, f))
        Bb_all = ws.request("hermitian.grp.b", (kb_max, 1, f))
        if W is not None:
            Gw_all = ws.request(
                "hermitian.grp.gw", (int((rows_per * uniq).max()), f)
            )
        at = 0
        for ui, cnt64 in enumerate(uniq):
            cnt = int(cnt64)
            if cnt == 0:
                continue  # empty rows keep A_u = 0; λI is added later
            kb = int(rows_per[ui])
            span = slice(at, at + kb * cnt)
            at = span.stop
            Gb = G[span].reshape(kb, cnt, f)
            if W is None:
                Gw = Gb
            else:
                Gw = Gw_all[: kb * cnt].reshape(kb, cnt, f)
                np.multiply(Gb, W[span].reshape(kb, cnt, 1), out=Gw)
            Ab = Ab_all[:kb]
            np.matmul(Gb.transpose(0, 2, 1), Gw, out=Ab)
            Bb = Bb_all[:kb]
            np.matmul(V[span].reshape(kb, 1, cnt), Gb, out=Bb)
            tgt = s + order[bounds[ui] : bounds[ui + 1]]
            # Each row lives in exactly one chunk and one bucket, so a
            # straight scatter-assign is a complete write.
            A[tgt] = Ab
            b[tgt] = Bb.reshape(kb, f)


def hermitian_rows(
    ratings: RatingMatrix,
    theta: np.ndarray,
    lam: float,
    *,
    rows: slice | None = None,
    chunk_elems: int = HERMITIAN_CHUNK_ELEMS,
    entry_weights: np.ndarray | None = None,
    bias_values: np.ndarray | None = None,
    count_weighted_reg: bool = True,
    method: str = "reduceat",
    workspace=None,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Compute (A, b) for a contiguous range of rows.

    Parameters
    ----------
    ratings:
        The rating matrix in the orientation being updated (pass
        ``ratings.transpose()`` to form the item-side systems).
    theta:
        The fixed factor matrix, shape ``(n, f)``.
    lam:
        Regularization λ; scaled per row by its observation count when
        ``count_weighted_reg`` (the explicit ALS-WR convention), plain
        otherwise (the implicit-feedback convention).
    rows:
        Optional contiguous row range (for multi-GPU partitioning).
    entry_weights:
        Optional per-nnz weights w_i so that A_u = Σ w_i θθᵀ — the hook
        implicit ALS uses for its confidence term (c_uv − 1) = α·r_uv.
    bias_values:
        Optional per-nnz values replacing the ratings in b_u — implicit
        ALS passes the confidences c_uv since its preferences are all 1.
    method:
        ``"reduceat"`` (bit-exact reference) or ``"grouped"`` (bucketed
        batched-matmul; float32-close, much faster on BLAS hosts).
    workspace:
        Optional scratch arena with ``request(name, shape, dtype)``;
        passing :class:`repro.runtime.arena.Workspace` makes the kernel
        allocation-free in steady state.  ``None`` allocates per chunk.
    out:
        Optional preallocated ``(A, b)`` float32 pair to fill in place;
        returned for convenience.

    Returns
    -------
    A : float32[(rows), f, f], b : float32[(rows), f]
    """
    theta = np.ascontiguousarray(theta, dtype=np.float32)
    n, f = theta.shape
    if n != ratings.n:
        raise ValueError(f"theta has {n} rows but ratings has {ratings.n} columns")
    if lam < 0:
        raise ValueError("lam must be non-negative")
    if chunk_elems < 1:
        raise ValueError("chunk_elems must be positive")
    if method not in HERMITIAN_METHODS:
        raise ValueError(f"method must be one of {HERMITIAN_METHODS}, got {method!r}")
    row_lo, row_hi = (rows.start or 0, rows.stop) if rows else (0, ratings.m)
    if not 0 <= row_lo <= row_hi <= ratings.m:
        raise ValueError("row range outside matrix")
    if entry_weights is not None and entry_weights.shape != ratings.row_val.shape:
        raise ValueError("entry_weights must have one weight per nnz")
    if bias_values is not None and bias_values.shape != ratings.row_val.shape:
        raise ValueError("bias_values must have one value per nnz")

    num = row_hi - row_lo
    if out is not None:
        A, b = out
        if A.shape != (num, f, f) or b.shape != (num, f):
            raise ValueError(
                f"out buffers must be shaped {(num, f, f)} and {(num, f)}, "
                f"got {A.shape} and {b.shape}"
            )
        if A.dtype != np.float32 or b.dtype != np.float32:
            raise ValueError("out buffers must be float32")
    else:
        A = np.zeros((num, f, f), dtype=np.float32)
        b = np.zeros((num, f), dtype=np.float32)
    ws = workspace if workspace is not None else FRESH
    ptr = ratings.row_ptr[row_lo : row_hi + 1]
    counts = np.diff(ptr)
    check_indices(ratings.col_idx[ptr[0] : ptr[-1]], n, "column")
    if out is not None:
        if method == "grouped":
            # grouped writes every row with observations; zero the rest
            empty = np.flatnonzero(counts == 0)
            A[empty] = 0.0
            b[empty] = 0.0
        else:
            A.fill(0.0)
            b.fill(0.0)

    accumulate = _accumulate_grouped if method == "grouped" else _accumulate_reduceat
    accumulate(
        A, b, ratings, theta, ptr, counts, entry_weights, bias_values,
        chunk_elems, ws,
    )

    # Per-row regularization: A_u += n_xu * λ * I (ALS-WR) or plain λ I.
    # Rows with no observations get λI so the system stays well-posed.
    if count_weighted_reg:
        reg = np.maximum(counts, 1).astype(np.float32) * np.float32(lam)
    else:
        reg = np.full(num, lam, dtype=np.float32)
    diag = np.einsum("rff->rf", A)  # writable view of the diagonals
    diag += reg[:, None]
    return A, b


def hermitian_and_bias(
    ratings: RatingMatrix,
    theta: np.ndarray,
    lam: float,
    *,
    chunk_elems: int = HERMITIAN_CHUNK_ELEMS,
    method: str = "reduceat",
    workspace=None,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(A, b) for every row of ``ratings`` — the full update-X input."""
    return hermitian_rows(
        ratings,
        theta,
        lam,
        chunk_elems=chunk_elems,
        method=method,
        workspace=workspace,
        out=out,
    )
