"""Numeric guards: sentinels plus the graceful-degradation ladder.

The paper's approximations shave numerical headroom on purpose —
truncated CG tolerates residuals, FP16 storage tolerates rounding — so
the guard layer's job is to keep *approximate* from decaying into
*broken*.  Three sentinels watch the half-step pipeline:

1. **input sentinel** — the normal equations (A_u, b_u) leaving
   ``hermitian_rows`` must be finite; non-finite rows can only come from
   non-finite ratings or factors and no amount of precision escalation
   repairs them, so they fail fast with row provenance;
2. **solver sentinel** — after ``cg_solve_batched``, lanes that exploded,
   hit negative curvature (p·Ap ≤ 0: quantization or corruption broke
   positive-definiteness) or produced non-finite values enter the
   degradation ladder below;
3. **objective sentinel** — the trainers watch their epoch objective and
   escalate their own config (FP16→FP32, then CG→LU) when it diverges
   (see ``ALSModel.fit``).

The ladder for a quarantined solver lane:

``quarantine`` → ``re-solve at FP32 from the pristine A`` (repairs
corrupted-store faults and FP16-overflow lanes) → ``CG→LU fallback``
(repairs CG breakdown on legitimately ill-conditioned systems) →
``raise`` a structured :class:`NumericalFault` naming the surviving
lanes.  Factors written back to the caller are therefore always finite —
the run either recovers or fails loudly with provenance, never silently
emits NaN.

Everything here is pay-per-use: with no :class:`GuardPolicy` installed
the hot path runs the exact pre-resilience code (the bench gate holds
the zero-overhead property).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.cg import cg_solve_batched
from ..core.config import CGConfig, Precision
from ..core.direct import lu_solve_batched
from .faults import NumericalFault

__all__ = [
    "GuardPolicy",
    "NumericalFault",
    "check_factors_finite",
    "check_normal_equations",
    "fold_ladder_events",
    "guarded_solve",
]

#: The ladder's event kinds, in the order one guarded solve records them.
_LADDER_KINDS = (
    "guard.quarantine",
    "guard.repair-fp32",
    "guard.repair-lu",
    "guard.unrepairable",
)


@dataclass(frozen=True)
class GuardPolicy:
    """Which sentinels run and how far the degradation ladder goes.

    Parameters
    ----------
    check_inputs:
        Verify finiteness of (A_u, b_u) as they leave ``hermitian_rows``.
    resolve_breakdown:
        Treat CG breakdown lanes (negative curvature / explosion freezes)
        as quarantined, not just non-finite outputs.
    escalate_fp32:
        Ladder rung: re-solve quarantined lanes at FP32 from pristine A.
    lu_fallback:
        Ladder rung: exact LU for lanes CG could not repair.
    divergence_factor:
        Objective sentinel: an epoch objective worse than
        ``divergence_factor ×`` the best seen so far counts as divergence
        and triggers the trainer's own escalation ladder.
    """

    check_inputs: bool = True
    resolve_breakdown: bool = True
    escalate_fp32: bool = True
    lu_fallback: bool = True
    divergence_factor: float = 10.0

    def __post_init__(self) -> None:
        if self.divergence_factor <= 1.0:
            raise ValueError("divergence_factor must be > 1")

    # The executor and trainers sit *upstream* of this module in the
    # import graph (guards imports repro.core), so they reach the guard
    # machinery through the policy instance instead of importing it.

    def check_normal(self, A, b, *, row_offset: int = 0) -> None:
        """Method form of :func:`check_normal_equations`."""
        check_normal_equations(A, b, row_offset=row_offset)

    def check_factors(self, factors, *, stage: str, row_offset: int = 0) -> None:
        """Method form of :func:`check_factors_finite`."""
        check_factors_finite(factors, stage=stage, row_offset=row_offset)

    def solve(self, A, b, warm, out, **kwargs) -> tuple[int, int]:
        """Method form of :func:`guarded_solve` (``policy=`` bound)."""
        return guarded_solve(A, b, warm, out, policy=self, **kwargs)

    def fold_events(self, events: list[dict]) -> list[dict]:
        """Method form of :func:`fold_ladder_events`."""
        return fold_ladder_events(events)


def _lane_list(row_offset: int, local: np.ndarray) -> tuple[int, ...]:
    return tuple(int(row_offset + i) for i in local)


def _quarantine_detail(lanes: int) -> str:
    return f"{lanes} lane(s) quarantined for re-solve"


def fold_ladder_events(events: list[dict]) -> list[dict]:
    """Fold the ladder events of consecutive row-block solves into one.

    A shard solved in row blocks runs :func:`guarded_solve` once per
    block.  Every ladder decision is per lane, so the shard's ladder is
    the blocks' ladders side by side: one event per kind, in ladder
    order, whose ``lanes`` are the blocks' lanes in block order — the
    events one solve over all of the shard's rows records.
    """
    folded: dict[str, dict] = {}
    for event in events:
        merged = folded.setdefault(event["kind"], {**event, "lanes": []})
        merged["lanes"] += event["lanes"]
    quarantine = folded.get("guard.quarantine")
    if quarantine is not None:
        quarantine["detail"] = _quarantine_detail(len(quarantine["lanes"]))
    return [folded[kind] for kind in _LADDER_KINDS if kind in folded]


def check_normal_equations(
    A: np.ndarray, b: np.ndarray, *, row_offset: int = 0
) -> None:
    """Input sentinel: raise :class:`NumericalFault` on non-finite rows."""
    bad = ~np.isfinite(A).all(axis=(1, 2)) | ~np.isfinite(b).all(axis=1)
    if bad.any():
        lanes = _lane_list(row_offset, np.flatnonzero(bad))
        raise NumericalFault(
            f"normal equations contain non-finite values in {len(lanes)} "
            f"row(s) {lanes[:8]}{'...' if len(lanes) > 8 else ''}; "
            "check the ratings and fixed factors feeding this half-step",
            lanes=lanes,
            stage="hermitian",
        )


def check_factors_finite(
    factors: np.ndarray, *, stage: str, row_offset: int = 0
) -> None:
    """Output sentinel: raise on non-finite factor rows, with provenance."""
    flat = factors.reshape(factors.shape[0], -1)
    bad = ~np.isfinite(flat).all(axis=1)
    if bad.any():
        lanes = _lane_list(row_offset, np.flatnonzero(bad))
        raise NumericalFault(
            f"{stage}: {len(lanes)} factor row(s) are non-finite "
            f"{lanes[:8]}{'...' if len(lanes) > 8 else ''}",
            lanes=lanes,
            stage=stage,
        )


def guarded_solve(
    A: np.ndarray,
    b: np.ndarray,
    warm: np.ndarray | None,
    out: np.ndarray,
    *,
    policy: GuardPolicy,
    cg_config: CGConfig,
    precision: Precision,
    workspace=None,
    compact: bool | None = None,
    backend: str = "reference",
    fault_hook=None,
    row_offset: int = 0,
    step: int = -1,
    shard: int = -1,
    attempt: int = 0,
    events: list | None = None,
) -> tuple[int, int]:
    """CG with the degradation ladder; writes ``out`` in place.

    Returns ``(iterations, matvec_count)`` including repair work, so the
    simulated cost model prices recoveries too.  Raises
    :class:`NumericalFault` (global lane provenance) only after the whole
    ladder failed; on return every row of ``out`` is finite.
    """
    events = events if events is not None else []
    # Corrupted lanes legitimately produce NaN/inf mid-iteration before
    # the lane freezes; the ladder below handles them, so numpy's
    # warnings about it are pure noise.
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        result = cg_solve_batched(
            A,
            b,
            x0=warm,
            config=cg_config,
            precision=precision,
            workspace=workspace,
            compact=compact,
            backend=backend,
            out=out,
            fault_hook=fault_hook,
            lane_report=True,
        )
    iterations = result.iterations
    matvecs = result.matvec_count

    bad = ~np.isfinite(out).all(axis=1) | ~np.isfinite(result.residual_norms)
    if policy.resolve_breakdown and result.fault_lanes is not None:
        bad |= result.fault_lanes
    if not bad.any():
        return iterations, matvecs

    lanes = np.flatnonzero(bad)
    events.append(
        {
            "kind": "guard.quarantine",
            "step": step,
            "shard": shard,
            "attempt": attempt,
            "lanes": [int(row_offset + i) for i in lanes],
            "detail": _quarantine_detail(lanes.size),
        }
    )

    if lanes.size and policy.escalate_fp32:
        # Rungs 1+2: quarantine and re-solve from the *pristine* inputs at
        # FP32.  Per-lane CG arithmetic is batch-independent, so lanes that
        # were healthy all along are untouched and repaired lanes match
        # what an uncorrupted solve would have produced.
        sub = cg_solve_batched(
            np.ascontiguousarray(A[lanes]),
            np.ascontiguousarray(b[lanes]),
            x0=None if warm is None else np.ascontiguousarray(warm[lanes]),
            config=cg_config,
            precision=Precision.FP32,
            backend=backend,
            lane_report=True,
        )
        iterations = max(iterations, sub.iterations)
        matvecs += sub.matvec_count
        still = ~np.isfinite(sub.x).all(axis=1) | ~np.isfinite(sub.residual_norms)
        if policy.resolve_breakdown and sub.fault_lanes is not None:
            still |= sub.fault_lanes
        repaired = lanes[~still]
        if repaired.size:
            out[repaired] = sub.x[~still]
            events.append(
                {
                    "kind": "guard.repair-fp32",
                    "step": step,
                    "shard": shard,
                    "attempt": attempt,
                    "lanes": [int(row_offset + i) for i in repaired],
                }
            )
        lanes = lanes[still]

    if lanes.size and policy.lu_fallback:
        # Rung 3: exact LU on the surviving lanes.  LU has no truncation
        # or curvature assumptions, so it repairs everything short of
        # genuinely non-finite or singular systems.
        try:
            sol = lu_solve_batched(A[lanes], b[lanes])
        except np.linalg.LinAlgError:
            sol = np.full((lanes.size, A.shape[1]), np.nan, dtype=np.float32)
        ok = np.isfinite(sol).all(axis=1)
        if ok.any():
            out[lanes[ok]] = sol[ok]
            events.append(
                {
                    "kind": "guard.repair-lu",
                    "step": step,
                    "shard": shard,
                    "attempt": attempt,
                    "lanes": [int(row_offset + i) for i in lanes[ok]],
                }
            )
        lanes = lanes[~ok]

    if lanes.size:
        global_lanes = _lane_list(row_offset, lanes)
        events.append(
            {
                "kind": "guard.unrepairable",
                "step": step,
                "shard": shard,
                "attempt": attempt,
                "lanes": list(global_lanes),
            }
        )
        raise NumericalFault(
            f"degradation ladder exhausted: {len(global_lanes)} lane(s) "
            f"remain non-finite {global_lanes[:8]}"
            f"{'...' if len(global_lanes) > 8 else ''}",
            lanes=global_lanes,
            stage="solve",
        )
    return iterations, matvecs
