"""Row-block invariance: a shard solved block by block is one solve.

The executor forms and solves each shard in contiguous blocks of
``block_rows(f)`` rows so its scratch is O(block).  Rows are never split
and a row's solve does not depend on its batch, so every block size must
reproduce the single-block run bit for bit: factors, ``cg_iterations``
(max over blocks), ``cg_matvec_count`` (sum over blocks) and the health
log, guard-ladder lanes included.  Each case runs with 1-row blocks, with
3-row blocks (a ragged last block) and at the default block size on a
problem whose shard spans several default blocks.
"""

import dataclasses

import numpy as np
import pytest

import repro.runtime.executor as executor_module
from repro.core.als import ALSModel
from repro.core.config import ALSConfig, CGConfig, Precision, SolverKind
from repro.data import SyntheticConfig, generate_ratings
from repro.data.sparse import RatingMatrix
from repro.resilience.faults import FaultPlan
from repro.resilience.guards import GuardPolicy
from repro.runtime import RuntimePlan, ShardExecutor
from repro.runtime.executor import SOLVE_BLOCK_BYTES, block_rows

LAM = 0.08
CG = CGConfig(max_iters=5, tol=1e-5)
DEFAULT_F = 32

#: Rows per block under test; ``None`` is the shipped default.
BLOCKS = {"1-row": 1, "3-rows": 3, "default": None}

#: Half-step cases: executor plan (one shard unless given) and
#: ``half_step`` arguments.  Every case runs on a problem with empty rows.
CASES = {
    "cg-fp16": dict(),
    "cg-fp32": dict(precision=Precision.FP32),
    "cg-fp16-cold": dict(warm=False),
    "oracle-kernels": dict(plan=dict(method="reduceat", cg_backend="reference")),
    "compact-cg": dict(plan=dict(compact_cg=True)),
    "lu": dict(solver=SolverKind.LU),
    "cholesky": dict(solver=SolverKind.LU, direct="cholesky"),
    "implicit": dict(implicit=True),
    "implicit-cholesky": dict(implicit=True, solver=SolverKind.LU, direct="cholesky"),
    "two-lanes": dict(plan=dict(shards=2), cores=2),
    "pool-workers-2": dict(plan=dict(shards=2, workers=2)),
}


def _problem(rows_per_block: int | None):
    """Ratings with empty rows, sized so a shard spans several blocks."""
    if rows_per_block is None:
        f, m, n, nnz = DEFAULT_F, 2 * block_rows(DEFAULT_F) + 77, 300, 30_000
    else:
        f, m, n, nnz = 8, 70, 40, 900
    base = generate_ratings(SyntheticConfig(m=m, n=n, nnz=nnz, seed=3))
    rows = np.repeat(np.arange(m), np.diff(base.row_ptr))
    keep = rows % 7 != 3  # every seventh row, from row 3 on, is empty
    ratings = RatingMatrix.from_coo(
        rows[keep], base.col_idx[keep], base.row_val[keep], m=m, n=n
    )
    rng = np.random.default_rng(4)
    theta = rng.normal(0, 0.3, (n, f)).astype(np.float32)
    warm = rng.normal(0, 0.3, (m, f)).astype(np.float32)
    return ratings, theta, warm


@pytest.fixture(scope="module")
def problems():
    return {name: _problem(rows) for name, rows in BLOCKS.items()}


def _run(problem, case, block_bytes, *, faults=None, guard=None):
    """One half-step at ``block_bytes``: (factors, iters, matvecs, events)."""
    ratings, theta, warm = problem
    spec = dict(case)
    plan = dataclasses.replace(RuntimePlan(shards=1), **spec.pop("plan", {}))
    cores = spec.pop("cores", None)
    use_warm = spec.pop("warm", True)
    kwargs = dict(lam=LAM, cg_config=CG, precision=Precision.FP16)
    if spec.pop("implicit", False):
        vals = ratings.row_val
        kwargs.update(
            lam=0.0,
            gram=theta.T @ theta,
            extra_diag=LAM,
            entry_weights=np.float32(4.0) * vals,
            bias_values=np.float32(1.0) + np.float32(4.0) * vals,
            count_weighted_reg=False,
        )
    kwargs.update(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor_module, "SOLVE_BLOCK_BYTES", block_bytes)
        if cores is not None:
            patch.setattr(executor_module, "usable_cores", lambda: cores)
            patch.setattr(executor_module, "LANE_MIN_NNZ", 1)
        with ShardExecutor(plan, faults=faults, guard=guard) as executor:
            result = executor.half_step(
                ratings, theta, warm if use_warm else None, **kwargs
            )
            events = [] if executor.health is None else [
                e.as_dict() for e in executor.health.events
            ]
            return (
                result.factors.copy(),
                result.cg_iterations,
                result.cg_matvec_count,
                events,
            )


def _block_bytes(rows: int | None, f: int) -> int:
    return SOLVE_BLOCK_BYTES if rows is None else rows * f * f * 4


def _assert_identical(got, want) -> None:
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]


#: A block larger than any test shard: the single-block reference.
ONE_BLOCK = 1 << 60


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("block", sorted(BLOCKS))
def test_blocked_shard_is_bit_identical_to_one_block(problems, case, block):
    problem = problems[block]
    f = problem[1].shape[1]
    rows = BLOCKS[block]
    if rows is None:  # the default must really split every shard
        assert problem[0].m // 2 > block_rows(f)
    want = _run(problem, CASES[case], ONE_BLOCK)
    got = _run(problem, CASES[case], _block_bytes(rows, f))
    _assert_identical(got, want)


@pytest.mark.parametrize("block", ["1-row", "3-rows"])
def test_fault_sites_stay_per_shard(problems, block):
    """NaN-flip and FP16-overflow victims are drawn over the shard's rows
    and repaired by the guard ladder: the health log (lanes included)
    and the repaired factors match the single-block run."""
    problem = problems[block]
    f = problem[1].shape[1]
    plan = FaultPlan(seed=3, nan_rate=1.0, overflow_rate=1.0)
    run = dict(faults=plan, guard=GuardPolicy())
    want = _run(problem, CASES["two-lanes"], ONE_BLOCK, **run)
    got = _run(problem, CASES["two-lanes"], _block_bytes(BLOCKS[block], f), **run)
    _assert_identical(got, want)
    kinds = [e["kind"] for e in got[3]]
    assert kinds.count("fault.nan-flip") == kinds.count("fault.fp16-overflow") == 2
    # the victims of a shard sit in different 1-row blocks, so the
    # shard's quarantine folds the ladder events of several blocks
    quarantined = [e["lanes"] for e in got[3] if e["kind"] == "guard.quarantine"]
    assert quarantined and max(len(lanes) for lanes in quarantined) > 1
    assert np.isfinite(got[0]).all()


def test_block_rows_is_four_mib_of_a():
    assert block_rows(32) == 1024
    assert block_rows(100) == 104
    assert block_rows(2048) == 1  # never below one row


def test_lane_scratch_does_not_grow_with_the_users(monkeypatch):
    """A default fit on a surrogate and on one with 4x the users leaves
    every lane with the same A and staged-A capacity: one block's.  The
    plan is the default one of a two-core host on any host."""
    monkeypatch.setattr(executor_module, "usable_cores", lambda: 2)
    f = DEFAULT_F
    capacities = []
    for scale in (1, 4):
        ratings = generate_ratings(
            SyntheticConfig(m=3_000 * scale, n=600, nnz=60_000 * scale, seed=2)
        )
        model = ALSModel(ALSConfig(f=f), runtime=RuntimePlan(shards=2))
        model.fit(ratings, epochs=1)
        arenas = model.runtime.arenas
        capacities.append(
            [(ws.capacity("exec.A"), ws.capacity("cg.A_store")) for ws in arenas]
        )
        model.runtime.close()
    block = block_rows(f) * f * f * 4
    assert capacities[0] == capacities[1] == [(block, block)] * 2
