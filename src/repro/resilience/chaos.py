"""Chaos harness: train under injected faults and audit the recovery.

``run_chaos`` is the engine behind ``repro chaos`` and CI's chaos-smoke
job.  One invocation:

1. trains ALS on a scaled surrogate workload with a supervised
   :class:`~repro.runtime.executor.ShardExecutor` carrying a seeded
   :class:`~repro.resilience.faults.FaultPlan` (worker kills, shard
   delays, NaN flips, FP16 overflows — all at rates ≥ the issue's 1%
   floor) and the full guard ladder;
2. trains the identical fault-free reference;
3. audits the run: every planned fault must appear in the
   :class:`~repro.resilience.health.RunHealth` log (and nothing
   unplanned), the saved factors must be finite, and the recovered
   objective must sit within a precision-derived tolerance of the
   reference;
4. optionally (``kill_resume=True``) proves checkpoint/resume
   round-trips bit-exactly: train-with-checkpoints is interrupted after
   half the epochs, resumed in a fresh model, and compared against an
   uninterrupted run.

The returned report is plain JSON-able data with an overall ``ok`` flag,
so CI can archive it as an artifact and fail on ``ok == False``.

This module is imported lazily (by the CLI / tests), never from
``repro.resilience.__init__`` — it pulls in the trainers, which sit
upstream in the import graph.
"""

from __future__ import annotations

import tempfile

import numpy as np

from ..core.als import ALSModel
from ..core.config import ALSConfig, CGConfig, Precision, SolverKind
from ..data.datasets import load_surrogate
from ..metrics.rmse import rmse
from ..runtime.executor import ShardExecutor
from ..runtime.plan import RuntimePlan, SupervisionPolicy
from .faults import FaultPlan, account, expected_fault_events
from .guards import GuardPolicy
from .health import RunHealth

__all__ = ["BUDGETS", "fit_supervised", "run_chaos"]

#: Budget → workload/campaign sizing.  ``small`` is the CI smoke tier
#: (seconds); ``medium`` exercises more shards and epochs for local runs.
BUDGETS = {
    "small": {
        "scale": 0.01,
        "epochs": 3,
        "shards": 4,
        "workers": 2,
        "f": 8,
        "resume_epochs": 4,
    },
    "medium": {
        "scale": 0.03,
        "epochs": 5,
        "shards": 6,
        "workers": 2,
        "f": 16,
        "resume_epochs": 6,
    },
}

#: Default injection rates — every class well above the 1% floor.
_RATES = {
    "kill_rate": 0.10,
    "delay_rate": 0.10,
    "nan_rate": 0.15,
    "overflow_rate": 0.15,
}

#: Recovered-objective tolerance by precision: FP16 repairs re-solve
#: quarantined lanes at FP32, so the chaos run is *not* bit-identical to
#: the reference — but rounding-level lane differences move the train
#: RMSE by far less than this.
_OBJECTIVE_TOL = {Precision.FP16: 0.05, Precision.FP32: 1e-4}


def fit_supervised(cfg, train, *, shards, workers, faults, epochs):
    """One supervised, guarded training run under ``faults`` (or none).

    Returns ``(model, executor)``; the executor's health log and spans
    are what the fault audit reads.  Shared by ``repro chaos`` and VF108.
    """
    executor = ShardExecutor(
        RuntimePlan(shards=shards, workers=workers),
        supervision=SupervisionPolicy(backoff_seconds=0.001, shard_deadline=60.0),
        faults=faults,
        guard=GuardPolicy(),
        health=RunHealth(),
    )
    model = ALSModel(cfg, runtime=executor)
    try:
        model.fit(train, epochs=epochs)
    finally:
        executor.close()
    return model, executor


def _kill_resume_roundtrip(cfg, train, *, epochs, checkpoint_dir) -> dict:
    """Interrupt-at-half / resume-to-end vs uninterrupted; expects bit-equal."""
    reference = ALSModel(cfg)
    reference.fit(train, epochs=epochs)

    half = max(1, epochs // 2)
    interrupted = ALSModel(cfg)
    interrupted.fit(train, epochs=half, checkpoint_dir=checkpoint_dir)

    resumed = ALSModel(cfg)
    resumed.fit(train, epochs=epochs, checkpoint_dir=checkpoint_dir, resume=True)

    factors_equal = bool(
        np.array_equal(resumed.x_, reference.x_)
        and np.array_equal(resumed.theta_, reference.theta_)
    )
    clock_equal = bool(resumed.engine.clock == reference.engine.clock)  # noqa: repro-float-eq — bit-equivalence is the contract
    return {
        "epochs": epochs,
        "interrupted_at": half,
        "factors_bit_equal": factors_equal,
        "clock_equal": clock_equal,
        "ok": factors_equal and clock_equal,
    }


def run_chaos(
    seed: int = 0,
    budget: str = "small",
    *,
    kill_resume: bool = False,
    checkpoint_dir: str | None = None,
    precision: Precision = Precision.FP16,
) -> dict:
    """Run one audited chaos campaign; returns a JSON-able report."""
    if budget not in BUDGETS:
        raise ValueError(f"unknown budget {budget!r}; pick one of {sorted(BUDGETS)}")
    sizing = BUDGETS[budget]
    split, spec = load_surrogate("netflix", scale=sizing["scale"], seed=seed)
    train = split.train
    cfg = ALSConfig(
        f=sizing["f"],
        solver=SolverKind.CG,
        precision=precision,
        cg=CGConfig(max_iters=4),
        seed=seed,
    )
    faults = FaultPlan(seed=seed, delay_seconds=0.001, **_RATES)

    geometry = {k: sizing[k] for k in ("shards", "workers", "epochs")}
    chaos_model, executor = fit_supervised(cfg, train, faults=faults, **geometry)
    clean_model, _ = fit_supervised(cfg, train, faults=None, **geometry)

    expected = expected_fault_events(faults, executor.spans_log)
    missing, extra = account(expected, executor.health.fault_events())
    factors_finite = bool(
        np.isfinite(chaos_model.x_).all() and np.isfinite(chaos_model.theta_).all()
    )
    chaos_obj = rmse(chaos_model.x_, chaos_model.theta_, train)
    clean_obj = rmse(clean_model.x_, clean_model.theta_, train)
    tol = _OBJECTIVE_TOL[precision]
    objective_ok = bool(abs(chaos_obj - clean_obj) <= tol)

    report = {
        "seed": seed,
        "budget": budget,
        "dataset": {"name": spec.name, "m": train.m, "n": train.n, "nnz": train.nnz},
        "fault_plan": faults.as_dict(),
        "expected_faults": len(expected),
        "missing_faults": [list(site) for site in missing],
        "unexpected_faults": [list(site) for site in extra],
        "event_counts": dict(executor.health.counts()),
        "factors_finite": factors_finite,
        "objective": {
            "chaos": float(chaos_obj),
            "clean": float(clean_obj),
            "tolerance": tol,
            "ok": objective_ok,
        },
        "health": executor.health.as_dict(),
    }
    if kill_resume:
        if checkpoint_dir is not None:
            report["kill_resume"] = _kill_resume_roundtrip(
                cfg, train, epochs=sizing["resume_epochs"], checkpoint_dir=checkpoint_dir
            )
        else:
            with tempfile.TemporaryDirectory() as tmp:
                report["kill_resume"] = _kill_resume_roundtrip(
                    cfg, train, epochs=sizing["resume_epochs"], checkpoint_dir=tmp
                )
    checks = {
        "faults_accounted": not missing and not extra,
        "factors_finite": factors_finite,
        "objective_within_tolerance": objective_ok,
    }
    if kill_resume:
        checks["kill_resume"] = report["kill_resume"]["ok"]
    report["checks"] = checks
    report["ok"] = bool(all(checks.values()))
    return report
