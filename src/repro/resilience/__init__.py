"""Resilience layer: fault injection, numeric guards, checkpoints, chaos.

The paper's approximate-computing choices (truncated CG, FP16 storage of
A_u) and the runtime layer's fork-pool execution both trade safety
margins for speed, so a long training run has two realistic failure
modes: numeric blow-ups and worker/process faults.  This package makes
both survivable:

* :mod:`repro.resilience.faults` — a seeded :class:`FaultPlan` that can
  kill workers, delay shards, flip CG batches to NaN/Inf and force FP16
  overflow at configurable rates, and injects the serving and ingestion
  faults of the online drills (tests, ``repro verify``, and the
  ``repro chaos``/``serve``/``ingest`` CLIs all drive it);
* :mod:`repro.resilience.guards` — per-half-step numeric sentinels and
  the graceful-degradation ladder (quarantine + re-solve → FP16→FP32
  escalation → CG→LU fallback → structured :class:`NumericalFault`);
* :mod:`repro.resilience.health` — the :class:`RunHealth` event log that
  accounts for every injected fault, repair, retry and degradation;
* :mod:`repro.resilience.checkpoint` — atomic, checksummed epoch-level
  checkpoints with exact resume;
* :mod:`repro.resilience.chaos` — the supervised chaos campaigns behind
  ``repro chaos`` and the CI ``chaos-smoke`` job.

See ``docs/resilience.md`` for the failure taxonomy and the ladder.
"""

from .checkpoint import (
    CHECKPOINT_SCHEMA,
    Checkpoint,
    CheckpointError,
    CheckpointManager,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    prune_checkpoints,
    save_checkpoint,
    sweep_orphan_tmp,
)
from .faults import (
    INGEST_FAULT_KINDS,
    SERVING_FAULT_KINDS,
    FaultPlan,
    InjectedWorkerKill,
    account,
    expected_fault_events,
    expected_serving_faults,
)
from .guards import (
    GuardPolicy,
    NumericalFault,
    check_factors_finite,
    check_normal_equations,
    guarded_solve,
)
from .health import HealthEvent, RunHealth

__all__ = [
    "CHECKPOINT_SCHEMA",
    "Checkpoint",
    "CheckpointError",
    "CheckpointManager",
    "FaultPlan",
    "GuardPolicy",
    "INGEST_FAULT_KINDS",
    "HealthEvent",
    "InjectedWorkerKill",
    "NumericalFault",
    "RunHealth",
    "SERVING_FAULT_KINDS",
    "account",
    "check_factors_finite",
    "check_normal_equations",
    "expected_fault_events",
    "expected_serving_faults",
    "guarded_solve",
    "latest_checkpoint",
    "list_checkpoints",
    "load_checkpoint",
    "prune_checkpoints",
    "save_checkpoint",
    "sweep_orphan_tmp",
]
