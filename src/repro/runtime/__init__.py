"""Host-side execution runtime: arenas, sharding, benching.

The paper's contribution is controlling *where memory lives and how it
is reused* for the two ALS hot spots; this package is the host analogue
of that discipline for the reproduction's real NumPy numerics:

* :mod:`~repro.runtime.plan` — declarative execution plans; training
  and the bench run the fixed ``RuntimePlan()`` defaults (the
  occupancy-style launch choice is modelled by :mod:`repro.core.tuning`);
* :mod:`~repro.runtime.arena` — reusable workspace buffers (Solution 1's
  staging, minus the registers);
* :mod:`~repro.runtime.executor` — nnz-balanced row shards, serial or on
  forked workers writing a shared-memory output (Solution 2's
  batching/parallelism);
* :mod:`~repro.runtime.supervisor` — the forked-worker supervision the
  executor shares with the serving fleet;
* :mod:`~repro.runtime.bench` — the ``repro bench`` harness guarding all
  of the above against perf regressions (imported lazily by the CLI, not
  here: it needs the core models, which themselves import this package);
* :mod:`~repro.runtime.sanitizer` — the opt-in ``REPRO_SANITIZE=1``
  runtime witness for the static dataflow rules (overlap, shard
  confinement, buffer generations).
"""

from .arena import Workspace
from .executor import CsrView, HalfStepResult, ShardExecutor, partition_rows
from .plan import ORACLE_PLAN, HermitianMethod, RuntimePlan
from .sanitizer import SanitizerError, sanitizer_enabled

__all__ = [
    "CsrView",
    "HalfStepResult",
    "HermitianMethod",
    "ORACLE_PLAN",
    "RuntimePlan",
    "SanitizerError",
    "ShardExecutor",
    "Workspace",
    "partition_rows",
    "sanitizer_enabled",
]
