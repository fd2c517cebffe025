"""Campaign runner: schedule checks, shrink failures, persist fixtures.

A *campaign* spends a case budget across a set of named checks, each a
(draw, run) pair from :mod:`repro.verify.oracles` /
:mod:`repro.verify.properties`.  Budgets are split by check weight with
largest-remainder rounding and the schedule is interleaved round-robin,
so even a tiny ``--budget`` touches every check at least once.

When a case fails, the runner

1. records the error-level rule IDs it produced,
2. greedily shrinks the case (:func:`~repro.verify.generators.shrink_case`)
   under the predicate "still reproduces one of those rules",
3. writes the shrunk case — plus the original and its diagnostics — as a
   JSON fixture under ``tests/fixtures/verify/`` so the bug becomes a
   permanent regression test (``tests/verify/test_fixtures_replay.py``
   replays every fixture on each run).

Everything derives from ``VerifyConfig.seed``: the same seed and budget
replay the identical campaign, case for case (FuzzBench-style
reproducible trials).  A check that *raises* is itself a finding
(``VF000``) — the harness never swallows crashes.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from ..analysis.diagnostics import Diagnostic, Severity, max_severity, register_rule
from .generators import (
    case_from_dict,
    case_to_dict,
    draw_cache_case,
    draw_fleet_case,
    draw_hermitian_case,
    draw_ingest_case,
    draw_kernel_case,
    draw_occupancy_case,
    draw_pattern_case,
    draw_resilience_case,
    draw_retrieval_case,
    draw_runtime_case,
    draw_serving_case,
    draw_spd_case,
    draw_trajectory_case,
    shrink_case,
)
from .oracles import (
    check_backend_equivalence,
    check_cg_vs_direct,
    check_exact_pair,
    check_fp16_noise_floor,
    check_hermitian_solvers,
    check_rmse_trajectory,
)
from .properties import (
    check_cache_monotone,
    check_coalescing_order,
    check_fleet_accounting,
    check_occupancy_invariance,
    check_resilience_recovery,
    check_roofline_bound,
    check_runtime_determinism,
    check_serving_availability,
    check_serving_recall,
    check_streaming_foldin,
    check_timing_monotone,
)

__all__ = [
    "VF000",
    "CheckDef",
    "CHECKS",
    "VerifyConfig",
    "CaseFailure",
    "CampaignResult",
    "run_campaign",
    "run_check_once",
    "load_fixture",
    "replay_fixture",
    "iter_fixture_paths",
    "render_report_json",
    "render_report_text",
    "FIXTURE_SCHEMA",
    "REPORT_SCHEMA",
]

VF000 = register_rule(
    "VF000",
    "verification check crashed",
    "harness invariant: oracles report findings, they never raise",
)

FIXTURE_SCHEMA = "repro.verify/fixture-v1"
REPORT_SCHEMA = "repro.verify/v1"


@dataclass(frozen=True)
class CheckDef:
    """One named check: how to draw a case and how to judge it."""

    name: str
    draw: Callable[[np.random.Generator], object]
    run: Callable[[object], list[Diagnostic]]
    weight: float = 1.0
    summary: str = ""


def _draw_fp16_spd(rng: np.random.Generator):
    # FP16 bounds are only meaningful where the eps16 floor is small and
    # |A| entries stay in binary16's normal range.
    return draw_spd_case(rng, max_log10_cond=2.0, max_abs_log10_scale=2.0)


def _draw_truncated_spd(rng: np.random.Generator):
    # Half the solver.cg draws exercise the paper's truncated budget.
    return draw_spd_case(rng, truncated=bool(rng.random() < 0.5))


#: The campaign's check registry, keyed by ``group.name``.
CHECKS: dict[str, CheckDef] = {
    c.name: c
    for c in (
        CheckDef(
            "solver.exact",
            draw_spd_case,
            check_exact_pair,
            summary="LU vs Cholesky on synthetic SPD batches (VF001)",
        ),
        CheckDef(
            "solver.cg",
            _draw_truncated_spd,
            check_cg_vs_direct,
            summary="CG vs exact solve + truncated residual contract (VF002)",
        ),
        CheckDef(
            "solver.fp16",
            _draw_fp16_spd,
            check_fp16_noise_floor,
            summary="FP16-storage CG within the eps16 noise floor (VF003)",
        ),
        CheckDef(
            "solver.backends",
            _draw_truncated_spd,
            check_backend_equivalence,
            summary="CG kernel backends vs the reference oracle (VF006)",
        ),
        CheckDef(
            "solver.hermitian",
            draw_hermitian_case,
            check_hermitian_solvers,
            summary="solvers on real A_u from rating matrices (VF001/VF002)",
        ),
        CheckDef(
            "als.trajectory",
            draw_trajectory_case,
            check_rmse_trajectory,
            weight=0.25,  # each case trains two small models; keep them rare
            summary="FP32 vs FP16 ALS RMSE trajectories (VF004)",
        ),
        CheckDef(
            "runtime.determinism",
            draw_runtime_case,
            check_runtime_determinism,
            weight=0.25,  # each case runs 8-10 executor plans; keep them rare
            summary="factors bit-identical per kernel pair under sharding/chunking (VF107)",
        ),
        CheckDef(
            "resilience.recovery",
            draw_resilience_case,
            check_resilience_recovery,
            weight=0.25,  # each case trains two supervised models; keep them rare
            summary="fault-injected runs recover, fully accounted (VF108)",
        ),
        CheckDef(
            "serving.availability",
            draw_serving_case,
            check_serving_availability,
            weight=0.5,  # each case replays a full traffic stream; keep modest
            summary="no request lost under serving chaos (VF109)",
        ),
        CheckDef(
            "serving.fleet",
            draw_fleet_case,
            check_fleet_accounting,
            weight=0.25,  # each case forks worker pools thrice; keep them rare
            summary="fleet accounting exact under worker chaos (VF111)",
        ),
        CheckDef(
            "serving.recall",
            draw_retrieval_case,
            check_serving_recall,
            weight=0.5,  # each case builds 3 indexes + a probe grid; keep modest
            summary="IVF index recall/exactness vs brute force (VF110)",
        ),
        CheckDef(
            "streaming.foldin",
            draw_ingest_case,
            check_streaming_foldin,
            weight=0.25,  # each case trains two models + three streams; rare
            summary="fold-in kill-replay/clean-row/RMSE contracts (VF112)",
        ),
        CheckDef(
            "gpusim.monotone",
            draw_kernel_case,
            check_timing_monotone,
            summary="kernel time monotone in Nz/batch/f (VF101/VF102)",
        ),
        CheckDef(
            "gpusim.roofline",
            draw_kernel_case,
            check_roofline_bound,
            summary="no kernel beats its roofline floor (VF103)",
        ),
        CheckDef(
            "gpusim.coalescing",
            draw_pattern_case,
            check_coalescing_order,
            summary="coalesced <= strided transactions (VF104)",
        ),
        CheckDef(
            "gpusim.occupancy",
            draw_occupancy_case,
            check_occupancy_invariance,
            summary="occupancy invariant under SM scaling (VF105)",
        ),
        CheckDef(
            "gpusim.cache",
            draw_cache_case,
            check_cache_monotone,
            summary="hit rate non-increasing in working set (VF106)",
        ),
    )
}


@dataclass(frozen=True)
class VerifyConfig:
    """Parameters of one fuzz campaign."""

    seed: int = 0
    budget: int = 200
    checks: tuple[str, ...] = ()  # empty = all registered checks
    shrink: bool = True
    fixtures_dir: str | None = "tests/fixtures/verify"
    shrink_attempts: int = 128

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.shrink_attempts < 0:
            raise ValueError("shrink_attempts must be non-negative")
        unknown = [c for c in self.checks if c not in CHECKS]
        if unknown:
            raise ValueError(
                f"unknown checks {unknown}; available: {sorted(CHECKS)}"
            )


@dataclass(frozen=True)
class CaseFailure:
    """One failing case, before and after shrinking."""

    check: str
    case: dict
    shrunk: dict
    diagnostics: tuple[Diagnostic, ...]
    fixture_path: str | None

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "case": self.case,
            "shrunk_case": self.shrunk,
            "fixture": self.fixture_path,
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of one campaign."""

    seed: int
    budget: int
    executed: int
    counts: tuple[tuple[str, int, int], ...]  # (check, cases, failures)
    failures: tuple[CaseFailure, ...]
    notes: tuple[Diagnostic, ...]  # harness-level warnings (fixture IO etc.)

    @property
    def passed(self) -> int:
        return self.executed - len(self.failures)

    def max_severity(self) -> Severity | None:
        diags = [d for f in self.failures for d in f.diagnostics]
        diags.extend(self.notes)
        return max_severity(diags)


def run_check_once(name: str, case) -> tuple[list[Diagnostic], bool]:
    """Run one check on one case; a crash becomes a VF000 diagnostic."""
    check = CHECKS[name]
    try:
        return list(check.run(case)), False
    except Exception as exc:  # noqa: BLE001 -- crashes must become findings
        return [
            Diagnostic(
                rule_id=VF000,
                severity=Severity.ERROR,
                subject=name,
                message=f"{type(exc).__name__}: {exc}",
                hint="oracles must catch expected numerical failures themselves",
            )
        ], True


def _error_rules(diags: Iterable[Diagnostic]) -> frozenset[str]:
    return frozenset(d.rule_id for d in diags if d.severity is Severity.ERROR)


def _schedule(names: tuple[str, ...], budget: int) -> list[str]:
    """Weighted largest-remainder split, interleaved round-robin."""
    weights = {n: CHECKS[n].weight for n in names}
    total_w = sum(weights.values())
    quotas = {n: budget * w / total_w for n, w in weights.items()}
    alloc = {n: int(quotas[n]) for n in names}
    leftover = budget - sum(alloc.values())
    by_frac = sorted(names, key=lambda n: quotas[n] - alloc[n], reverse=True)
    for n in by_frac[:leftover]:
        alloc[n] += 1
    # Budget permitting, every check runs at least once.
    if budget >= len(names):
        donors = sorted(names, key=lambda n: alloc[n], reverse=True)
        for n in names:
            if alloc[n] == 0:
                donor = next(d for d in donors if alloc[d] > 1)
                alloc[donor] -= 1
                alloc[n] = 1
    schedule: list[str] = []
    remaining = dict(alloc)
    while len(schedule) < budget:
        for n in names:
            if remaining[n] > 0:
                remaining[n] -= 1
                schedule.append(n)
    return schedule[:budget]


def _fixture_payload(name: str, case, shrunk, diags: list[Diagnostic]) -> dict:
    return {
        "schema": FIXTURE_SCHEMA,
        "check": name,
        "case": case_to_dict(shrunk),
        "original_case": case_to_dict(case),
        "diagnostics": [d.as_dict() for d in diags],
    }


def _persist_fixture(
    fixtures_dir: str, name: str, payload: dict
) -> tuple[str | None, Diagnostic | None]:
    try:
        os.makedirs(fixtures_dir, exist_ok=True)
        digest = hashlib.sha1(
            json.dumps(payload["case"], sort_keys=True).encode()
        ).hexdigest()[:10]
        path = os.path.join(fixtures_dir, f"{name.replace('.', '-')}-{digest}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path, None
    except OSError as exc:
        return None, Diagnostic(
            rule_id=VF000,
            severity=Severity.WARNING,
            subject=name,
            message=f"could not persist fixture: {exc}",
        )


def run_campaign(config: VerifyConfig) -> CampaignResult:
    """Execute one seeded fuzz campaign and return its full result."""
    names = config.checks or tuple(CHECKS)
    rng = np.random.default_rng(config.seed)
    schedule = _schedule(names, config.budget)

    counts = {n: [0, 0] for n in names}
    failures: list[CaseFailure] = []
    notes: list[Diagnostic] = []

    for name in schedule:
        case = CHECKS[name].draw(rng)
        counts[name][0] += 1
        diags, crashed = run_check_once(name, case)
        target = _error_rules(diags)
        if not target:
            continue
        counts[name][1] += 1

        shrunk = case
        if config.shrink:

            def _still_fails(candidate, _name=name, _target=target) -> bool:
                cand_diags, _ = run_check_once(_name, candidate)
                return bool(_error_rules(cand_diags) & _target)

            shrunk = shrink_case(
                case, _still_fails, max_attempts=config.shrink_attempts
            )
            if shrunk is not case:
                shrunk_diags, _ = run_check_once(name, shrunk)
                if _error_rules(shrunk_diags) & target:
                    diags = shrunk_diags

        fixture_path = None
        if config.fixtures_dir is not None:
            payload = _fixture_payload(name, case, shrunk, diags)
            fixture_path, note = _persist_fixture(config.fixtures_dir, name, payload)
            if note is not None:
                notes.append(note)

        failures.append(
            CaseFailure(
                check=name,
                case=case_to_dict(case),
                shrunk=case_to_dict(shrunk),
                diagnostics=tuple(diags),
                fixture_path=fixture_path,
            )
        )

    return CampaignResult(
        seed=config.seed,
        budget=config.budget,
        executed=len(schedule),
        counts=tuple((n, counts[n][0], counts[n][1]) for n in names),
        failures=tuple(failures),
        notes=tuple(notes),
    )


# ----------------------------------------------------------------------
# Fixture replay.
# ----------------------------------------------------------------------


def load_fixture(path: str | os.PathLike) -> tuple[str, object]:
    """Read one fixture file; returns ``(check_name, case)``."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("schema") != FIXTURE_SCHEMA:
        raise ValueError(f"{path}: unknown fixture schema {payload.get('schema')!r}")
    name = payload["check"]
    if name not in CHECKS:
        raise ValueError(f"{path}: unknown check {name!r}")
    return name, case_from_dict(payload["case"])


def replay_fixture(path: str | os.PathLike) -> list[Diagnostic]:
    """Re-run the check a fixture was minimized for; [] means fixed."""
    name, case = load_fixture(path)
    diags, _ = run_check_once(name, case)
    return diags


def iter_fixture_paths(fixtures_dir: str | os.PathLike) -> list[str]:
    """All fixture JSON files under ``fixtures_dir``, sorted."""
    if not os.path.isdir(fixtures_dir):
        return []
    return sorted(
        os.path.join(fixtures_dir, fn)
        for fn in os.listdir(fixtures_dir)
        if fn.endswith(".json")
    )


# ----------------------------------------------------------------------
# Reports.
# ----------------------------------------------------------------------


def render_report_json(result: CampaignResult) -> str:
    top = result.max_severity()
    payload = {
        "schema": REPORT_SCHEMA,
        "seed": result.seed,
        "budget": result.budget,
        "executed": result.executed,
        "passed": result.passed,
        "failed": len(result.failures),
        "max_severity": top.value if top is not None else None,
        "checks": {
            name: {"cases": cases, "failures": fails}
            for name, cases, fails in result.counts
        },
        "failures": [f.as_dict() for f in result.failures],
        "notes": [d.as_dict() for d in result.notes],
    }
    return json.dumps(payload, indent=2)


def render_report_text(result: CampaignResult) -> str:
    lines = [
        f"verify campaign: seed={result.seed} budget={result.budget} "
        f"executed={result.executed} passed={result.passed} "
        f"failed={len(result.failures)}"
    ]
    for name, cases, fails in result.counts:
        status = "ok" if fails == 0 else f"{fails} FAILING"
        lines.append(f"  {name:18s} {cases:4d} case(s)  {status}")
    for failure in result.failures:
        lines.append(f"-- {failure.check}: minimal reproducer {failure.shrunk['params']}")
        for d in failure.diagnostics:
            lines.append(f"   {d.severity.value.upper()} {d.rule_id}: {d.message}")
        if failure.fixture_path:
            lines.append(f"   fixture: {failure.fixture_path}")
    for note in result.notes:
        lines.append(f"note: {note.message}")
    return "\n".join(lines)
