"""Golden drill logs: the chaos and fleet drills replay their recorded events.

The fixtures under ``tests/fixtures/drills/`` were recorded from the
drills before the forked-worker supervision moved into
:mod:`repro.runtime.supervisor`; any refactor of the executor or the
fleet must reproduce them.  Events compare as multisets (order within a
tick may legitimately differ).

* ``chaos_seed0_small.json`` — the full :class:`RunHealth` event list
  of ``repro chaos --seed 0 --budget small``.
* ``fleet_chaos_seed0_w3_r200.json`` — every event of
  ``repro serve --workers 3 --chaos --seed 0 --requests 200`` except
  ``worker.*`` (those depend on wall-clock heartbeats), with the drill's
  temporary directory normalised out of the details.
* ``ingest_chaos_seed0_e160.json`` — every :class:`ServingHealth` event
  of ``repro ingest --seed 0 --events 160`` (the chaos tier), paths
  normalised as for the fleet log.  It was recorded before the fold-in
  moved onto the executor's half-step.

Re-record (only for an intended behaviour change) with
``PYTHONPATH=src python tests/test_drill_golden.py``.
"""

from __future__ import annotations

import collections
import json
import multiprocessing
import re
import sys
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures" / "drills"
CHAOS_FIXTURE = FIXTURES / "chaos_seed0_small.json"
FLEET_FIXTURE = FIXTURES / "fleet_chaos_seed0_w3_r200.json"
INGEST_FIXTURE = FIXTURES / "ingest_chaos_seed0_e160.json"

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)

_QUOTED_PATH = re.compile(r"'[^']*[/\\]([^/\\']+)'")


def chaos_events() -> list[dict]:
    from repro.resilience.chaos import run_chaos

    report = run_chaos(seed=0, budget="small")
    assert report["ok"], report
    return report["health"]["events"]


def fleet_events() -> list[dict]:
    from repro.serving.drill import run_fleet_drill

    report = run_fleet_drill(seed=0, requests=200, workers=3, chaos=True)
    assert report["ok"], report
    events = []
    for event in report["health"]["events"]:
        if not event["kind"].startswith("worker."):
            events.append(_normalise_paths(event))
    return events


def ingest_events() -> list[dict]:
    from repro.streaming.drill import run_ingest_drill

    report = run_ingest_drill(seed=0, events=160, chaos=True)
    assert report["ok"], report
    return [_normalise_paths(e) for e in report["health"]["events"]]


def _normalise_paths(event: dict) -> dict:
    event = dict(event)
    event["detail"] = _QUOTED_PATH.sub(r"'\1'", event["detail"])
    return event


def _multiset(events: list[dict]) -> collections.Counter:
    return collections.Counter(json.dumps(e, sort_keys=True) for e in events)


def _assert_replays(events: list[dict], fixture: Path) -> None:
    golden = json.loads(fixture.read_text(encoding="utf-8"))
    got, want = _multiset(events), _multiset(golden)
    assert got - want == collections.Counter(), "unexpected events"
    assert want - got == collections.Counter(), "missing events"


@needs_fork
def test_chaos_drill_replays_golden_log():
    _assert_replays(chaos_events(), CHAOS_FIXTURE)


@needs_fork
def test_fleet_drill_replays_golden_log():
    _assert_replays(fleet_events(), FLEET_FIXTURE)


def test_ingest_drill_replays_golden_log():
    _assert_replays(ingest_events(), INGEST_FIXTURE)


if __name__ == "__main__":  # pragma: no cover - fixture recorder
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for fixture, record in (
        (CHAOS_FIXTURE, chaos_events),
        (FLEET_FIXTURE, fleet_events),
        (INGEST_FIXTURE, ingest_events),
    ):
        lines = ",\n".join(json.dumps(e, sort_keys=True) for e in record())
        fixture.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
        print(f"wrote {fixture}", file=sys.stderr)
