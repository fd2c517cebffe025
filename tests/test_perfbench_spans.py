"""The traced benchmark's span ledger resolves every attribute it patches.

``perfbench/spans.py`` wraps each layer's entry points by module or
class attribute (for instance ``repro.streaming.ingest.hermitian_rows``).
A refactor that moves or renames one of them would otherwise surface
only as a crash of ``perfbench/run.py --trace 1``; this test fails first.
The install runs in a subprocess because its patches last for the
lifetime of the process that makes them.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_PROBE = """
import spans

spans.install(spans.Ledger())

import repro.runtime.executor as executor
import repro.streaming.ingest as ingest

for module in (executor, ingest):
    for name in ("hermitian_rows", "cg_solve_batched"):
        assert hasattr(getattr(module, name), "__wrapped__"), (module.__name__, name)
"""


def test_spans_install_resolves_every_patched_attribute():
    path = [str(ROOT / "perfbench"), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
