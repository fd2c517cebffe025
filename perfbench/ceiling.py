"""Host ceilings for the roofline view (the CPU analogue of Fig. 7a/7b).

* Peak compute: a square float32 GEMM through numpy's BLAS, best of a
  few repeats, counted as 2·n³ FLOPs.
* Memory bandwidth: a STREAM-style triad ``a = b + s·c`` over three
  float32 arrays whose total footprint is at least four times the
  last-level cache.  It runs in L2-sized blocks so numpy's temporary
  ``s·c`` stays in cache and each array crosses memory once per pass;
  the bytes are computed as 3 arrays × N × 4 bytes per pass.

The BLAS thread count is whatever the benchmark process set
(``run.py`` pins one thread), so both ceilings describe one core, the
same resources the workloads run on.
"""

from __future__ import annotations

import time

import numpy as np

GEMM_N = 2048
#: Sized for last-level caches up to 108 MiB: 3 × 144 MiB ≥ 4 × 108 MiB.
TRIAD_ARRAY_BYTES = 144 << 20
TRIAD_BLOCK = 1 << 18  # elements per block: 1 MiB of float32


def gemm_gflops(n: int = GEMM_N, repeats: int = 3) -> float:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    out = np.empty((n, n), np.float32)
    np.matmul(a, b, out=out)  # warm BLAS and the output pages
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        np.matmul(a, b, out=out)
        best = min(best, time.perf_counter() - start)
    return 2.0 * n**3 / best / 1e9


def triad_gbps(array_bytes: int = TRIAD_ARRAY_BYTES, repeats: int = 3) -> float:
    n = array_bytes // 4
    a = np.zeros(n, np.float32)
    b = np.ones(n, np.float32)
    c = np.full(n, 2.0, np.float32)
    scalar = np.float32(3.0)
    tmp = np.empty(TRIAD_BLOCK, np.float32)

    def triad() -> None:
        for lo in range(0, n, TRIAD_BLOCK):
            hi = min(lo + TRIAD_BLOCK, n)
            t = tmp[: hi - lo]
            np.multiply(c[lo:hi], scalar, out=t)
            np.add(b[lo:hi], t, out=a[lo:hi])

    triad()  # fault in every page before timing
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        triad()
        best = min(best, time.perf_counter() - start)
    if a[0] != 7.0:
        raise RuntimeError("triad produced a wrong result")
    return 3 * n * 4 / best / 1e9


def probe() -> dict:
    """Measure both ceilings; sizes are returned with the results."""
    return {
        "gemm_gflops": gemm_gflops(),
        "gemm_n": GEMM_N,
        "triad_gbps": triad_gbps(),
        "triad_footprint_mib": 3 * TRIAD_ARRAY_BYTES >> 20,
    }
