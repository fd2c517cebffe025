"""Fallback scratch provider for kernels with ``workspace=`` hooks.

``hermitian_rows`` and ``cg_solve_batched`` stage their large
intermediates through a workspace object exposing
``request(name, shape, dtype)`` (duck-typed so :mod:`repro.core` never
imports :mod:`repro.runtime`).  When the caller passes no workspace, the
kernels fall back to :data:`FRESH`, which simply allocates a new buffer
per request — exactly the allocation behaviour the seed implementation
had, so results and memory profiles of existing callers are unchanged.

The real reusing arena is :class:`repro.runtime.arena.Workspace`.

Gathers into scratch use ``np.take(..., out=..., mode="clip")``: NumPy's
default ``mode="raise"`` fills a full-size temporary and then copies it
into ``out``, which would add one transient the size of the result to
every call.  Clip mode writes ``out`` directly but silently clamps bad
indices, so indices that come from caller data pass
:func:`check_indices` once first.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FreshScratch", "FRESH", "check_indices"]


class FreshScratch:
    """Workspace stand-in that allocates a fresh buffer per request."""

    __slots__ = ()

    def request(
        self,
        name: str,
        shape: tuple[int, ...],
        dtype: np.dtype | type = np.float32,
    ) -> np.ndarray:
        return np.empty(shape, dtype=dtype)


#: Shared stateless instance (FreshScratch holds nothing).
FRESH = FreshScratch()


def check_indices(idx: np.ndarray, size: int, what: str) -> None:
    """Raise ``IndexError`` unless every index lies in ``[0, size)``."""
    if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= size):
        raise IndexError(f"{what} index outside [0, {size})")
