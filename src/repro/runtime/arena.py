"""Workspace arena: reusable scratch buffers for the ALS hot path.

The paper's Solution 1 (§III) stages the dense half of ``get_hermitian``
in registers/shared memory so the O(nnz·f²) intermediate never round-trips
through DRAM.  The host-side analogue of that waste is NumPy allocating a
fresh outer-product scratch array for every chunk of every epoch, plus
fresh CG work vectors (r, p, Ap, quantized-A staging) for every batch.

:class:`Workspace` is a named-buffer arena.  Kernels ask for scratch by
name and shape; the arena hands back a view of a cached flat buffer,
growing it only when a request exceeds the current capacity.  After the
first epoch warms every buffer, steady-state training performs **zero**
large allocations — a property the tests assert via the arena's counters
rather than eyeballing a profiler.
"""

from __future__ import annotations

import numpy as np

from . import sanitizer

__all__ = ["Workspace"]


class Workspace:
    """Named, growable scratch buffers with allocation accounting.

    Buffers are keyed by name.  A request returns a C-contiguous view of
    the underlying flat storage with exactly the requested shape/dtype;
    contents are unspecified (callers must fully overwrite, as with
    ``np.empty``).  Requests are served from cache whenever the existing
    flat buffer is large enough, so a buffer sized for the largest chunk
    serves every smaller chunk without touching the allocator.

    Counters:

    ``allocations``
        Number of backing-buffer (re)allocations since the last
        :meth:`reset_counters` — the "did steady state allocate?" probe.
    ``reuses``
        Requests served entirely from cache.
    ``bytes_allocated``
        Total bytes of backing storage created since the last reset.
    ``allocations_by_key``
        Per-key breakdown of ``allocations`` — when a steady-state probe
        trips, this names the buffer (and thus the kernel) that grew.

    Every key additionally carries a **generation counter**, bumped when
    its backing buffer is (re)allocated and when the arena is released.
    A view handed out before the bump references storage the arena no
    longer owns; under ``REPRO_SANITIZE=1`` (see
    :mod:`repro.runtime.sanitizer`) callers pin the generation they
    borrowed at and :meth:`check_current` turns such a stale view into a
    hard :class:`~repro.runtime.sanitizer.SanitizerError` instead of a
    silent read of dead scratch.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self._generations: dict[str, int] = {}
        self.allocations = 0
        self.reuses = 0
        self.bytes_allocated = 0
        self.allocations_by_key: dict[str, int] = {}
        self._peak_resident = 0

    def request(
        self,
        name: str,
        shape: tuple[int, ...],
        dtype: np.dtype | type = np.float32,
    ) -> np.ndarray:
        """Return scratch of ``shape``/``dtype``, reusing cached storage.

        The returned array's contents are arbitrary; callers overwrite.
        """
        dt = np.dtype(dtype)
        elems = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = elems * dt.itemsize
        flat = self._buffers.get(name)
        if flat is None or flat.nbytes < nbytes:
            flat = np.empty(nbytes, dtype=np.uint8)
            self._buffers[name] = flat
            self._generations[name] = self._generations.get(name, 0) + 1
            self.allocations += 1
            self.bytes_allocated += nbytes
            self.allocations_by_key[name] = (
                self.allocations_by_key.get(name, 0) + 1
            )
            resident = self.resident_bytes
            if resident > self._peak_resident:
                self._peak_resident = resident
        else:
            self.reuses += 1
        return flat[:nbytes].view(dt).reshape(shape)

    def zeros(
        self,
        name: str,
        shape: tuple[int, ...],
        dtype: np.dtype | type = np.float32,
    ) -> np.ndarray:
        """Like :meth:`request`, but zero-filled (in place, no alloc)."""
        out = self.request(name, shape, dtype)
        out.fill(0)
        return out

    def reset_counters(self) -> None:
        """Zero the counters without dropping cached buffers."""
        self.allocations = 0
        self.reuses = 0
        self.bytes_allocated = 0
        self.allocations_by_key.clear()

    def absorb(self, other: "Workspace") -> None:
        """Add ``other``'s counters to this arena's and zero them there.

        An executor gives each in-process lane its own arena and reports
        every lane's growth through one of them.
        """
        self.allocations += other.allocations
        self.reuses += other.reuses
        self.bytes_allocated += other.bytes_allocated
        for name, count in other.allocations_by_key.items():
            self.allocations_by_key[name] = (
                self.allocations_by_key.get(name, 0) + count
            )
        other.reset_counters()

    def release(self) -> None:
        """Drop every cached buffer (and reset the counters)."""
        self._buffers.clear()
        for name in self._generations:
            self._generations[name] += 1  # outstanding views go stale
        self.reset_counters()
        self._peak_resident = 0

    def generation(self, name: str) -> int:
        """Current generation of ``name`` (0 if never allocated).

        Borrowers pin this value next to the view they received; the
        pair is the use-after-release token :meth:`check_current`
        validates under the sanitizer.
        """
        return self._generations.get(name, 0)

    def check_current(self, name: str, token: int, *, context: str) -> None:
        """Sanitizer hook: fail if ``name`` was regrown/released since
        ``token`` was pinned (the borrowed view no longer aliases the
        arena's storage).  No-op unless ``REPRO_SANITIZE=1``."""
        if sanitizer.enabled() and self._generations.get(name, 0) != token:
            sanitizer.fail(
                f"sanitizer: workspace key {name!r} was reallocated or "
                f"released while {context} still held a view "
                f"(generation {self._generations.get(name, 0)} != "
                f"borrowed {token})"
            )

    def capacity(self, name: str) -> int:
        """Bytes of ``name``'s backing buffer (0 if it holds none)."""
        buf = self._buffers.get(name)
        return 0 if buf is None else buf.nbytes

    @property
    def resident_bytes(self) -> int:
        """Bytes currently held by cached backing buffers."""
        return sum(buf.nbytes for buf in self._buffers.values())

    @property
    def peak_resident_bytes(self) -> int:
        """High-water mark of :attr:`resident_bytes` over the arena's life.

        Survives :meth:`reset_counters` (it is a capacity fact, not a
        per-epoch rate); only :meth:`release` zeroes it.  The serving
        engine reports it so operators can size a deployment's memory
        from a drill instead of guessing.
        """
        return self._peak_resident

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Workspace(buffers={len(self._buffers)}, "
            f"resident={self.resident_bytes}B, allocs={self.allocations}, "
            f"reuses={self.reuses})"
        )
