"""Reusable scratch buffers for the push kernels.

The vectorised kernels allocate several frontier-sized temporaries per
call (gather positions, gathered targets, scatter indexes).  In a query
loop those allocations dominate the Python-side overhead and churn the
allocator.  A :class:`Workspace` is a tiny keyed buffer pool: kernels
request a named buffer of a given size and dtype, and the pool hands
back a prefix view of a cached array, growing it geometrically when the
request outgrows the cache.

The pool is deliberately *not* thread-safe and buffers are *not*
stable across requests: a buffer returned for key ``k`` is only valid
until the next request for ``k``.  Callers therefore create one
workspace per solve (or per solver thread) and thread it through the
kernel calls — see :func:`repro.core.powerpush.power_push`.

``requests``/``allocations`` counters make reuse observable: the
kernel tests assert that a second solve through the same workspace
allocates nothing, so allocation regressions fail tier 1.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Workspace"]


class Workspace:
    """Keyed pool of reusable scratch arrays (single-threaded)."""

    __slots__ = ("_buffers", "requests", "allocations")

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        #: buffer requests served (reused + freshly allocated)
        self.requests = 0
        #: requests that had to allocate (cache empty or outgrown)
        self.allocations = 0

    def buffer(self, key: str, size: int, dtype=np.float64) -> np.ndarray:
        """A length-``size`` scratch array for ``key`` (contents arbitrary).

        The returned array is a prefix view of a pooled buffer; it is
        invalidated by the next ``buffer(key, ...)`` call with the same
        key, so never hold one across a nested kernel call that might
        request the same key.
        """
        self.requests += 1
        dtype = np.dtype(dtype)
        cached = self._buffers.get(key)
        if cached is not None and cached.dtype == dtype and cached.shape[0] >= size:
            return cached[:size]
        # Grow geometrically so a sequence of slightly-increasing
        # frontiers costs O(log) allocations, not one per call.
        capacity = size
        if cached is not None and cached.dtype == dtype:
            capacity = max(size, 2 * cached.shape[0])
        fresh = np.empty(capacity, dtype=dtype)
        self._buffers[key] = fresh
        self.allocations += 1
        return fresh[:size]

    @property
    def reused(self) -> int:
        """Requests served without allocating."""
        return self.requests - self.allocations

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        held = sum(buf.nbytes for buf in self._buffers.values())
        return (
            f"Workspace(keys={len(self._buffers)}, bytes={held}, "
            f"requests={self.requests}, allocations={self.allocations})"
        )
