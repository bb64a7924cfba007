"""Versioned result cache: ``(source, method, params) -> PPRResult``.

Zipfian query traffic answers the same hot sources over and over; the
cheapest query is the one never recomputed.  :class:`ResultCache`
memoises full query results under an LRU + TTL policy, with every
entry **stamped with the graph version it was computed at** — exactly
the staleness discipline :class:`~repro.api.engine.PPREngine` applies
to its walk/BePI/FORA indexes.  A lookup must present the current
version; an entry stamped otherwise is dropped on sight (counted in
``stats.stale_drops``), so after ``apply_updates`` no request can be
answered from a pre-update vector.

Keys canonicalise the request through the solver registry —
``fora+`` and ``fora`` + ``use_index=True`` share an entry, parameter
order never matters — and requests carrying live objects (a ``rng``
generator, a trace sink) are declared uncacheable
(:func:`make_cache_key` returns ``None``) rather than mis-shared.

The cache is thread-safe on its own, but version consistency across
*concurrent* readers and writers needs lookups and fills to happen
under :class:`~repro.serving.locks.RWLock` read sections — both
serving tiers wire that, through one
:class:`~repro.serving.flights.FlightTable` each.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.api.registry import resolve_method
from repro.core.result import PPRResult
from repro.errors import ParameterError

__all__ = [
    "CacheStats",
    "ResultCache",
    "freeze_result",
    "make_cache_key",
    "resolve_request",
]

#: Parameter values that may appear in a cache key.  Anything else
#: (generators, traces, arrays, pre-built indexes) makes the request
#: uncacheable — sharing such objects across requests would be wrong.
_HASHABLE_SCALARS = (int, float, str, bool, type(None))

#: Request shapes :func:`resolve_request` remembers.  A shape is the
#: request without its source; a full memo starts over.
_RESOLVE_MEMO_SIZE = 1024

#: shape -> (canonical name, merged parameters, sorted items or None).
#: Registration only ever adds a name, so an entry never goes stale.
_resolve_memo: dict[tuple, tuple[str, dict[str, Any], tuple | None]] = {}
_resolve_memo_lock = threading.Lock()


def resolve_request(
    source: int,
    method: str,
    params: Mapping[str, Any],
    *,
    defaults: Mapping[str, Any] | None = None,
) -> tuple[str, dict[str, Any], tuple | None]:
    """Resolve a request once for the serving hot path.

    Returns ``(canonical_method, merged_params, cache_key)`` where the
    canonical name and merged parameters have alias-implied overrides
    (``fora+`` => ``use_index=True``) folded in and validated against
    the solver's schema, and ``cache_key`` is ``None`` when the request
    is uncacheable.  Raises
    :class:`~repro.errors.UnknownMethodError` for unknown methods and
    :class:`~repro.errors.ParameterError` for parameters outside the
    schema, so typos surface at submit time, not deep in a worker
    thread.  The serving layer calls this exactly once per request;
    the cache key, the flight it joins or leads, and the solve all
    reuse the result.

    ``defaults`` are engine-level fallbacks (the server passes its
    engine's ``alpha``/``dead_end_policy``): each one the solver
    accepts is folded in via ``setdefault``, so a request that spells
    out a default explicitly gets the same key — and therefore the
    same cache entry and flight — as one that omits it.

    Memoised per request shape: the method spelling plus each
    parameter's and each default's ``(name, type, value)``, so ``1``,
    ``1.0`` and ``True`` never share an entry.  A shape with a value
    that is not a scalar (a live ``rng``) is resolved afresh every
    time, and an error is never remembered.  Every call returns a
    ``merged`` of its own: the engine mutates it for tracked methods.
    """
    if defaults is None:
        defaults = {}
    shape = _request_shape(method, params, defaults)
    entry = None if shape is None else _resolve_memo.get(shape)
    if entry is None:
        entry = _resolve_shape(method, params, defaults)
        if shape is not None:
            with _resolve_memo_lock:
                if len(_resolve_memo) >= _RESOLVE_MEMO_SIZE:
                    _resolve_memo.clear()
                _resolve_memo[shape] = entry
    canonical, merged, items = entry
    key = None if items is None else (canonical, int(source), items)
    return canonical, dict(merged), key


def _request_shape(
    method: str, params: Mapping[str, Any], defaults: Mapping[str, Any]
) -> tuple | None:
    """The memo key of a request, or ``None`` when it has none."""
    if not isinstance(method, str):
        return None
    shape: list[Any] = [method]
    for mapping in (params, defaults):
        for name, value in mapping.items():
            if not isinstance(value, _HASHABLE_SCALARS):
                return None
            shape.append((name, type(value), value))
        # Ends the parameters: a default is not a parameter.
        shape.append(None)
    return tuple(shape)


def _resolve_shape(
    method: str, params: Mapping[str, Any], defaults: Mapping[str, Any]
) -> tuple[str, dict[str, Any], tuple | None]:
    """:func:`resolve_request` without the memo and the source:
    ``(canonical, merged, sorted items or None when uncacheable)``."""
    spec, merged = resolve_method(method)
    merged.update(params)
    spec.validate_params(merged)
    for name, value in defaults.items():
        if spec.accepts(name):
            merged.setdefault(name, value)
    for value in merged.values():
        if not isinstance(value, _HASHABLE_SCALARS):
            return spec.name, merged, None
    return spec.name, merged, tuple(sorted(merged.items()))


def make_cache_key(
    source: int, method: str, params: Mapping[str, Any]
) -> tuple | None:
    """Canonical cache key for a query, or ``None`` when uncacheable.

    Two requests get the same key iff the engine would answer them
    identically (given equal seeds); see :func:`resolve_request` for
    the canonicalisation rules.
    """
    return resolve_request(source, method, params)[2]


def freeze_result(result: PPRResult) -> None:
    """Make ``result``'s vectors read-only (idempotent).

    For an answer that is about to be shared — every hit returns the
    one stored object — so an in-place mutation by any consumer would
    silently corrupt all future answers; freezing turns that bug into
    an immediate ``ValueError`` at the mutation site.
    """
    result.estimate.setflags(write=False)
    if result.residue is not None:
        result.residue.setflags(write=False)


@dataclass
class CacheStats:
    """Counters for one :class:`ResultCache` lifetime."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    expirations: int = 0
    stale_drops: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when none yet)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "stale_drops": self.stale_drops,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }


@dataclass
class _Entry:
    result: PPRResult
    version: int
    expires_at: float | None


class ResultCache:
    """Thread-safe LRU + TTL cache of version-stamped query results.

    Parameters
    ----------
    capacity:
        Maximum entries; the least-recently-used entry is evicted when
        a fill would exceed it.
    ttl:
        Optional time-to-live in seconds.  ``None`` disables expiry —
        version stamps already bound staleness on evolving graphs, so
        TTL mainly serves static graphs whose *popularity* drifts.
    clock:
        Injectable monotonic clock (tests pin it to step manually).
    """

    def __init__(
        self,
        capacity: int = 4096,
        *,
        ttl: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ParameterError(f"cache capacity must be >= 1, got {capacity}")
        if ttl is not None and ttl <= 0:
            raise ParameterError(f"cache ttl must be positive, got {ttl}")
        self.capacity = int(capacity)
        self.ttl = ttl
        self._clock = clock
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
        self._mutex = threading.Lock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

    def get(self, key: tuple, version: int) -> PPRResult | None:
        """The cached result for ``key`` at ``version``, or ``None``.

        A hit refreshes the entry's LRU position.  An entry stamped
        with a different graph version, or one past its TTL, is
        dropped and reported as a miss — the caller recomputes and
        re-fills at the current version.
        """
        with self._mutex:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            if entry.version != version:
                del self._entries[key]
                self.stats.stale_drops += 1
                self.stats.misses += 1
                return None
            if entry.expires_at is not None and self._clock() >= entry.expires_at:
                del self._entries[key]
                self.stats.expirations += 1
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry.result

    def put(self, key: tuple, result: PPRResult, version: int) -> None:
        """Fill ``key`` with ``result`` computed at graph ``version``.

        The entry's arrays are frozen (:func:`freeze_result`): every
        hit shares the one stored object.
        """
        freeze_result(result)
        expires_at = None if self.ttl is None else self._clock() + self.ttl
        with self._mutex:
            self._entries[key] = _Entry(result, int(version), expires_at)
            self._entries.move_to_end(key)
            self.stats.insertions += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def invalidate(self, version: int | None = None) -> int:
        """Drop stale entries; return how many were dropped.

        With ``version`` given, every entry stamped with a *different*
        version goes (the writer path calls this with the post-update
        version, clearing all pre-update answers in one sweep).  With
        ``version=None`` the cache is cleared outright.
        """
        with self._mutex:
            if version is None:
                dropped = len(self._entries)
                self._entries.clear()
            else:
                stale = [
                    key
                    for key, entry in self._entries.items()
                    if entry.version != version
                ]
                for key in stale:
                    del self._entries[key]
                dropped = len(stale)
            self.stats.invalidations += dropped
            return dropped

    def version_of(self, key: tuple) -> int | None:
        """Version stamp of ``key``'s entry (no LRU touch), or ``None``."""
        with self._mutex:
            entry = self._entries.get(key)
            return None if entry is None else entry.version

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResultCache(size={len(self)}/{self.capacity}, "
            f"ttl={self.ttl}, hit_rate={self.stats.hit_rate:.2f})"
        )
