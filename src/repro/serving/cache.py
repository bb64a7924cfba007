"""Versioned result cache: ``(source, method, params) -> answer``.

Zipfian query traffic answers the same hot sources over and over; the
cheapest query is the one never recomputed.  :class:`ResultCache`
memoises full query answers in an LRU, with every entry **stamped with
the graph version it was computed at** — exactly the staleness
discipline :class:`~repro.api.engine.PPREngine` applies to its
walk/BePI/FORA indexes.  A lookup must present the current version; an
entry stamped otherwise is dropped on sight (counted in
``stats.stale_drops``), so after ``apply_updates`` no request can be
answered from a pre-update vector.  An entry leaves only that way or
by LRU eviction: the answer to a request at a given version never
changes, so there is nothing for a time-to-live to expire.

The cache stores one object per entry and every hit returns that very
object, so it builds nothing per hit; the serving tiers store the
frozen :class:`~repro.serving.flights.ServedResult` every deadline-less
hit hands out, its arrays made read-only first (:func:`freeze_result`).

Keys canonicalise the request through the solver registry —
``fora+`` and ``fora`` + ``use_index=True`` share an entry, parameter
order never matters, a value is keyed with its type — and requests
carrying live objects (a ``rng`` generator, a trace sink) are declared
uncacheable (:func:`make_cache_key` returns ``None``) rather than
mis-shared.  :func:`resolve_request` is the pure resolver behind the
keys; a serving tier remembers its resolutions per request shape (a
tier's defaults never change), so a hit resolves nothing.

The cache is thread-safe on its own, but version consistency across
*concurrent* readers and writers needs lookups and fills to happen
where no writer of the :class:`~repro.serving.locks.RWLock` can move
the version — both serving tiers wire that, through one
:class:`~repro.serving.flights.FlightTable` each.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Any, Generic, Mapping, TypeVar

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


def resolve_request(
    source: int,
    method: str,
    params: Mapping[str, Any],
    *,
    defaults: Mapping[str, Any] | None = None,
) -> tuple[str, dict[str, Any], tuple | None]:
    """Resolve a request: the pure, unmemoised resolver.

    Returns ``(canonical_method, merged_params, cache_key)`` where the
    canonical name and merged parameters have alias-implied overrides
    (``fora+`` => ``use_index=True``) folded in and validated against
    the solver's schema, and ``cache_key`` is ``None`` when the request
    is uncacheable.  Raises
    :class:`~repro.errors.UnknownMethodError` for unknown methods and
    :class:`~repro.errors.ParameterError` for parameters outside the
    schema, so typos surface at submit time, not deep in a worker
    thread.

    ``defaults`` are engine-level fallbacks (a serving tier passes its
    engine's ``alpha``/``dead_end_policy``): each one the solver
    accepts is folded in via ``setdefault``, so a request that spells
    out a default explicitly gets the same key — and therefore the
    same cache entry and flight — as one that omits it.

    A serving tier does not call this per request: its defaults are
    fixed when it is built, so it remembers :func:`_resolve_shape`'s
    answer per request shape (see
    :class:`~repro.serving.flights.ServingTier`).
    """
    canonical, merged, items = _resolve_shape(
        method, params, {} if defaults is None else defaults
    )
    key = None if items is None else (canonical, int(source), items)
    return canonical, merged, key


def _resolve_shape(
    method: str, params: Mapping[str, Any], defaults: Mapping[str, Any]
) -> tuple[str, dict[str, Any], tuple | None]:
    """:func:`resolve_request` without the source: ``(canonical,
    merged, items or None when uncacheable)``, where ``items`` are
    ``merged``'s ``(name, type, value)`` triples sorted by name."""
    spec, merged = resolve_method(method)
    merged.update(params)
    spec.validate_params(merged)
    for name, value in defaults.items():
        if spec.accepts(name):
            merged.setdefault(name, value)
    for value in merged.values():
        if not isinstance(value, _HASHABLE_SCALARS):
            return spec.name, merged, None
    return spec.name, merged, tuple(
        sorted((name, type(value), value) for name, value in merged.items())
    )


def make_cache_key(
    source: int, method: str, params: Mapping[str, Any]
) -> tuple | None:
    """Canonical cache key for a query, or ``None`` when uncacheable.

    Two requests get the same key iff the engine would answer them
    identically (given equal seeds); see :func:`resolve_request` for
    the canonicalisation rules.  Each parameter is keyed with its type
    as well as its value: ``1``, ``1.0`` and ``True`` compare equal,
    but the engine may answer ``num_walks=200`` and refuse
    ``num_walks=200.0``, so they never share an entry.
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
        return {**asdict(self), "hit_rate": self.hit_rate}


_Answer = TypeVar("_Answer")


@dataclass
class _Entry(Generic[_Answer]):
    answer: _Answer
    version: int


class ResultCache(Generic[_Answer]):
    """Thread-safe LRU cache of version-stamped query answers.

    An answer is whatever is stored — a
    :class:`~repro.core.result.PPRResult`, or the
    :class:`~repro.serving.flights.ServedResult` a serving tier hands
    out — and every hit returns that one object, so only an answer
    that may be shared belongs here (see :func:`freeze_result`).

    Parameters
    ----------
    capacity:
        Maximum entries; the least-recently-used entry is evicted when
        a fill would exceed it.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ParameterError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: OrderedDict[tuple, _Entry[_Answer]] = OrderedDict()
        self._mutex = threading.Lock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

    def get(
        self, key: tuple, version: int, *, count_miss: bool = True
    ) -> _Answer | None:
        """The cached answer for ``key`` at ``version``, or ``None``.

        A hit refreshes the entry's LRU position.  An entry stamped
        with a different graph version is dropped and reported as a
        miss — the caller recomputes and re-fills at the current
        version.  ``count_miss=False`` leaves a miss uncounted, for a
        caller whose miss is counted by a lookup that follows.
        """
        with self._mutex:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += count_miss
                return None
            if entry.version != version:
                del self._entries[key]
                self.stats.stale_drops += 1
                self.stats.misses += count_miss
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry.answer

    def put(self, key: tuple, answer: _Answer, version: int) -> None:
        """Fill ``key`` with ``answer`` computed at graph ``version``.

        Every hit returns ``answer`` itself until a version bump or an
        eviction drops it.
        """
        with self._mutex:
            self._entries[key] = _Entry(answer, int(version))
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
            f"hit_rate={self.stats.hit_rate:.2f})"
        )
