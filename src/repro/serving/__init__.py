"""Concurrent PPR serving: versioned cache + flights + two tiers + load.

The per-query machinery (:mod:`repro.api`) answers one query well;
this package makes it a *service*:

* :class:`~repro.serving.server.EngineServer` — the thread tier:
  futures in, :class:`~repro.serving.flights.ServedResult` out, misses
  solved one at a time by one worker thread, graph updates serialised
  against in-flight reads.
* :class:`~repro.serving.flights.ServingTier` — the read side both
  tiers share (``submit`` / ``try_submit`` and the one admit body),
  over a :class:`~repro.serving.flights.FlightTable`: a repeat is a
  cache hit, a duplicate of a request being solved joins that solve.
* :class:`~repro.serving.cache.ResultCache` — LRU memoisation of full
  answers, stamped with the graph version exactly like the engine's
  index caches.
* :class:`~repro.serving.locks.RWLock` — the readers-writer primitive
  the consistency guarantee rests on.
* :class:`~repro.serving.loadtest.WorkloadGenerator` /
  :func:`~repro.serving.loadtest.run_loadtest` — synthetic Zipfian
  traffic and the load/soak harness behind ``repro-ppr loadtest``,
  which drives the front door and reads each request's fate from the
  door's counters.
* :class:`~repro.serving.sharded.ShardedDispatcher` /
  :class:`~repro.serving.shm.SharedGraphImage` — the process-parallel
  tier: N worker processes each hold one bare ``PPREngine`` over one
  zero-copy shared-memory graph image, fronted by consistent-hash
  routing on the source id (cache affinity) with ``apply_updates``
  broadcast as a versioned barrier.
* :class:`~repro.serving.frontdoor.AsyncFrontDoor` — the asyncio
  admission tier over either backend: per-request deadlines and
  SLO-aware shedding/degradation; the one client path ``repro-ppr
  serve`` and every loadtest drive take, and the one place a
  request's fate (completed, shed, deadline rejected or expired,
  failed) is counted.
* :mod:`~repro.serving.supervisor` /
  :mod:`~repro.serving.faults` — the self-healing tier: restart
  policies (jittered backoff + budget), per-shard circuit breakers,
  deadline-aware read retries, and a seeded schedule-driven
  :class:`~repro.serving.faults.FaultInjector` so chaos runs replay
  exactly.

Both serving tiers accept ``wal_dir=`` to persist edge updates through
:mod:`repro.durability` — a fsynced write-ahead log plus atomic
checkpoints, recovered on cold restart before the first query is
admitted (see that package for the crash contract).
"""

from repro.serving.cache import (
    CacheStats,
    ResultCache,
    make_cache_key,
    resolve_request,
)
from repro.serving.faults import FaultInjector, FaultSpec
from repro.serving.flights import ServedResult
from repro.serving.frontdoor import AsyncFrontDoor, FrontDoorStats
from repro.serving.loadtest import (
    LoadtestReport,
    LoadtestStats,
    Operation,
    Workload,
    WorkloadGenerator,
    run_loadtest,
)
from repro.serving.locks import RWLock
from repro.serving.server import EngineServer
from repro.serving.sharded import ShardedDispatcher, WorkerConfig
from repro.serving.shm import SharedGraphHandle, SharedGraphImage
from repro.serving.supervisor import CircuitBreaker, RestartPolicy, RetryPolicy

__all__ = [
    "AsyncFrontDoor",
    "FrontDoorStats",
    "CircuitBreaker",
    "FaultInjector",
    "FaultSpec",
    "RestartPolicy",
    "RetryPolicy",
    "EngineServer",
    "ServedResult",
    "ResultCache",
    "CacheStats",
    "make_cache_key",
    "resolve_request",
    "RWLock",
    "ShardedDispatcher",
    "WorkerConfig",
    "SharedGraphHandle",
    "SharedGraphImage",
    "WorkloadGenerator",
    "Workload",
    "Operation",
    "LoadtestReport",
    "LoadtestStats",
    "run_loadtest",
]
