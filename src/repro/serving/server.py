"""The serving front door: engine + scheduler + cache + update path.

:class:`EngineServer` is what "serving heavy traffic" means in this
repo: a thread-safe facade over one :class:`~repro.api.engine.PPREngine`
that composes the three serving mechanisms into one consistency story:

* **Reads** (``submit``/``query``) run under the *shared* side of a
  :class:`~repro.serving.locks.RWLock`: cache lookup, version stamp,
  and the batched solve all happen at one graph version.
* **Writes** (``apply_updates``) take the *exclusive* side: the graph
  version bumps and the result cache is invalidated while no read is
  in flight, so no request is ever answered from a pre-update vector —
  the same guarantee the engine gives its index caches, extended to
  memoised results.
* **Batching**: cache misses flow into the
  :class:`~repro.serving.scheduler.QueryScheduler`'s micro-batch
  window and are answered by coalesced ``batch_query`` calls — one
  solve per distinct source; the executor re-checks the cache at
  dispatch time, so a burst of identical requests costs one solve even
  when it straddles batches.

Every future resolves to a
:class:`~repro.serving.scheduler.ServedResult` carrying the answer,
the graph version it was computed at, whether it was a cache hit, and
how many requests its dispatch coalesced.

>>> server = EngineServer(graph, alpha=0.2, seed=7)
>>> with server:
...     futures = [server.submit(s) for s in sources]   # any thread
...     answers = [f.result() for f in futures]
...     server.apply_updates([("+", 0, 9)])             # exclusive
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.api.engine import PPREngine
from repro.core.result import PPRResult
from repro.errors import DeadlineExceeded, ParameterError
from repro.graph.digraph import DiGraph
from repro.graph.dynamic import DynamicGraph
from repro.serving.cache import ResultCache, resolve_request
from repro.serving.locks import RWLock
from repro.serving.scheduler import QueryScheduler, ServedResult

__all__ = ["EngineServer"]


class EngineServer:
    """Thread-safe batched/cached query serving over one engine.

    Parameters
    ----------
    graph_or_engine:
        A :class:`~repro.api.engine.PPREngine` to serve, or a
        :class:`DiGraph` / :class:`DynamicGraph` to build one from
        (with ``alpha``/``seed`` forwarded).
    alpha, seed:
        Engine construction parameters (ignored when an engine is
        passed).
    cache_capacity, cache_ttl:
        Result-cache sizing; ``cache_capacity=0`` disables result
        caching entirely (every request goes through the scheduler).
    window, max_batch:
        Micro-batch window (seconds) and per-dispatch request cap for
        the scheduler.
    start:
        ``False`` defers the scheduler worker; tests drive dispatch
        deterministically via ``server.scheduler.run_pending()``.
    wal_dir, wal_fsync, checkpoint_every:
        ``wal_dir`` makes the server durable: updates are logged to a
        write-ahead log (fsynced before the version ack unless
        ``wal_fsync=False``) with checkpoints every
        ``checkpoint_every`` updates, and a restart on the same
        directory recovers the pre-crash graph — ``graph_or_engine``
        then only seeds a virgin directory and is ignored when durable
        state exists.  See :mod:`repro.durability`.
    durability:
        A pre-opened
        :class:`~repro.durability.manager.DurabilityManager` (its
        attached graph must be ``graph_or_engine``); mutually
        exclusive with ``wal_dir``.  Used by the crash harness to
        thread fault hooks through the stack.
    """

    def __init__(
        self,
        graph_or_engine: PPREngine | DiGraph | DynamicGraph,
        *,
        alpha: float = 0.2,
        seed: int = 0,
        cache_capacity: int = 4096,
        cache_ttl: float | None = None,
        window: float = 0.002,
        max_batch: int = 64,
        start: bool = True,
        wal_dir: str | Path | None = None,
        wal_fsync: bool = True,
        checkpoint_every: int | None = None,
        durability: Any | None = None,
    ) -> None:
        if wal_dir is not None and durability is not None:
            raise ParameterError(
                "pass wal_dir (server opens the durable state) or "
                "durability (a pre-opened DurabilityManager), not both"
            )
        self._durability = None
        if wal_dir is not None:
            if isinstance(graph_or_engine, PPREngine):
                raise ParameterError(
                    "wal_dir needs a graph, not a pre-built engine: the "
                    "server must be free to discard the passed graph in "
                    "favour of recovered durable state"
                )
            from repro.durability.manager import open_durable_graph

            base = (
                graph_or_engine
                if isinstance(graph_or_engine, DynamicGraph)
                else DynamicGraph(graph_or_engine)
            )
            self._durability, graph_or_engine = open_durable_graph(
                wal_dir,
                base,
                fsync=wal_fsync,
                checkpoint_every=checkpoint_every,
            )
        elif durability is not None:
            if durability.graph is None or durability.graph is not graph_or_engine:
                raise ParameterError(
                    "the DurabilityManager's attached graph must be the "
                    "graph passed to EngineServer"
                )
            self._durability = durability
        if isinstance(graph_or_engine, PPREngine):
            self._engine = graph_or_engine
        elif isinstance(graph_or_engine, (DiGraph, DynamicGraph)):
            self._engine = PPREngine(graph_or_engine, alpha=alpha, seed=seed)
        else:
            raise ParameterError(
                "EngineServer needs a PPREngine, DiGraph, or DynamicGraph; "
                f"got {type(graph_or_engine).__name__}"
            )
        if self._durability is not None:
            self._engine.attach_durability(self._durability)
        if cache_capacity < 0:
            raise ParameterError(
                f"cache_capacity must be >= 0, got {cache_capacity}"
            )
        self._rwlock = RWLock()
        self._cache = (
            ResultCache(cache_capacity, ttl=cache_ttl)
            if cache_capacity
            else None
        )
        self._scheduler = QueryScheduler(
            self._engine,
            window=window,
            max_batch=max_batch,
            executor=self._execute_group,
            start=start,
        )
        self._submitted = 0
        self._cache_hits_at_submit = 0
        #: guards the two submit-path counters (read-modify-write from
        #: many client threads; everything else has its own mutex)
        self._counter_mutex = threading.Lock()

    # -- components ------------------------------------------------------
    @property
    def engine(self) -> PPREngine:
        return self._engine

    @property
    def cache(self) -> ResultCache | None:
        return self._cache

    @property
    def scheduler(self) -> QueryScheduler:
        return self._scheduler

    @property
    def durability(self) -> Any | None:
        """The attached DurabilityManager, or None when volatile."""
        return self._durability

    @property
    def graph_version(self) -> int:
        return self._engine.graph_version

    # -- read path -------------------------------------------------------
    def submit(
        self,
        source: int,
        method: str = "powerpush",
        *,
        fresh: bool = False,
        deadline: float | None = None,
        **params: Any,
    ) -> Future:
        """Enqueue one query; returns a future of :class:`ServedResult`.

        The fast path answers from the result cache without touching
        the scheduler; misses join the current micro-batch.  Identical
        concurrent requests share one solve (keyed on the canonical
        request signature — this holds even with the cache disabled).
        ``fresh=True`` bypasses cache and coalescing for this request —
        use it to draw independent samples from unseeded stochastic
        methods, whose answers are otherwise memoised by request
        signature.  ``deadline`` is a ``time.monotonic()`` timestamp:
        an already-expired request raises
        :class:`~repro.errors.DeadlineExceeded` here, and one that
        expires in the micro-batch queue is failed fast at dispatch
        instead of occupying a batch slot.
        """
        if self._scheduler.closed:
            # Checked up front so a cache hit cannot mask use-after-
            # close (misses would raise from the scheduler anyway).
            raise RuntimeError("server is closed")
        if deadline is not None and time.monotonic() >= deadline:
            raise DeadlineExceeded(
                f"deadline passed before submit of source {source}"
            )
        canonical, merged, key = resolve_request(
            source,
            method,
            params,
            # Folding the engine defaults in makes canonicalisation
            # complete: spelling out alpha=engine.alpha keys (and
            # coalesces) identically to omitting it.
            defaults={
                "alpha": self._engine.alpha,
                "dead_end_policy": self._engine.dead_end_policy,
            },
        )
        if fresh:
            key = None
        with self._counter_mutex:
            self._submitted += 1
        if key is not None and self._cache is not None:
            with self._rwlock.read():
                version = self._engine.graph_version
                # Miss counting is deferred to the dispatch-time
                # re-check so each request contributes one outcome.
                hit = self._cache.get(key, version, count_miss=False)
                if hit is not None:
                    with self._counter_mutex:
                        self._cache_hits_at_submit += 1
                    future: Future = Future()
                    future.set_result(
                        ServedResult(
                            result=hit,
                            version=version,
                            cache_hit=True,
                            batch_size=1,
                            deadline=deadline,
                        )
                    )
                    return future
        return self._scheduler.submit(
            source,
            canonical,
            fresh=fresh,
            deadline=deadline,
            cache_key=key,
            _resolved=(canonical, merged),
        )

    def query(
        self,
        source: int,
        method: str = "powerpush",
        *,
        fresh: bool = False,
        timeout: float | None = None,
        **params: Any,
    ) -> ServedResult:
        """Blocking convenience: ``submit(...).result(timeout)``."""
        return self.submit(source, method, fresh=fresh, **params).result(
            timeout
        )

    def batch(
        self,
        sources: Iterable[int],
        method: str = "powerpush",
        **params: Any,
    ) -> list[ServedResult]:
        """Submit many queries and wait for all, in source order."""
        futures = [self.submit(s, method, **params) for s in sources]
        return [f.result() for f in futures]

    # -- write path ------------------------------------------------------
    def apply_updates(self, updates: Iterable[tuple[str, int, int]]) -> int:
        """Apply edge updates exclusively; returns the new graph version.

        Waits for in-flight reads to finish (new reads queue behind the
        writer), bumps the graph version through the engine, and drops
        every cached result stamped with an older version — after this
        returns, all answers are post-update (also when the batch
        raised after a valid prefix: that moved the version too).
        """
        with self._rwlock.write():
            try:
                return self._engine.apply_updates(updates)
            finally:
                if self._cache is not None:
                    self._cache.invalidate(self._engine.graph_version)

    # -- scheduler executor ---------------------------------------------
    def _execute_group(
        self,
        method: str,
        params: dict,
        sources: list,
        keys: list,
    ) -> tuple[Sequence[PPRResult], int, Sequence[bool]]:
        """Answer one coalesced group under the shared lock.

        Re-checks the cache at dispatch time (a request may have been
        filled by an earlier batch while this one queued), solves the
        remaining sources with one ``batch_query``, and fills the cache
        at the version the whole group was computed at.  Returns the
        per-position cache-hit flags so the scheduler reports honest
        provenance (a memoised answer is not a batch solve).
        """
        with self._rwlock.read():
            version = self._engine.graph_version
            results: list[PPRResult | None] = [None] * len(sources)
            hits = [False] * len(sources)
            missing_positions: list[int] = []
            if self._cache is not None:
                for position, key in enumerate(keys):
                    if key is None:
                        missing_positions.append(position)
                        continue
                    hit = self._cache.get(key, version)
                    if hit is not None:
                        results[position] = hit
                        hits[position] = True
                    else:
                        missing_positions.append(position)
            else:
                missing_positions = list(range(len(sources)))
            if missing_positions:
                solved = self._engine.batch_query(
                    [sources[p] for p in missing_positions],
                    method,
                    **params,
                )
                for position, result in zip(missing_positions, solved):
                    results[position] = result
                    key = keys[position]
                    if key is not None and self._cache is not None:
                        self._cache.put(key, result, version)
            return results, version, hits  # type: ignore[return-value]

    # -- stats and lifecycle ---------------------------------------------
    def stats(self) -> dict[str, Any]:
        """One nested dict with server, scheduler, cache, engine stats."""
        cache_stats: Mapping[str, float] = (
            self._cache.stats.as_dict() if self._cache is not None else {}
        )
        scheduler_stats = self._scheduler.stats.as_dict()
        with self._counter_mutex:
            submitted = self._submitted
            submit_hits = self._cache_hits_at_submit
        return {
            "requests": submitted,
            "cache_hits_at_submit": submit_hits,
            "hit_rate_at_submit": (
                submit_hits / submitted if submitted else 0.0
            ),
            "graph_version": self._engine.graph_version,
            "scheduler": scheduler_stats,
            "cache": dict(cache_stats),
            "engine_queries": self._engine.stats.queries,
        }

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (submissions are rejected)."""
        return self._scheduler.closed

    def close(self) -> None:
        """Drain and stop the scheduler; the engine stays usable.

        Idempotent: repeated calls (explicit ``close`` plus context-
        manager exit plus a ``finally`` in a teardown path) are no-ops
        after the first.  The server holds no process-external
        resources itself; when it serves a shared-memory graph the
        owning :class:`~repro.serving.shm.SharedGraphImage` is closed
        by whoever exported/attached it (see
        :mod:`repro.serving.sharded` for the split of ``unlink`` in
        the parent vs ``close`` in every worker).  An attached
        durability manager is flushed and closed after the scheduler
        drains, so a graceful shutdown leaves no pending WAL buffer.
        """
        self._scheduler.close()
        if self._durability is not None:
            self._durability.close()

    def __enter__(self) -> "EngineServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cache = (
            f"cache={len(self._cache)}/{self._cache.capacity}"
            if self._cache is not None
            else "cache=off"
        )
        return (
            f"EngineServer(n={self._engine.graph.num_nodes}, "
            f"version={self._engine.graph_version}, {cache}, "
            f"pending={self._scheduler.pending})"
        )
