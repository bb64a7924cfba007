"""The thread serving tier: one engine, one solver thread, one flight table.

:class:`EngineServer` is a thread-safe facade over one
:class:`~repro.api.engine.PPREngine`, answering through the same
cache + single-flight module as the sharded tier
(:mod:`repro.serving.flights`):

* **Reads** (``submit``/``query``) take the *shared* side of a
  :class:`~repro.serving.locks.RWLock` to look the request up: a hit
  at the current graph version is answered at once, a duplicate of a
  request already being solved joins that flight, and anything else
  leads a flight that the server's one worker thread solves — in the
  order they were led, each with one ``engine.query`` under the shared
  lock, stamped with the version it was solved at.  A flight whose
  deadline has passed by then is failed with
  :class:`~repro.errors.DeadlineExceeded` instead of solved.
  ``try_submit`` is the same read, but returns ``None`` instead of
  waiting when a writer holds or awaits the lock.
* **Writes** (``apply_updates``) take the *exclusive* side: the graph
  version bumps and the result cache is invalidated while no read is
  in flight, so no request is ever answered from a pre-update vector —
  the same guarantee the engine gives its index caches, extended to
  memoised results.

Every future resolves to a :class:`~repro.serving.flights.ServedResult`
carrying the answer, the graph version it was computed at and whether
it was a cache hit.

>>> server = EngineServer(graph, alpha=0.2, seed=7)
>>> with server:
...     futures = [server.submit(s) for s in sources]   # any thread
...     answers = [f.result() for f in futures]
...     server.apply_updates([("+", 0, 9)])             # exclusive
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import Any, Iterable

from repro.api.engine import PPREngine
from repro.errors import DeadlineExceeded, NodeNotFoundError, ParameterError
from repro.graph.digraph import DiGraph
from repro.graph.dynamic import DynamicGraph
from repro.serving.cache import ResultCache, resolve_request
from repro.serving.flights import (
    Flight,
    FlightTable,
    ServedResult,
    as_future,
    fail,
    settle,
)
from repro.serving.locks import RWLock

__all__ = ["EngineServer"]


class EngineServer:
    """Thread-safe cached query serving over one engine.

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
        caching (identical requests in flight still share one solve).
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
        #: the engine refuses a resize, so a source is checked against
        #: this count — not the graph, whose snapshot takes the engine
        #: lock (and is rebuilt on the first read after an update)
        self._num_nodes = self._engine.graph.num_nodes
        # Folding the engine defaults in makes canonicalisation
        # complete: spelling out alpha=engine.alpha keys (and flies)
        # identically to omitting it.
        self._defaults = {
            "alpha": self._engine.alpha,
            "dead_end_policy": self._engine.dead_end_policy,
        }
        self._flight_table = FlightTable(cache_capacity, cache_ttl)
        self._rwlock = RWLock()
        #: guards the flight table, the counter and ``_closed``
        self._mutex = threading.Lock()
        self._submitted = 0
        self._closed = False
        #: the one solver thread, fed in the order flights are led
        self._worker = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-engine-server"
        )

    # -- components ------------------------------------------------------
    @property
    def engine(self) -> PPREngine:
        return self._engine

    @property
    def cache(self) -> ResultCache | None:
        return self._flight_table.cache

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
        """Answer one query from the cache, a flight or the worker.

        Returns a future of :class:`ServedResult`.  Identical requests
        (keyed on the canonical request signature) share one solve
        while it is in flight, and later ones are answered from the
        cache.  ``fresh=True`` bypasses both for this request — use it
        to draw independent samples from unseeded stochastic methods,
        whose answers are otherwise memoised by request signature.
        ``deadline`` is a ``time.monotonic()`` timestamp: an
        already-expired request raises
        :class:`~repro.errors.DeadlineExceeded` here, and one that
        expires before the worker reaches it is failed with it then.
        The method, its parameters and the source are validated here,
        so typos raise at the call site, not in the worker.
        """
        answer = self._admit(
            source, method, params, fresh=fresh, deadline=deadline, wait=True
        )
        assert answer is not None  # a waiting admit always takes the lock
        return as_future(answer)

    def try_submit(
        self,
        source: int,
        method: str = "powerpush",
        *,
        fresh: bool = False,
        deadline: float | None = None,
        **params: Any,
    ) -> ServedResult | Future | None:
        """:meth:`submit` that never waits on the read lock.

        ``None`` when a writer holds the lock or waits for it — nothing
        was admitted, and :meth:`submit` (which waits) is the retry.
        A cache hit is the :class:`ServedResult` itself, with no future
        built; a join or a miss is the future :meth:`submit` returns.
        """
        return self._admit(
            source, method, params, fresh=fresh, deadline=deadline, wait=False
        )

    def _admit(
        self,
        source: int,
        method: str,
        params: dict[str, Any],
        *,
        fresh: bool,
        deadline: float | None,
        wait: bool,
    ) -> ServedResult | Future | None:
        """The one admit body behind :meth:`submit` and :meth:`try_submit`."""
        source = int(source)
        if deadline is not None and time.monotonic() >= deadline:
            raise DeadlineExceeded(
                f"deadline passed before submit of source {source}"
            )
        canonical, merged, key = resolve_request(
            source, method, params, defaults=self._defaults
        )
        if not 0 <= source < self._num_nodes:
            raise NodeNotFoundError(
                f"source {source} outside [0, {self._num_nodes})"
            )
        if fresh:
            key = None
        # The read section pins the version a hit is checked against.
        if not self._rwlock.try_acquire_read():
            if not wait:
                return None
            self._rwlock.acquire_read()
        try:
            with self._mutex:
                if self._closed:
                    raise RuntimeError("server is closed")
                self._submitted += 1
                version = self._engine.graph_version
                answer: ServedResult | Future | None = self._flight_table.hit(
                    key, version, deadline
                )
                if answer is None:
                    future: Future = Future()
                    if not self._flight_table.join(
                        key, version, future, deadline
                    ):
                        flight = Flight(
                            [future], source, canonical, merged, deadline
                        )
                        self._flight_table.lead(flight, key, version)
                        # Queued under the mutex: close() cannot slip
                        # in between leading a flight and handing it
                        # over.
                        self._worker.submit(self._solve, flight)
                    answer = future
        finally:
            self._rwlock.release_read()
        return answer

    def _solve(self, flight: Flight) -> None:
        """The worker: solve one flight, land it, settle its waiters."""
        try:
            if flight.deadline is not None and time.monotonic() >= flight.deadline:
                raise DeadlineExceeded(
                    f"source {flight.source}: deadline passed before the "
                    f"server solved it"
                )
            with self._rwlock.read():
                served = ServedResult(
                    result=self._engine.query(
                        flight.source, flight.method, **flight.params
                    ),
                    version=self._engine.graph_version,
                    cache_hit=False,
                    deadline=flight.deadline,
                )
                with self._mutex:
                    waiters = self._flight_table.land(
                        flight, served, self._engine.graph_version
                    )
        except Exception as exc:  # noqa: BLE001 - forwarded to the callers
            with self._mutex:
                waiters = self._flight_table.land(flight)
            fail(waiters, exc)
            return
        settle(waiters, served)

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
                if self.cache is not None:
                    self.cache.invalidate(self._engine.graph_version)

    # -- stats and lifecycle ---------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Server, flight, cache and engine counters in one dict."""
        with self._mutex:
            submitted = self._submitted
            flights = self._flight_table.stats()
        return {
            "requests": submitted,
            "graph_version": self._engine.graph_version,
            "flights": flights,
            "cache": (
                self.cache.stats.as_dict() if self.cache is not None else {}
            ),
            "engine_queries": self._engine.stats.queries,
        }

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (submissions are rejected)."""
        with self._mutex:
            return self._closed

    def close(self) -> None:
        """Solve what was submitted, stop the worker; the engine stays usable.

        Idempotent: repeated calls (explicit ``close`` plus context-
        manager exit plus a ``finally`` in a teardown path) are no-ops
        after the first.  The server holds no process-external
        resources itself; when it serves a shared-memory graph the
        owning :class:`~repro.serving.shm.SharedGraphImage` is closed
        by whoever exported/attached it (see
        :mod:`repro.serving.sharded` for the split of ``unlink`` in
        the parent vs ``close`` in every worker).  An attached
        durability manager is flushed and closed after the worker
        drains, so a graceful shutdown leaves no pending WAL buffer.

        The worker is not a daemon thread: a server that is never
        closed still solves its whole queue at interpreter exit before
        the process ends.
        """
        with self._mutex:
            if self._closed:
                return
            self._closed = True
        self._worker.shutdown(wait=True)
        if self._durability is not None:
            self._durability.close()

    def __enter__(self) -> "EngineServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cache = (
            f"cache={len(self.cache)}/{self.cache.capacity}"
            if self.cache is not None
            else "cache=off"
        )
        return (
            f"EngineServer(n={self._engine.graph.num_nodes}, "
            f"version={self._engine.graph_version}, {cache}, "
            f"flights={len(self._flight_table)})"
        )
