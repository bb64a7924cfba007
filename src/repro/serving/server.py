"""The thread serving tier: one engine, one solver thread.

:class:`EngineServer` is the read side of
:mod:`repro.serving.flights` over one
:class:`~repro.api.engine.PPREngine`.  What it owns:

* **where its version lives** — in the engine, whose graph version
  every answer is stamped with;
* **what a led flight does** — it is handed, under the tier's mutex,
  to the server's one worker thread, which solves flights in the order
  they were led, each with one ``engine.query`` under the shared side
  of the :class:`~repro.serving.locks.RWLock`.  A flight whose
  deadline has passed by then is failed with
  :class:`~repro.errors.DeadlineExceeded` instead of solved;
* **writes** (``apply_updates``) — they take the *exclusive* side: the
  graph version bumps and the result cache is invalidated while no read
  is in flight, so no request is ever answered from a pre-update vector
  — the same guarantee the engine gives its index caches, extended to
  memoised results.

>>> server = EngineServer(graph, alpha=0.2, seed=7)
>>> with server:
...     futures = [server.submit(s) for s in sources]   # any thread
...     answers = [f.result() for f in futures]
...     server.apply_updates([("+", 0, 9)])             # exclusive
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Iterable

from repro.api.engine import PPREngine
from repro.errors import DeadlineExceeded, ParameterError
from repro.graph.digraph import DiGraph
from repro.graph.dynamic import DynamicGraph
from repro.serving.flights import Flight, ServedResult, ServingTier, settle

__all__ = ["EngineServer"]


class EngineServer(ServingTier):
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
    cache_capacity:
        Result-cache entries; ``0`` disables result caching
        (identical requests in flight still share one solve).
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
        wal_dir: str | Path | None = None,
        wal_fsync: bool = True,
        checkpoint_every: int | None = None,
        durability: Any | None = None,
    ) -> None:
        super().__init__(cache_capacity)
        if wal_dir is not None and durability is not None:
            raise ParameterError(
                "pass wal_dir (server opens the durable state) or "
                "durability (a pre-opened DurabilityManager), not both"
            )
        if not isinstance(graph_or_engine, (PPREngine, DiGraph, DynamicGraph)):
            raise ParameterError(
                "EngineServer needs a PPREngine, DiGraph, or DynamicGraph; "
                f"got {type(graph_or_engine).__name__}"
            )
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
        self._engine = (
            graph_or_engine
            if isinstance(graph_or_engine, PPREngine)
            else PPREngine(graph_or_engine, alpha=alpha, seed=seed)
        )
        if self._durability is not None:
            self._engine.attach_durability(self._durability)
        #: the engine refuses a resize, so a source is checked against
        #: this count — not the graph, whose snapshot takes the engine
        #: lock (and is rebuilt on the first read after an update)
        self._num_nodes = self._engine.graph.num_nodes
        self._defaults = {
            "alpha": self._engine.alpha,
            "dead_end_policy": self._engine.dead_end_policy,
        }
        #: the one solver thread, fed in the order flights are led
        self._worker = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-engine-server"
        )

    # -- components ------------------------------------------------------
    @property
    def engine(self) -> PPREngine:
        return self._engine

    @property
    def dynamic_graph(self) -> DynamicGraph | None:
        """The graph :meth:`apply_updates` changes (``None``: static)."""
        return self._engine.dynamic_graph

    # -- where reads are answered and misses solved ----------------------
    def _read_version(self) -> int:
        return self._engine.graph_version

    def _send(self, flight: Flight) -> None:
        # Queued under the mutex: close() cannot slip in between
        # leading a flight and handing it over.
        self._worker.submit(self._solve, flight)

    def _solve(self, flight: Flight) -> None:
        """The worker: solve one flight, land it, settle its waiters.

        It lands inside the read section it was solved in, so no update
        can slip in between and keep its answer out of the cache.
        """
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
            self._fail(flight, exc)
            return
        settle(waiters, served)

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
            head = self._stats_head()
        return {**head, "engine_queries": self._engine.stats.queries}

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
