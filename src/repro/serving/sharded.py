"""Multi-process sharded serving over one shared-memory graph image.

The process-parallel tier the AccPPR harness (PAPERS.md; SNIPPETS.md
§3) motivates — a ``multiprocessing`` pool driving per-source solves
over one pre-built CSR.  Its read side (``submit``, cache, flights) is
:class:`~repro.serving.flights.ServingTier`, as in the thread tier;
the thread tier solves on one thread, and whether threads would scale
as far as processes — the C kernels release the GIL, and the global
sweep is most of a high-precision solve — is unmeasured (ROADMAP item
2).  What this tier owns is the solving in the shards and the
remembering in the parent:

* the graph's hot arrays live once in a
  :class:`~repro.serving.shm.SharedGraphImage`; every worker process
  maps the same physical pages zero-copy, holds one bare
  :class:`~repro.api.engine.PPREngine` over them, and its receive loop
  calls ``engine.query`` for each request in arrival order.  A shard
  only solves;
* **where its version lives** — in the dispatcher's ``_version``,
  which only moves under the write side of ``_rwlock`` (with the cache
  invalidation next to it), so the version a hit is checked against
  cannot change under a reader, and a fill is only accepted at the
  version that is current when it arrives;
* **what a led flight does** — it is routed and registered as pending
  on its shard under the mutex, and its message is put on the shard's
  queue after the mutex is released, still under the read lock; the
  collector's receipt of the answer lands the flight and is the cache
  fill;
* the dispatcher routes each miss by **consistent hashing on the
  source id**, so a source keeps its shard and removing a crashed
  worker re-routes only that worker's arc of the ring;
* the parent is the **only writer**: the dispatcher holds the one
  :class:`~repro.graph.dynamic.DynamicGraph` of the cluster (WAL
  hooked to it when durable).  ``apply_updates`` applies the batch
  there, makes it durable, merges the new snapshot once and exports it
  as the next *generation* of the shared image — all before any reader
  is blocked — then takes the writer lock for the **hand-over**: every
  shard is told "attach this handle at version V", swaps the new
  generation in between two solves, unmaps the old one and acks;
  when every live shard has acked or died the previous generation is
  unlinked.  A shard never applies an update or holds a private copy
  of the adjacency arrays, and no request is ever answered from a
  pre-update vector.

Because every seeded answer is a pure function of ``(seed, source)``
(:func:`repro.api.engine.per_source_rng`), *where* a request runs
cannot change *what* it answers: process-mode responses are
byte-identical to the single-process path, which is exactly how the
tests check this module.

Request/response framing: requests and control messages are small
picklable tuples over per-worker ``multiprocessing`` queues; per-worker
FIFO ordering is what makes the update barrier correct (queries
enqueued before the barrier are answered at the old version, the
barrier message follows them, and new queries wait on the writer
lock).  Replies come back the same way: an answer — the
:class:`ServedResult` with its dense ``estimate`` and ``residue`` — is
pickled through the shard's response queue like errors, stats,
hand-over acks and heartbeats.  Only misses reach a shard, so the
pipe carries one reply per solve, and a solve costs far more than
pickling its two vectors.

Self-healing (PR 9): the dispatcher runs a supervisor thread that
notices worker death (``process.is_alive()``, surfaced promptly by the
timed collector waits), respawns the shard after a jittered
exponential backoff (:class:`~repro.serving.supervisor.RestartPolicy`),
hands it the current generation — the hand-over that also boots a
shard and moves it across an update, so recovery is one attach however
many updates there were — and only then restores its arc on the ring.
A restart budget turns a crash-looping shard into a permanent removal with a
``degraded_capacity`` stats flag instead of an outage.  Reads get a
deadline-aware bounded retry (:class:`RetryPolicy`) and per-shard
circuit breakers (:class:`CircuitBreaker`) — all safe because answers
are pure functions of ``(seed, source)``, so a retried or rerouted
request cannot change bytes.  A seeded
:class:`~repro.serving.faults.FaultInjector` threads deterministic
fault schedules through ``submit`` (process signals) and the worker
loop (reply drops/delays, mid-hand-over crashes) so chaos runs replay
exactly.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import queue
import signal
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from functools import partial
from multiprocessing import get_all_start_methods, get_context
from pathlib import Path
from types import FrameType
from typing import Any, Callable, Iterable, cast

from repro.api.engine import PPREngine
from repro.errors import (
    DeadlineExceeded,
    ParameterError,
    WorkerUnavailableError,
)
from repro.graph.digraph import DiGraph
from repro.graph.dynamic import DynamicGraph
from repro.serving.faults import FaultInjector, FaultSpec, WorkerFaultPlan
from repro.serving.flights import Flight, ServedResult, ServingTier, settle
from repro.serving.shm import (
    SharedGraphHandle,
    SharedGraphImage,
    close_inherited_segments,
)
from repro.serving.supervisor import CircuitBreaker, RestartPolicy, RetryPolicy

__all__ = ["ShardedDispatcher", "WorkerConfig"]

#: Collector/barrier poll quantum (seconds): every blocking wait in the
#: dispatcher is a timed wait at this granularity so worker death is
#: noticed promptly and no future can hang forever.
_POLL = 0.05

#: Per-worker vnode count on the hash ring.  Enough that each worker's
#: share of sources stays within a few percent of uniform and a removed
#: worker's arc scatters evenly over the survivors.
_VNODES = 48

#: Seconds a hand-over (boot, ``apply_updates``, respawn) waits for a
#: shard to ack or die before declaring it wedged.
_UPDATE_TIMEOUT = 30.0


@dataclass(frozen=True)
class WorkerConfig:
    """Picklable per-worker :class:`PPREngine` construction recipe."""

    alpha: float = 0.2
    seed: int = 0
    dead_end_policy: str = "redirect-to-source"
    #: Worker-side fault schedule (chaos runs only; empty in production).
    faults: tuple[FaultSpec, ...] = ()


def _raise_exit(signum: int, frame: FrameType | None) -> None:
    """SIGTERM -> SystemExit so worker ``finally`` blocks run."""
    raise SystemExit(0)


class _Shard:
    """Worker-side state: one engine and the generation under it.

    The first hand-over builds the :class:`PPREngine`; every later one
    swaps the graph under that same engine.  The receive loop is the
    only caller, so nothing here locks.
    """

    #: unset before the first hand-over (the dispatcher routes nothing
    #: to a shard that has not acked it)
    engine: PPREngine

    def __init__(self, config: WorkerConfig) -> None:
        self._config = config
        self._image: SharedGraphImage | None = None
        self.requests = 0
        self.failures = 0
        self.expired = 0

    def attach(self, handle: SharedGraphHandle, version: int) -> bool:
        """Map the generation behind ``handle``; serve it as ``version``.

        Returns whether it replaced one (not so at boot).  A failure is
        not reported: it kills the worker, and the respawn is handed
        whatever generation is current by then.
        """
        config = self._config
        image = SharedGraphImage.attach(handle)
        graph = image.graph()
        retired, self._image = self._image, image
        if retired is None:
            self.engine = PPREngine(
                graph,
                alpha=config.alpha,
                seed=config.seed,
                dead_end_policy=config.dead_end_policy,
            )
        self.engine.replace_graph(graph, version)
        if retired is not None:
            # The swap left no view of its arrays, so this unmaps them.
            retired.close()
        return retired is not None

    def solve(
        self,
        source: int,
        method: str,
        params: dict[str, Any],
        deadline: float | None,
    ) -> ServedResult:
        """Answer one query, or raise what its caller is to be sent.

        The dispatcher sends the canonical method with the cluster's
        defaults folded in, so this is ``engine.query`` as asked; a
        request whose deadline has passed is failed instead of solved.
        """
        self.requests += 1
        if deadline is not None and time.monotonic() >= deadline:
            self.expired += 1
            raise DeadlineExceeded(
                f"source {source}: deadline passed before a shard solved it"
            )
        try:
            result = self.engine.query(source, method, **params)
        except Exception:
            self.failures += 1
            raise
        return ServedResult(
            result=result,
            version=self.engine.graph_version,
            cache_hit=False,
            deadline=deadline,
        )

    def stats(self) -> dict[str, int]:
        return {
            "requests": self.requests,
            "engine_queries": self.engine.stats.queries,
            "graph_version": self.engine.graph_version,
            "failures": self.failures,
            "expired": self.expired,
        }

    def heartbeat(self, responses: Any) -> None:
        """One unsolicited version report (none before boot)."""
        if self._image is not None:
            responses.put(
                ("heartbeat", self.engine.graph_version, time.monotonic())
            )

    def close(self) -> None:
        """Unmap the graph image; safe before (or after a failed) attach."""
        if self._image is not None:
            self._image.close()


def _worker_main(
    worker_id: int,
    config: WorkerConfig,
    requests: Any,
    responses: Any,
) -> None:
    """One shard: serve whatever generation it is handed, until stopped.

    Runs in a child process (module-level so the spawn start method can
    pickle it).  Messages in, messages out:

    * ``("attach", barrier_id, handle, version)`` ->
      ``("attached", barrier_id)`` once this process serves the image
      behind ``handle`` as ``version`` and has unmapped the one before;
      always a worker's first message, then one per update
    * ``("query", req_id, source, method, params, deadline)`` ->
      ``("result", req_id, ServedResult)`` or ``("error", req_id,
      exc)`` — ``deadline`` is a ``time.monotonic()`` timestamp,
      meaningful across the process boundary because
      ``CLOCK_MONOTONIC`` is system-wide
    * ``("stats", req_id)`` -> ``("stats", req_id, dict)``
    * ``("stop",)`` -> clean exit.

    The worker also emits unsolicited
    ``("heartbeat", graph_version, monotonic_ts)`` messages — ahead of
    every hand-over ack and then every ``_HEARTBEAT_INTERVAL`` seconds,
    busy or idle — which the dispatcher uses for health visibility and
    for asserting that a respawned worker starts at the current graph
    version (it memoises nothing, so there is nothing stale to carry
    across a respawn).

    The loop calls its engine directly, one message at a time in FIFO
    order: the dispatcher has already answered cache hits and joined
    duplicates to their flight, so a shard has nothing to coalesce —
    the process pool of per-source solves over one shared CSR that
    the AccPPR harness runs.
    A worker never owns a shared segment — teardown only closes its
    own mapping of the graph image, so a SIGKILLed worker cannot leak
    ``/dev/shm`` entries (satisfying the ``shm-discipline`` contract
    from the child side) — and keeps no mapping a fork handed it,
    which would pin a retired generation.
    """
    signal.signal(signal.SIGTERM, _raise_exit)
    close_inherited_segments()
    shard = _Shard(config)
    try:
        _serve_messages(
            worker_id,
            shard,
            requests,
            responses,
            WorkerFaultPlan(config.faults),
        )
    finally:
        shard.close()


#: Seconds between unsolicited worker heartbeats, busy or idle.
_HEARTBEAT_INTERVAL = 1.0


def _serve_messages(
    worker_id: int,
    shard: _Shard,
    requests: Any,
    responses: Any,
    plan: WorkerFaultPlan,
) -> None:
    """The worker's receive loop; returns on ``("stop",)`` / orphaning."""
    last_beat = time.monotonic()
    while True:
        try:
            message = requests.get(timeout=1.0)
        except queue.Empty:
            if os.getppid() == 1:
                # Re-parented to init: the dispatcher died without a
                # stop message; exit rather than serve nobody.
                return
            shard.heartbeat(responses)
            last_beat = time.monotonic()
            continue
        kind = message[0]
        if kind == "query":
            _, req_id, source, method, params, deadline = message
            try:
                served = shard.solve(source, method, params, deadline)
            except Exception as exc:  # noqa: BLE001 - forwarded
                reply = ("error", req_id, exc)
            else:
                reply = ("result", req_id, replace(served, worker=worker_id))
            _put_reply(responses, plan, reply)
        elif kind == "stop":
            return
        elif kind == "attach":
            _, barrier_id, handle, version = message
            # (fault ordinals count updates, not the boot hand-over)
            update = shard.attach(handle, version)
            if update and plan and plan.on_update_applied():
                # Scheduled chaos: die *after* attaching the new
                # generation, *before* acking — the worst spot.
                # ``os._exit`` skips ``finally``, like a SIGKILL.
                os._exit(17)
            shard.heartbeat(responses)
            last_beat = time.monotonic()
            responses.put(("attached", barrier_id))
        elif kind == "stats":
            responses.put(("stats", message[1], shard.stats()))
        # Time-based, not idle-based: a worker saturated with traffic
        # (or a parent polling stats) must still report its version.
        now = time.monotonic()
        if now - last_beat >= _HEARTBEAT_INTERVAL:
            shard.heartbeat(responses)
            last_beat = now


def _put_reply(
    responses: Any, plan: WorkerFaultPlan, message: tuple
) -> None:
    """Send one query reply, honouring the worker's fault plan."""
    if plan:
        action = plan.on_reply()
        if action is not None:
            kind, seconds = action
            if kind == "drop":
                return
            time.sleep(seconds)
    responses.put(message)


def _ring_point(token: str) -> int:
    """Stable 64-bit position on the hash ring for ``token``."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


class _HashRing:
    """Consistent hashing of source ids onto worker ids.

    Each worker contributes ``_VNODES`` points; a source routes to the
    first point clockwise from its own hash.  Removing a worker moves
    only the sources on its arcs — every other source keeps its worker.
    """

    def __init__(self) -> None:
        self._points: list[int] = []
        self._owners: dict[int, int] = {}

    def add(self, worker_id: int) -> None:
        for v in range(_VNODES):
            point = _ring_point(f"{worker_id}:{v}")
            # blake2b collisions across our tiny point sets are
            # vanishingly unlikely; first owner keeps the point.
            if point in self._owners:
                continue
            bisect.insort(self._points, point)
            self._owners[point] = worker_id

    def remove(self, worker_id: int) -> None:
        dropped = [
            point
            for point, owner in self._owners.items()
            if owner == worker_id
        ]
        for point in dropped:
            del self._owners[point]
            index = bisect.bisect_left(self._points, point)
            del self._points[index]

    def route(self, source: int) -> int:
        if not self._points:
            raise RuntimeError("no live workers")
        position = _ring_point(f"s:{source}")
        index = bisect.bisect_right(self._points, position)
        if index == len(self._points):
            index = 0
        return self._owners[self._points[index]]

    def route_order(self, source: int) -> list[int]:
        """All owners in clockwise preference order from ``source``.

        The first entry is :meth:`route`'s answer; the rest are the
        fallback order a breaker-aware router walks when the primary
        shard's circuit is open.  Deduplicated, so the list length is
        the live worker count.
        """
        if not self._points:
            raise RuntimeError("no live workers")
        position = _ring_point(f"s:{source}")
        start = bisect.bisect_right(self._points, position)
        order: list[int] = []
        seen: set[int] = set()
        count = len(self._points)
        for step in range(count):
            owner = self._owners[self._points[(start + step) % count]]
            if owner not in seen:
                seen.add(owner)
                order.append(owner)
        return order

    def __len__(self) -> int:
        return len(set(self._owners.values()))


@dataclass(eq=False)
class _PendingRequest(Flight):
    """A flight on its way to a shard (or a stats probe, ``source``
    -1): what the dispatcher must remember to reroute or fail it."""

    #: Re-submissions so far (reroutes + timeout retries); bounded by
    #: the dispatcher's :class:`RetryPolicy`.
    attempts: int = 0
    #: ``time.monotonic()`` of the latest enqueue, for timeout scans.
    enqueued_at: float = 0.0


@dataclass
class _WorkerState:
    """Parent-side bookkeeping for one shard."""

    worker_id: int
    process: Any
    requests: Any
    responses: Any
    collector: threading.Thread | None = None
    pending: dict[int, _PendingRequest] = field(default_factory=dict)
    alive: bool = True
    #: Incarnation counter: bumps on every respawn of this worker id.
    generation: int = 0
    #: Respawns consumed from the restart budget (spawn failures count).
    restarts: int = 0
    #: Budget exhausted — permanently removed, never respawned again.
    removed: bool = False
    #: ``time.monotonic()`` when the collector declared this shard dead.
    died_at: float = 0.0
    #: Latest unsolicited heartbeat: (monotonic ts, version).
    last_heartbeat: float = 0.0
    reported_version: int = -1
    breaker: CircuitBreaker = field(default_factory=CircuitBreaker)


@dataclass
class _Barrier:
    """One in-flight hand-over: which shards must still ack it."""

    expected: set[int]
    acked: set[int] = field(default_factory=set)
    done: threading.Event = field(default_factory=threading.Event)

    def settle_if_complete(self) -> None:
        """Settle once every *still-expected* shard has acked (a dead
        one is discarded from ``expected``; sets, so its stale ack
        cannot stand in for a shard that never answered)."""
        if self.expected <= self.acked:
            self.done.set()


class ShardedDispatcher(ServingTier):
    """Route queries to N worker processes sharing one graph image.

    Parameters
    ----------
    graph_or_image:
        A :class:`DiGraph` / :class:`DynamicGraph` to export into
        shared memory (the dispatcher owns the segment and unlinks it
        on close), or an already-exported
        :class:`~repro.serving.shm.SharedGraphImage` whose lifecycle
        the caller keeps.  A :class:`DynamicGraph` is snapshotted —
        the cluster starts from its current logical graph and never
        touches the object again — and implies ``dynamic=True``.
    workers:
        Number of shard processes (>= 1).
    dynamic:
        Whether the dispatcher keeps a :class:`DynamicGraph` of its
        own over that snapshot so :meth:`apply_updates` works.
        Default: inferred from the graph argument.
    alpha, seed, dead_end_policy:
        Per-worker engine construction (identical in every shard —
        answers must not depend on placement).
    cache_capacity:
        Size (entries) of the cluster's one
        :class:`~repro.serving.cache.ResultCache`, held here in the
        dispatcher — cluster-wide, not per worker: every answer is
        cached once, whichever shard solved it, and survives that
        shard's death.  ``cache_capacity=0`` disables result caching
        (duplicates in flight still share one solve).
    start_method:
        ``multiprocessing`` start method; default ``"fork"`` where
        available (inherits the warmed import state), else the
        platform default.  Workers attach the image by handle either
        way, so spawn works identically, just slower to start.
    restart_policy:
        :class:`~repro.serving.supervisor.RestartPolicy` for crashed
        shards (default: jittered exponential backoff, budget of 3
        respawns per worker).  ``max_restarts`` is a shorthand that
        overrides just the budget; ``max_restarts=0`` disables
        respawning (a dead worker is removed permanently, the
        pre-supervision behaviour).
    request_timeout:
        Seconds a routed request may sit unanswered before the
        supervisor counts a shard failure and retries it elsewhere.
        ``None`` (default) disables the scan — death detection alone
        reroutes; set it for chaos runs where replies can be dropped.
    fault_injector:
        Deterministic chaos schedule
        (:class:`~repro.serving.faults.FaultInjector`); ``None`` in
        production.
    wal_dir, wal_fsync, checkpoint_every:
        ``wal_dir`` makes the cluster durable: the dispatcher's graph
        logs every applied batch to a write-ahead log (fsynced before
        the new generation is published unless ``wal_fsync=False``,
        checkpointed every ``checkpoint_every`` updates), and a
        restart on the same directory recovers the pre-crash graph —
        its snapshot is the first generation, at the recovered version.
        ``graph_or_image`` then only seeds a virgin directory (a
        pre-exported :class:`SharedGraphImage` cannot be combined
        with ``wal_dir``: recovery must be free to export a different
        base).  See :mod:`repro.durability`.

    The read side — ``submit``/``try_submit``/``query``/``batch`` and
    the context manager — is :class:`ServingTier`'s, as in the thread
    tier, so the loadtest harness and the CLI switch between thread
    mode and process mode with one flag.  Parameters must be picklable
    scalars: live objects (``rng``, trace sinks, pre-built indexes)
    cannot cross the process boundary and are rejected at submit.
    """

    _Flight = _PendingRequest
    _SCALAR_PARAMS_ONLY = True

    def __init__(
        self,
        graph_or_image: DiGraph | DynamicGraph | SharedGraphImage,
        *,
        workers: int = 2,
        dynamic: bool | None = None,
        alpha: float = 0.2,
        seed: int = 0,
        dead_end_policy: str = "redirect-to-source",
        cache_capacity: int = 4096,
        start_method: str | None = None,
        restart_policy: RestartPolicy | None = None,
        max_restarts: int | None = None,
        request_timeout: float | None = None,
        fault_injector: FaultInjector | None = None,
        wal_dir: str | Path | None = None,
        wal_fsync: bool = True,
        checkpoint_every: int | None = None,
    ) -> None:
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        # The cluster's one result cache and its open flights.
        super().__init__(cache_capacity)
        if wal_dir is not None:
            if isinstance(graph_or_image, SharedGraphImage):
                raise ParameterError(
                    "wal_dir cannot be combined with a pre-exported "
                    "SharedGraphImage: recovery must be free to export "
                    "the recovered snapshot as the first generation"
                )
            if dynamic is False:
                raise ParameterError(
                    "wal_dir implies dynamic=True (a static cluster has "
                    "no update stream to make durable)"
                )
            dynamic = True
        if isinstance(graph_or_image, SharedGraphImage):
            base = graph_or_image.graph()
        elif isinstance(graph_or_image, DynamicGraph):
            base = graph_or_image.snapshot()
            if dynamic is None:
                dynamic = True
        elif isinstance(graph_or_image, DiGraph):
            base = graph_or_image
        else:
            raise ParameterError(
                "ShardedDispatcher needs a DiGraph, DynamicGraph, or "
                f"SharedGraphImage; got {type(graph_or_image).__name__}"
            )
        #: the cluster's one writable graph (None: static); every
        #: version the shards serve is a snapshot of it
        self._graph: DynamicGraph | None = None
        if dynamic:
            self._graph = DynamicGraph(base)
            if wal_dir is not None:
                from repro.durability.manager import open_durable_graph

                # Seeds a virgin directory; recovered state wins.
                self._durability, self._graph = open_durable_graph(
                    wal_dir,
                    self._graph,
                    fsync=wal_fsync,
                    checkpoint_every=checkpoint_every,
                )
                base = self._graph.snapshot()
        #: the generation the shards serve.  The dispatcher exported —
        #: so ``cleanup()`` unlinks — every one but a caller's
        #: pre-exported first, of which it holds an attachment
        self._image = (
            SharedGraphImage.attach(graph_or_image.handle)
            if isinstance(graph_or_image, SharedGraphImage)
            else SharedGraphImage.export_graph(base)
        )
        self._num_nodes = self._image.handle.num_nodes
        self._config = WorkerConfig(
            alpha=alpha,
            seed=seed,
            dead_end_policy=dead_end_policy,
        )
        # As in the thread tier: spelling out the cluster's alpha keys
        # (and flies) identically to omitting it.
        self._defaults = {"alpha": alpha, "dead_end_policy": dead_end_policy}
        if restart_policy is None:
            restart_policy = RestartPolicy(seed=seed)
        if max_restarts is not None:
            if max_restarts < 0:
                raise ParameterError(
                    f"max_restarts must be >= 0, got {max_restarts}"
                )
            restart_policy = replace(
                restart_policy, max_restarts=max_restarts
            )
        self._restart_policy = restart_policy
        self._retry_policy = RetryPolicy(seed=seed)
        self._request_timeout = (
            float(request_timeout) if request_timeout is not None else None
        )
        self._faults = fault_injector
        if fault_injector is not None:
            self._after_admit = self._inject_parent_faults
        #: writers only — ``apply_updates`` from apply to retire, a
        #: respawn while its shard attaches — so no generation is
        #: retired under a shard attaching it, and an update's slow
        #: half (fsync, merge, export) blocks no reader
        self._write_mutex = threading.Lock()
        # ``_mutex`` also guards ring/worker-state/counter mutations
        # (never held while blocking; collector threads take it too).
        self._ring = _HashRing()
        self._states: dict[int, _WorkerState] = {}
        self._workers = workers
        self._next_id = 0
        self._stopping = False
        #: version of ``_image``: what every answer is stamped with
        self._version = self._graph.version if self._graph is not None else 0
        self._recovered_version = self._version
        self._rerouted = 0
        self._worker_failures = 0
        self._barriers: dict[int, _Barrier] = {}
        #: worker_id -> monotonic time its next respawn attempt is due
        self._respawn_due: dict[int, float] = {}
        #: worker_ids with a respawn currently in flight (spawned
        #: process not yet in ``_states`` or on the ring; close() tears
        #: these down if it races a respawn)
        self._respawning: dict[int, _WorkerState] = {}
        #: (due monotonic time, request) backoff queue for read retries
        self._retry_due: list[tuple[float, _PendingRequest]] = []
        self._respawns = 0
        self._permanent_failures = 0
        self._retries = 0
        self._request_timeouts = 0
        self._breaker_skips = 0
        self._recovery_last = 0.0
        self._recovery_max = 0.0
        self._supervisor_wake = threading.Event()
        self._supervisor: threading.Thread | None = None
        if start_method is None and "fork" in get_all_start_methods():
            start_method = "fork"
        self._context = get_context(start_method)
        try:
            for worker_id in range(workers):
                state = self._spawn_state(worker_id)
                self._states[worker_id] = state
                self._ring.add(worker_id)
            for state in self._states.values():
                self._start_collector(state)
            supervisor = threading.Thread(
                target=self._supervise,
                name="repro-shard-supervisor",
                daemon=True,
            )
            self._supervisor = supervisor
            supervisor.start()
            self._hand_over(list(self._states.values()))
        except BaseException:
            self.close()
            raise

    def _spawn_state(
        self, worker_id: int, *, generation: int = 0, restarts: int = 0
    ) -> _WorkerState:
        """Fork one shard process (graph-less until :meth:`_hand_over`)
        and its parent-side bookkeeping."""
        config = self._config
        if self._faults is not None and generation == 0:
            # Worker-side faults arm the first incarnation only: the
            # ordinals are worker-local, a respawn would count from
            # zero and re-fire them (crash_update: straight through
            # the restart budget).
            worker_faults = self._faults.worker_plan(worker_id)
            if worker_faults:
                config = replace(config, faults=worker_faults)
        req_q = self._context.Queue()
        resp_q = self._context.Queue()
        process = self._context.Process(
            target=_worker_main,
            args=(worker_id, config, req_q, resp_q),
            name=f"repro-shard-{worker_id}.{generation}",
            daemon=True,
        )
        process.start()
        return _WorkerState(
            worker_id=worker_id,
            process=process,
            requests=req_q,
            responses=resp_q,
            generation=generation,
            restarts=restarts,
        )

    def _start_collector(self, state: _WorkerState) -> None:
        thread = threading.Thread(
            target=self._collect,
            args=(state,),
            name=(
                f"repro-shard-collector-{state.worker_id}"
                f".{state.generation}"
            ),
            daemon=True,
        )
        state.collector = thread
        thread.start()

    # -- properties ------------------------------------------------------
    @property
    def num_workers(self) -> int:
        """Live worker count (shrinks when shards crash)."""
        with self._mutex:
            return sum(1 for s in self._states.values() if s.alive)

    @property
    def configured_workers(self) -> int:
        """Worker count the dispatcher was built with (the target the
        supervisor restores toward after crashes)."""
        return self._workers

    @property
    def dynamic_graph(self) -> DynamicGraph | None:
        """The graph :meth:`apply_updates` changes (``None``: static);
        every version the shards serve is a snapshot of it."""
        return self._graph

    @property
    def image(self) -> SharedGraphImage:
        """The image generation the shards serve from right now."""
        return self._image

    @property
    def recovered_version(self) -> int:
        """Graph version the cluster booted at (0 unless durable
        state was recovered from ``wal_dir``)."""
        return self._recovered_version

    def route(self, source: int) -> int:
        """The worker id ``source`` currently routes to (for tests)."""
        with self._mutex:
            return self._ring.route(int(source))

    # -- where reads are answered and misses solved ----------------------
    def _read_version(self) -> int:
        return self._version

    def _send(self, flight: Flight) -> Callable[[], object]:
        """Route ``flight`` and register it as pending on its shard.

        Its message is put after ``_mutex`` is released, still under
        the read lock: a writer that acquires after us sees this
        request ahead of its hand-over message in the worker's FIFO, so
        it is answered pre-update.
        """
        state = self._route_healthy(flight.source)
        message = self._enqueue(state, cast(_PendingRequest, flight))
        return partial(state.requests.put, message)

    def _enqueue(self, state: _WorkerState, request: _PendingRequest) -> tuple:
        """Register ``request`` as pending on ``state``; its query message.

        Called under ``_mutex``.
        """
        req_id = self._next_id
        self._next_id += 1
        request.enqueued_at = time.monotonic()
        state.pending[req_id] = request
        return (
            "query",
            req_id,
            request.source,
            request.method,
            request.params,
            request.deadline,
        )

    def _route_healthy(self, source: int) -> _WorkerState:
        """Route by ring order, skipping shards whose breaker is open.

        Called under ``_mutex``.  The primary owner (what
        :meth:`route` reports) wins whenever its breaker admits
        traffic — including the single half-open probe after a
        cooldown — and only when it refuses is the ring walked
        clockwise for a fallback.  With every breaker open the primary
        gets the request anyway: failing it here would turn a slow
        cluster into a hard outage.
        """
        primary = self._states[self._ring.route(source)]
        now = time.monotonic()
        if primary.breaker.allows(now):
            return primary
        for worker_id in self._ring.route_order(source)[1:]:
            state = self._states[worker_id]
            if state.breaker.allows(now):
                self._breaker_skips += 1
                return state
        return primary

    def _inject_parent_faults(self, submit_count: int) -> None:
        """Fire any process-level scheduled faults due at this submit."""
        assert self._faults is not None
        for spec in self._faults.parent_faults_at(submit_count):
            with self._mutex:
                state = self._states.get(spec.worker)
                pid = (
                    state.process.pid
                    if state is not None and state.alive
                    else None
                )
            if pid is None:
                continue
            signum = {
                "kill": signal.SIGKILL,
                "stop": signal.SIGSTOP,
                "cont": signal.SIGCONT,
            }[spec.kind]
            try:
                os.kill(pid, signum)
            except ProcessLookupError:
                pass

    # -- write path ------------------------------------------------------
    def apply_updates(self, updates: Iterable[tuple[str, int, int]]) -> int:
        """Apply edge updates and move every shard to the new version.

        The batch is applied — and validated — in one place, the
        dispatcher's own :class:`DynamicGraph`, then published
        (:meth:`_publish`); the new version is returned and all later
        answers carry it.  Not atomic, like
        :meth:`DynamicGraph.apply_updates` and the thread tier: a bad
        update raises after the ones before it were applied, and that
        prefix is durable and published before the exception
        propagates.  ``graph_version`` is the dispatcher graph's
        version after every outcome but a failed export (``/dev/shm``
        full): the shards then keep serving the old version, this call
        raises, and the next successful one publishes everything
        applied so far.
        """
        if self._graph is None:
            raise ParameterError(
                "this dispatcher serves a static graph; construct it "
                "with dynamic=True (or from a DynamicGraph) to accept "
                "updates"
            )
        with self._write_mutex:
            with self._mutex:
                if self._closed:
                    raise RuntimeError("dispatcher is closed")
            try:
                self._graph.apply_updates(updates)
            finally:
                if self._graph.version != self._version:
                    self._publish()
            return self._version

    def _publish(self) -> None:
        """Put every live shard on the dispatcher graph's current version.

        Called under ``_write_mutex``.  What takes time — WAL fsync,
        O(m) merge, copy into a fresh segment — happens before the
        write side of ``_rwlock`` is taken, so reads stall only for the
        hand-over (new submits queue behind it; per-worker FIFOs order
        it after all in-flight requests).
        """
        graph = self._graph
        assert graph is not None
        version = graph.version
        if self._durability is not None:
            # fsync-before-ack: durable before any shard can serve it.
            self._durability.flush()
        # Nothing replays the in-memory journal (the WAL is its
        # durable form), and the exported snapshot is the next base:
        # reclaim both, or journal and overlay grow for life and every
        # barrier re-merges all updates since boot.
        graph.trim_journal(version)
        image = SharedGraphImage.export_graph(graph.compact())
        with self._rwlock.write():
            with self._mutex:
                retired, self._image = self._image, image
                self._version = version
                states = list(self._states.values())
            if self.cache is not None:
                # No reader is in its read section, and a late fill at
                # the old version is refused: nothing pre-update stays.
                self.cache.invalidate(version)
            try:
                self._hand_over(states)
            finally:
                # Also after a failed hand-over: unlinking takes only
                # the name away — a hung shard keeps its mapping — and
                # no shard is ever handed a retired name.
                retired.cleanup()

    def _hand_over(self, states: list[_WorkerState]) -> set[int]:
        """Put ``states`` on the current generation at the current version.

        The one way a shard gets a graph — at boot, across an update,
        after a respawn: send every live one "attach this handle at
        version V" and wait, in timed slices so a crash is noticed,
        until each has acked or died.  Returns the ids that acked (the
        rest are dead: the supervisor's business).  The caller keeps
        the generation from being retired meanwhile (``_write_mutex``).
        """
        with self._mutex:
            # Liveness is read where the barrier is registered: a
            # later death finds the barrier and is discarded from it.
            states = [s for s in states if s.alive]
            barrier_id = self._next_id
            self._next_id += 1
            barrier = _Barrier(expected={s.worker_id for s in states})
            barrier.settle_if_complete()
            self._barriers[barrier_id] = barrier
            version = self._version
            message = ("attach", barrier_id, self._image.handle, version)
        for state in states:
            state.requests.put(message)
        deadline = time.monotonic() + _UPDATE_TIMEOUT
        try:
            while not barrier.done.wait(_POLL):
                with self._mutex:
                    stopping = self._stopping
                if stopping:
                    raise RuntimeError(
                        "dispatcher closed during a graph hand-over"
                    )
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"hand-over of version {version} timed out after "
                        f"{_UPDATE_TIMEOUT:.0f}s; acks from "
                        f"{sorted(barrier.acked)} of "
                        f"{sorted(barrier.expected)}"
                    )
        finally:
            with self._mutex:
                self._barriers.pop(barrier_id, None)
        return barrier.acked

    # -- collector / failure handling ------------------------------------
    def _collect(self, state: _WorkerState) -> None:
        """Drain one worker's responses; detect and handle its death."""
        while True:
            try:
                message = state.responses.get(timeout=_POLL)
            except queue.Empty:
                with self._mutex:
                    if self._stopping:
                        return
                    alive = state.alive and state.process.is_alive()
                if not alive:
                    self._on_worker_death(state)
                    return
                continue
            except (EOFError, OSError):
                # Queue torn down under us.  Either close() raced the
                # read (stopping — just exit) or the worker died hard
                # enough to wreck its feeder; route through the death
                # path so supervision still notices.
                with self._mutex:
                    if self._stopping:
                        return
                if not state.process.is_alive():
                    self._on_worker_death(state)
                return
            kind = message[0]
            if kind == "result":
                _, req_id, served = message
                with self._mutex:
                    pending = state.pending.pop(req_id, None)
                    state.breaker.record_success()
                if pending is not None:
                    self._resolve(pending, served)
            elif kind == "error":
                _, req_id, exc = message
                with self._mutex:
                    pending = state.pending.pop(req_id, None)
                if pending is not None:
                    self._fail(pending, exc)
            elif kind == "heartbeat":
                _, version, ts = message
                with self._mutex:
                    state.last_heartbeat = float(ts)
                    state.reported_version = int(version)
            elif kind == "attached":
                with self._mutex:
                    barrier = self._barriers.get(message[1])
                    if barrier is not None:
                        barrier.acked.add(state.worker_id)
                        barrier.settle_if_complete()
            elif kind == "stats":
                _, req_id, stats = message
                with self._mutex:
                    pending = state.pending.pop(req_id, None)
                if pending is not None:
                    (probe,) = pending.waiters
                    if probe.set_running_or_notify_cancel():
                        probe.set_result(stats)

    def _resolve(self, request: _PendingRequest, served: ServedResult) -> None:
        """Land ``request``'s flight with ``served``; answer its waiters.

        Takes ``_mutex`` to land, never holds it to settle; the answer
        is cached only if ``_version`` has not moved since.
        """
        with self._mutex:
            waiters = self._flight_table.land(request, served, self._version)
        settle(waiters, served)

    def _on_worker_death(self, state: _WorkerState) -> None:
        """A shard died: shrink the ring, retry its pending requests.

        Every request the dead worker had not answered is resubmitted
        through the bounded retry path (routing no longer includes the
        dead worker); with no survivors the futures fail instead of
        hanging.  A hand-over waiting on the dead worker stops
        expecting its ack and settles on the survivors.  When the
        restart policy has budget left, a respawn is scheduled after
        the jittered backoff; otherwise the worker is removed
        permanently and the dispatcher reports degraded capacity.
        """
        now = time.monotonic()
        with self._mutex:
            if not state.alive:
                return
            state.alive = False
            for barrier in self._barriers.values():
                barrier.expected.discard(state.worker_id)
                barrier.settle_if_complete()
            if self._states.get(state.worker_id) is not state:
                # A respawn that died before joining the ring: nothing
                # to reroute; ``_respawn`` spends the restart budget.
                return
            state.died_at = now
            state.breaker.trip(now)
            self._worker_failures += 1
            self._ring.remove(state.worker_id)
            orphaned = list(state.pending.values())
            state.pending.clear()
            stopping = self._stopping
            if not stopping:
                self._spend_restart(state, now)
        if stopping:
            for request in orphaned:
                self._fail(
                    request,
                    RuntimeError("dispatcher closed during dispatch"),
                )
            return
        self._supervisor_wake.set()
        for request in orphaned:
            if request.source < 0:
                # Control probes (stats) are not reroutable queries;
                # their caller tolerates a shard dropping out.
                self._fail(
                    request,
                    WorkerUnavailableError(
                        f"worker {state.worker_id} died before "
                        f"answering a {request.method} probe"
                    ),
                )
                continue
            self._retry_request(
                request, reason=f"worker {state.worker_id} died"
            )

    # -- bounded retries --------------------------------------------------
    def _retry_request(self, request: _PendingRequest, *, reason: str) -> None:
        """Decide one read's fate after a shard failed it: retry or fail.

        Bounded by the retry policy's attempt budget, paced by its
        jittered backoff, and deadline-aware: a retry whose backoff
        lands past the request deadline fails now instead of burning a
        shard on an answer nobody will read.  Safe to retry at all
        because answers are pure functions of ``(seed, source)``.
        """
        now = time.monotonic()
        attempt = request.attempts
        request.attempts += 1
        delay = self._retry_policy.next_delay(
            attempt, deadline=request.deadline, now=now
        )
        if delay is None:
            if request.deadline is not None and now >= request.deadline:
                self._fail(
                    request,
                    DeadlineExceeded(
                        f"source {request.source}: deadline passed "
                        f"after {attempt} attempt(s) ({reason})"
                    ),
                )
            else:
                self._fail(
                    request,
                    WorkerUnavailableError(
                        f"source {request.source}: retry budget "
                        f"exhausted after {attempt} attempt(s) ({reason})"
                    ),
                )
            return
        if delay <= 0.0:
            self._resubmit(request)
            return
        with self._mutex:
            self._retry_due.append((now + delay, request))
        self._supervisor_wake.set()

    def _resubmit(self, request: _PendingRequest) -> None:
        """Re-enqueue one retried request on a (breaker-aware) shard."""
        if (
            request.deadline is not None
            and time.monotonic() >= request.deadline
        ):
            # The backoff was paced to end before the deadline, but the
            # supervisor tick that fires it can run late.
            self._fail(
                request,
                DeadlineExceeded(
                    f"source {request.source}: deadline passed while "
                    f"waiting to be retried"
                ),
            )
            return
        with self._mutex:
            closed = self._closed
            try:
                target = (
                    None if closed else self._route_healthy(request.source)
                )
            except RuntimeError:
                target = None
            if target is not None:
                self._rerouted += 1
                self._retries += 1
                message = self._enqueue(target, request)
            respawn_pending = bool(self._respawn_due) or bool(
                self._respawning
            )
        if closed:
            self._fail(request, RuntimeError("dispatcher is closed"))
            return
        if target is None:
            if respawn_pending:
                # Nobody is live right now but a respawn is in
                # flight; spend another bounded attempt waiting for
                # it rather than failing a recoverable read.
                self._retry_request(
                    request, reason="no live workers (respawn pending)"
                )
            else:
                self._fail(
                    request,
                    WorkerUnavailableError(
                        f"no live workers remain for source "
                        f"{request.source}"
                    ),
                )
            return
        target.requests.put(message)

    # -- supervision ------------------------------------------------------
    def _supervise(self) -> None:
        """Supervisor loop: respawns, paced retries, timeout scans.

        Every wait is timed (``_POLL``) and every piece of work it
        finds is bounded, so the loop adds no hang risk of its own;
        it exits as soon as ``close()`` flips ``_stopping``.
        """
        while True:
            self._supervisor_wake.wait(_POLL)
            self._supervisor_wake.clear()
            now = time.monotonic()
            with self._mutex:
                if self._stopping:
                    return
                due_respawns = [
                    worker_id
                    for worker_id, due in self._respawn_due.items()
                    if due <= now
                ]
                for worker_id in due_respawns:
                    del self._respawn_due[worker_id]
                due_retries = [
                    request for due, request in self._retry_due if due <= now
                ]
                self._retry_due = [
                    (due, request)
                    for due, request in self._retry_due
                    if due > now
                ]
                timed_out: list[tuple[_WorkerState, _PendingRequest]] = []
                if self._request_timeout is not None:
                    for state in self._states.values():
                        if not state.alive:
                            continue
                        expired = [
                            req_id
                            for req_id, request in state.pending.items()
                            if request.source >= 0
                            and request.enqueued_at > 0.0
                            and now - request.enqueued_at
                            > self._request_timeout
                        ]
                        for req_id in expired:
                            request = state.pending.pop(req_id)
                            timed_out.append((state, request))
                            state.breaker.record_failure(now)
                            self._request_timeouts += 1
            for state, request in timed_out:
                self._retry_request(
                    request,
                    reason=(
                        f"no reply from worker {state.worker_id} within "
                        f"{self._request_timeout}s"
                    ),
                )
            for request in due_retries:
                self._resubmit(request)
            for worker_id in due_respawns:
                self._respawn(worker_id)

    def _respawn(self, worker_id: int) -> None:
        """Bring one dead shard back, on the current generation.

        Spawn a fresh process, hand it the current generation like any
        other shard (:meth:`_hand_over`: one attach, however many
        updates there were) and restore its arc on the ring once it
        has acked.  ``_write_mutex`` keeps ``apply_updates`` from
        retiring that generation in between, so a respawn racing an
        update joins at whichever version is current; readers are not
        blocked.  Any failure consumes a unit of restart budget.
        """
        with self._mutex:
            if self._stopping or self._closed:
                return
            old = self._states.get(worker_id)
            if old is None or old.alive or old.removed:
                return
            generation = old.generation + 1
            restarts = old.restarts + 1
        try:
            state = self._spawn_state(
                worker_id, generation=generation, restarts=restarts
            )
        except Exception:  # repro: allow[lock-discipline] -- spawn failure is a restart-budget event, not a crash: the policy decides whether to try again
            self._respawn_failed(worker_id, restarts)
            return
        with self._mutex:
            self._respawning[worker_id] = state
        self._start_collector(state)
        try:
            with self._write_mutex:
                try:
                    acked = self._hand_over([state])
                except (RuntimeError, TimeoutError):
                    acked = set()
                now = time.monotonic()
                with self._mutex:
                    # ``alive``: it may have acked and died since.
                    joined = (
                        worker_id in acked
                        and state.alive
                        and not self._stopping
                    )
                    if joined:
                        self._states[worker_id] = state
                        self._ring.add(worker_id)
                        self._respawns += 1
                        recovery = now - old.died_at
                        self._recovery_last = recovery
                        self._recovery_max = max(self._recovery_max, recovery)
        finally:
            with self._mutex:
                self._respawning.pop(worker_id, None)
        if not joined:
            self._stop_state(state, time.monotonic() + 1.0)
            self._respawn_failed(worker_id, restarts)

    def _respawn_failed(self, worker_id: int, restarts: int) -> None:
        """A respawn attempt died; spend budget on another or give up."""
        with self._mutex:
            old = self._states.get(worker_id)
            if old is None or self._stopping:
                return
            old.restarts = restarts
            self._spend_restart(old, time.monotonic())
        self._supervisor_wake.set()

    def _spend_restart(self, state: _WorkerState, now: float) -> None:
        """Under ``_mutex``: schedule the next respawn of ``state``'s
        worker after the policy's backoff, or remove it for good."""
        if self._restart_policy.allows(state.restarts):
            delay = self._restart_policy.delay(state.worker_id, state.restarts)
            self._respawn_due[state.worker_id] = now + delay
        else:
            state.removed = True
            self._permanent_failures += 1

    @staticmethod
    def _stop_state(state: _WorkerState, deadline: float) -> None:
        """Stop one shard process and everything attached to it.

        A stop message, a join bounded by ``deadline``, then
        ``terminate`` (workers turn SIGTERM into a clean exit that
        closes their mappings) and finally ``kill``; the collector goes
        before the queues it reads.
        """
        try:
            state.requests.put(("stop",))
        except (ValueError, OSError):
            # Queue already torn down by a dead worker's feeder.
            pass
        state.process.join(timeout=max(0.0, deadline - time.monotonic()))
        if state.process.is_alive():
            state.process.terminate()
            state.process.join(timeout=1.0)
        if state.process.is_alive():
            state.process.kill()
            state.process.join(timeout=1.0)
        if state.collector is not None:
            state.collector.join(timeout=2.0)
            state.collector = None
        for q in (state.requests, state.responses):
            try:
                q.cancel_join_thread()
                q.close()
            except (ValueError, OSError):
                pass

    # -- stats -----------------------------------------------------------
    def stats(self, timeout: float = 10.0) -> dict[str, Any]:
        """Aggregate dispatcher + per-worker serving statistics.

        Shape-compatible with the thread tier's ``stats()`` where it
        matters: top-level ``"cache"`` — the dispatcher's own cache,
        the only one in the cluster — with ``hit_rate``, and
        ``"flights"`` (``led`` / ``joined``).  ``"scheduler"`` is
        computed from the shards' counters (a shard solves each request
        it is sent on its own, so ``engine_calls`` is the shards'
        ``engine_queries`` and ``batching_factor`` is 1.0 once any
        ran).  Each shard's ``requests`` / ``engine_queries`` /
        ``failures`` / ``expired`` / ``graph_version`` are under
        ``"per_worker"``, dispatcher counters
        (``rerouted``, ``worker_failures``) alongside.
        """
        futures: dict[int, Future] = {}
        probes: list[tuple[_WorkerState, int]] = []
        with self._rwlock.read():
            with self._mutex:
                if self._closed:
                    raise RuntimeError("dispatcher is closed")
                for state in self._states.values():
                    if not state.alive:
                        continue
                    req_id = self._next_id
                    self._next_id += 1
                    future: Future = Future()
                    state.pending[req_id] = _PendingRequest(
                        [future], -1, "stats", {}
                    )
                    futures[state.worker_id] = future
                    probes.append((state, req_id))
            for state, req_id in probes:
                state.requests.put(("stats", req_id))
        per_worker: dict[str, dict[str, Any]] = {}
        # One shared monotonic deadline across all workers (mirroring
        # the shutdown join loop in close()): the probes were broadcast
        # concurrently, so the waits must share one budget — giving
        # each worker the full timeout in sequence would stretch the
        # worst case to N x timeout when shards hang.
        deadline = time.monotonic() + timeout
        for worker_id, future in futures.items():
            try:
                per_worker[str(worker_id)] = future.result(
                    timeout=max(0.0, deadline - time.monotonic())
                )
            except Exception:  # repro: allow[lock-discipline] -- a shard that died or timed out mid-stats simply drops out of the aggregate; its failure is already counted in worker_failures
                continue

        def total(name: str) -> float:
            return float(sum(stats[name] for stats in per_worker.values()))

        solves = total("engine_queries")
        scheduler = {
            "submitted": total("requests"),
            "answered": solves,
            "cache_answered": 0.0,
            "batches": solves,
            "engine_calls": solves,
            "engine_sources": solves,
            "failures": total("failures"),
            "expired": total("expired"),
            "max_group": 1.0 if solves else 0.0,
            "batching_factor": 1.0 if solves else 0.0,
        }
        now = time.monotonic()
        with self._mutex:
            supervisor = {
                "respawns": self._respawns,
                "permanent_failures": self._permanent_failures,
                "degraded_capacity": self._permanent_failures > 0,
                "recovery_s": {
                    "last": self._recovery_last,
                    "max": self._recovery_max,
                },
                "retries": self._retries,
                "request_timeouts": self._request_timeouts,
                "breaker_skips": self._breaker_skips,
                "max_restarts": self._restart_policy.max_restarts,
                "restarts": {
                    str(state.worker_id): state.restarts
                    for state in self._states.values()
                },
                "removed": sorted(
                    state.worker_id
                    for state in self._states.values()
                    if state.removed
                ),
                "breakers": {
                    str(state.worker_id): state.breaker.snapshot()
                    for state in self._states.values()
                    if state.alive
                },
            }
            heartbeats = {
                str(state.worker_id): {
                    "age_s": (
                        now - state.last_heartbeat
                        if state.last_heartbeat > 0.0
                        else None
                    ),
                    "graph_version": state.reported_version,
                }
                for state in self._states.values()
                if state.alive
            }
            return {
                **self._stats_head(),
                "workers": len(per_worker),
                "configured_workers": self._workers,
                "rerouted": self._rerouted,
                "worker_failures": self._worker_failures,
                "scheduler": scheduler,
                "per_worker": per_worker,
                "supervisor": supervisor,
                "heartbeats": heartbeats,
            }

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Stop every shard and release the shared segments (idempotent).

        Every shard — a respawn caught in flight included — is stopped
        under one shared deadline (:meth:`_stop_state`).  Leftover
        futures fail rather than hang.  The graph image's current
        generation (earlier ones went when they were replaced) is closed
        and — unless it is the caller's own — unlinked exactly once, so
        a completed run leaves nothing in ``/dev/shm``.
        """
        with self._mutex:
            if self._closed:
                return
            self._closed = True
            self._stopping = True
            states = [*self._states.values(), *self._respawning.values()]
            self._respawning.clear()
            self._respawn_due.clear()
            waiting_retries = [request for _, request in self._retry_due]
            self._retry_due = []
        self._supervisor_wake.set()
        if (
            self._supervisor is not None
            and self._supervisor is not threading.current_thread()
        ):
            self._supervisor.join(timeout=5.0)
            self._supervisor = None
        for request in waiting_retries:
            self._fail(
                request, RuntimeError("dispatcher is closed")
            )
        deadline = time.monotonic() + 5.0
        for state in states:
            self._stop_state(state, deadline)
        with self._mutex:
            leftovers = [
                request
                for state in states
                for request in state.pending.values()
            ]
            for state in states:
                state.pending.clear()
                state.alive = False
        for request in leftovers:
            self._fail(
                request, RuntimeError("dispatcher is closed")
            )
        # (an apply_updates caught mid-flight saw ``_stopping`` and is
        # done: whatever it published last is current)
        with self._write_mutex:
            self._image.cleanup()
            if self._durability is not None:
                self._durability.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedDispatcher(workers={self.num_workers}, "
            f"version={self.graph_version}, "
            f"segment={self._image.segment_name!r})"
        )
