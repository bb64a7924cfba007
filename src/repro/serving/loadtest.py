"""Load/soak harness: a workload vs the server and a serial baseline.

Answers the serving layer's headline question with numbers: *what do
the result cache and the single-flight table buy over answering one
query at a time?*  One call to :func:`run_loadtest`

1. replays a :class:`~repro.serving.workload.Workload` against a fresh
   :class:`~repro.serving.server.EngineServer` (closed-loop worker
   pool or open-loop paced submission),
2. replays the identical sequence against a bare engine, one blocking
   ``query`` at a time, no cache, no flights,
3. cross-checks the answers (byte-identical for deterministic methods
   on read-only workloads) and emits a :class:`LoadtestReport` with
   throughput, p50/p99 latency, cache hit rate and the speedup.

Both runs build their graph from the same factory and draw edge
updates from the same stream, so a read/write soak mutates the two
graphs identically: an update is sampled and applied at the moment its
operation is claimed (before the claim cursor advances), which pins
the sampling state, the RNG draw order, and the apply order to the
workload's operation order in both runs.

**Overload experiments.**  With ``slo_ms``/``deadline_ms`` set (open
arrival only), the served run is driven through the
:class:`~repro.serving.frontdoor.AsyncFrontDoor`: requests carry
deadlines, admission control sheds or degrades under pressure, and the
report accounts for every single request — ``completed`` (full or
degraded), ``shed``, ``deadline_expired``, or ``failed`` — instead of
silently dropping the ones that never resolved.  Throughput counts
only completions; *goodput* counts only completions inside the SLO.
Every served answer, degraded ones included, is still verified
byte-identical to a serial engine solving the same (possibly degraded)
request — overload changes whether and how a request is served, never
what a served answer is.
"""

from __future__ import annotations

import asyncio
import queue
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from repro.api.engine import PPREngine
from repro.api.registry import resolve_method
from repro.durability.atomic import atomic_write_json
from repro.errors import (
    DeadlineExceeded,
    ParameterError,
    ServerOverloadedError,
)
from repro.graph.digraph import DiGraph
from repro.graph.dynamic import DynamicGraph, sample_edge_update
from repro.serving.faults import WORKER_KINDS, FaultInjector, FaultSpec
from repro.serving.frontdoor import AsyncFrontDoor
from repro.serving.flights import ServedResult
from repro.serving.server import EngineServer
from repro.serving.sharded import ShardedDispatcher
from repro.serving.workload import Operation, Workload

__all__ = ["LoadtestReport", "LoadtestStats", "run_loadtest"]


@dataclass
class LoadtestStats:
    """Outcome-accounted throughput/latency summary of one replay.

    Every query operation ends in exactly one bucket: ``completed``
    (answered, possibly ``degraded``), ``shed`` (admission control),
    ``deadline_expired`` (budget spent before an answer), or
    ``failed`` (unexpected error).  ``throughput_qps`` counts only
    completions — a shed request is not throughput — and
    ``goodput_qps`` only completions within the SLO.
    """

    wall_seconds: float
    queries: int
    updates: int
    p50_ms: float
    p99_ms: float
    completed: int
    #: completions inside the SLO (== ``completed`` when none was set)
    within_slo: int
    degraded: int = 0
    shed: int = 0
    deadline_expired: int = 0
    failed: int = 0
    slo_ms: float | None = None

    @property
    def accounted(self) -> int:
        """Requests with a known fate; must equal ``queries`` (no
        request may simply vanish — a hung future is a bug)."""
        return (
            self.completed + self.shed + self.deadline_expired + self.failed
        )

    @property
    def throughput_qps(self) -> float:
        return (
            self.completed / self.wall_seconds if self.wall_seconds else 0.0
        )

    @property
    def goodput_qps(self) -> float:
        """Completions inside the SLO per second (== throughput when
        no SLO was set)."""
        if not self.wall_seconds:
            return 0.0
        return self.within_slo / self.wall_seconds

    @property
    def error_rate(self) -> float:
        return self.failed / self.queries if self.queries else 0.0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.queries if self.queries else 0.0

    def as_dict(self) -> dict[str, float]:
        doc = {
            "wall_seconds": self.wall_seconds,
            "queries": self.queries,
            "updates": self.updates,
            "throughput_qps": self.throughput_qps,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "completed": self.completed,
            "degraded": self.degraded,
            "shed": self.shed,
            "deadline_expired": self.deadline_expired,
            "failed": self.failed,
            "accounted": self.accounted,
            "error_rate": self.error_rate,
            "shed_rate": self.shed_rate,
            "goodput_qps": self.goodput_qps,
        }
        if self.slo_ms is not None:
            doc["slo_ms"] = self.slo_ms
            doc["within_slo"] = self.within_slo
        return doc


@dataclass
class LoadtestReport:
    """Everything one loadtest measured, renderable and JSON-able."""

    workload: str
    method: str
    concurrency: int
    served: LoadtestStats
    serial: LoadtestStats
    cache_hit_rate: float
    identical: bool | None
    server_stats: dict[str, Any] = field(default_factory=dict)
    #: shard processes the served run used (0 = in-process thread mode)
    workers: int = 0
    #: front-door admission counters when the run was SLO-aware
    frontdoor: dict[str, Any] = field(default_factory=dict)
    #: fault schedule + recovery accounting when the run was a chaos run
    chaos: dict[str, Any] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        """Served throughput over the serial one-at-a-time baseline."""
        if self.serial.throughput_qps == 0.0:
            return 0.0
        return self.served.throughput_qps / self.serial.throughput_qps

    def to_dict(self) -> dict[str, Any]:
        doc = {
            "workload": self.workload,
            "method": self.method,
            "concurrency": self.concurrency,
            "workers": self.workers,
            "served": self.served.as_dict(),
            "serial": self.serial.as_dict(),
            "speedup": self.speedup,
            "cache_hit_rate": self.cache_hit_rate,
            "identical": self.identical,
            "server_stats": self.server_stats,
        }
        if self.frontdoor:
            doc["frontdoor"] = self.frontdoor
        if self.chaos:
            doc["chaos"] = self.chaos
        return doc

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(path, self.to_dict())
        return path

    def render(self) -> str:
        identical = (
            "n/a (stochastic method or write traffic)"
            if self.identical is None
            else str(self.identical)
        )
        mode = (
            f"{self.workers} shard processes"
            if self.workers
            else f"{self.concurrency} threads"
        )
        lines = [
            f"loadtest [{self.method}] {self.workload}",
            f"  served : {self.served.throughput_qps:9.1f} q/s   "
            f"p50 {self.served.p50_ms:7.2f} ms   "
            f"p99 {self.served.p99_ms:7.2f} ms   "
            f"({mode})",
            f"  serial : {self.serial.throughput_qps:9.1f} q/s   "
            f"p50 {self.serial.p50_ms:7.2f} ms   "
            f"p99 {self.serial.p99_ms:7.2f} ms   (1 thread, no cache)",
            f"  speedup: {self.speedup:.2f}x   cache hit rate "
            f"{self.cache_hit_rate:.2%}",
            f"  answers byte-identical to serial: {identical}",
        ]
        if self.served.slo_ms is not None:
            lines.insert(
                2,
                f"  slo    : {self.served.goodput_qps:9.1f} q/s goodput "
                f"(<= {self.served.slo_ms:.0f} ms)   "
                f"shed {self.served.shed}   "
                f"degraded {self.served.degraded}   "
                f"deadline {self.served.deadline_expired}   "
                f"failed {self.served.failed}",
            )
        if self.chaos:
            supervisor = self.chaos.get("supervisor", {})
            recovery = supervisor.get("recovery_s", {}) or {}
            recovery_max = recovery.get("max")
            recovery_text = (
                f"{recovery_max * 1e3:.0f} ms"
                if recovery_max is not None
                else "n/a"
            )
            lines.append(
                f"  chaos  : injected {self.chaos.get('injected', 0)} "
                f"faults   respawns {supervisor.get('respawns', 0)}   "
                f"retries {supervisor.get('retries', 0)}   "
                f"max recovery {recovery_text}   degraded capacity "
                f"{supervisor.get('degraded_capacity', False)}"
            )
        return "\n".join(lines)


def _percentiles(latencies: list[float]) -> tuple[float, float]:
    if not latencies:
        return 0.0, 0.0
    arr = np.asarray(latencies) * 1e3
    return float(np.percentile(arr, 50)), float(np.percentile(arr, 99))


def _require_dynamic(engine: PPREngine, workload: Workload) -> None:
    if workload.num_updates and engine.dynamic_graph is None:
        raise ParameterError(
            "workload contains edge updates; make_graph must return a "
            "DynamicGraph"
        )


def _run_serial(
    make_graph: Callable[[], DiGraph | DynamicGraph],
    workload: Workload,
    method: str,
    params: Mapping[str, Any],
    *,
    alpha: float,
    seed: int,
    collect: bool,
) -> tuple[LoadtestStats, dict[int, np.ndarray]]:
    """The baseline: one engine, one thread, one query at a time."""
    engine = PPREngine(make_graph(), alpha=alpha, seed=seed)
    _require_dynamic(engine, workload)
    update_rng = workload.update_rng()
    estimates: dict[int, np.ndarray] = {}
    latencies: list[float] = []
    started = time.perf_counter()
    for op in workload.operations:
        if op.kind == "query":
            begin = time.perf_counter()
            result = engine.query(op.source, method, **dict(params))
            latencies.append(time.perf_counter() - begin)
            if collect:
                estimates[op.index] = result.estimate
        else:
            update = sample_edge_update(engine.dynamic_graph, update_rng)
            engine.apply_updates([update])
    wall = time.perf_counter() - started
    p50, p99 = _percentiles(latencies)
    return (
        LoadtestStats(
            wall_seconds=wall,
            queries=workload.num_queries,
            updates=workload.num_updates,
            p50_ms=p50,
            p99_ms=p99,
            completed=len(latencies),
            within_slo=len(latencies),
        ),
        estimates,
    )


def _drive_frontdoor(
    server: EngineServer | ShardedDispatcher,
    operations: list[Operation],
    method: str,
    params: Mapping[str, Any],
    *,
    slo_ms: float | None,
    deadline_ms: float | None,
    degrade_method: str | None,
    degrade_params: Mapping[str, Any] | None,
    max_inflight: int | None,
    collect: bool,
    latencies: list[float | None],
    estimates: dict[int, np.ndarray],
    degraded_estimates: dict[int, tuple[int, np.ndarray]],
    counts: dict[str, int],
    errors: list[BaseException],
) -> AsyncFrontDoor:
    """Open-loop SLO-aware drive through the async front door.

    Requests are paced with ``asyncio.sleep`` at the workload's
    arrival times and awaited as tasks — overload never blocks the
    arrival process, which is the whole point of the open loop.  Every
    request resolves into exactly one outcome bucket, so the caller
    can assert nothing hung.
    """
    door = AsyncFrontDoor(
        server,
        slo_ms=slo_ms,
        deadline_ms=deadline_ms,
        degrade_method=degrade_method,
        degrade_params=dict(degrade_params) if degrade_params else None,
        max_inflight=max_inflight,
    )

    async def _one(op: Operation) -> None:
        begin = time.perf_counter()
        try:
            served = await door.submit(op.source, method, **dict(params))
        except DeadlineExceeded:
            counts["deadline_expired"] += 1
        except ServerOverloadedError:
            counts["shed"] += 1
        except BaseException as exc:  # noqa: BLE001 - accounted + reported
            counts["failed"] += 1
            errors.append(exc)
        else:
            latencies[op.index] = time.perf_counter() - begin
            if served.degraded:
                counts["degraded"] += 1
                if collect:
                    degraded_estimates[op.index] = (
                        op.source,
                        served.result.estimate,
                    )
            elif collect:
                estimates[op.index] = served.result.estimate

    async def _drive() -> None:
        started = time.perf_counter()
        tasks: list[asyncio.Task] = []
        for op in operations:
            delay = started + op.at - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(_one(op)))
        if tasks:
            await asyncio.gather(*tasks)

    asyncio.run(_drive())
    return door


def _await_recovery(
    server: ShardedDispatcher,
    chaos: FaultInjector,
    timeout: float = 30.0,
) -> None:
    """Let in-flight respawns land before the stats snapshot.

    A kill injected near the end of the drive can leave its respawn
    (or even its death detection) still in flight when the workload
    drains; the chaos gates compare respawn counts and live worker
    count against the schedule, so the snapshot must wait for the
    supervisor to finish what the schedule started.  Workers removed
    permanently (restart budget exhausted) are counted as resolved,
    never waited on.  Bounded: proceeds after ``timeout`` regardless
    and lets the gates judge whatever state remains.
    """
    kills = sum(1 for spec in chaos.fired() if spec.kind == "kill")
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        supervisor = server.stats(timeout=0.5)["supervisor"]
        resolved = supervisor["respawns"] + supervisor["permanent_failures"]
        removed = len(supervisor["removed"])
        if (
            resolved >= kills
            and server.num_workers + removed >= server.configured_workers
        ):
            return
        time.sleep(0.05)


def _run_served(
    make_graph: Callable[[], DiGraph | DynamicGraph],
    workload: Workload,
    method: str,
    params: Mapping[str, Any],
    *,
    alpha: float,
    seed: int,
    concurrency: int,
    cache_capacity: int,
    cache_ttl: float | None,
    collect: bool,
    workers: int = 0,
    slo_ms: float | None = None,
    deadline_ms: float | None = None,
    degrade_method: str | None = None,
    degrade_params: Mapping[str, Any] | None = None,
    max_inflight: int | None = None,
    chaos: FaultInjector | None = None,
    max_restarts: int | None = None,
    request_timeout: float | None = None,
) -> tuple[
    LoadtestStats,
    dict[int, np.ndarray],
    dict[int, tuple[int, np.ndarray]],
    dict[str, Any],
]:
    """Replay the workload against an :class:`EngineServer` — or, with
    ``workers >= 1``, a :class:`ShardedDispatcher` over that many
    worker processes sharing one shared-memory graph image."""
    slo_aware = slo_ms is not None or deadline_ms is not None
    server: EngineServer | ShardedDispatcher
    mirror: DynamicGraph | None = None
    if workers:
        graph = make_graph()
        if isinstance(graph, DynamicGraph):
            # The parent keeps a mirror of the logical graph so update
            # sampling sees the same state the shards converge to; the
            # sampled batch is applied to the mirror and broadcast to
            # every shard, keeping all copies in lockstep.
            mirror = graph
        elif workload.num_updates:
            raise ParameterError(
                "workload contains edge updates; make_graph must "
                "return a DynamicGraph"
            )
        server = ShardedDispatcher(
            graph,
            workers=workers,
            alpha=alpha,
            seed=seed,
            cache_capacity=cache_capacity,
            cache_ttl=cache_ttl,
            max_restarts=max_restarts,
            request_timeout=request_timeout,
            fault_injector=chaos,
        )
    else:
        server = EngineServer(
            make_graph(),
            alpha=alpha,
            seed=seed,
            cache_capacity=cache_capacity,
            cache_ttl=cache_ttl,
        )
        _require_dynamic(server.engine, workload)
    update_rng = workload.update_rng()
    operations = workload.operations
    latencies: list[float | None] = [None] * len(operations)
    estimates: dict[int, np.ndarray] = {}
    degraded_estimates: dict[int, tuple[int, np.ndarray]] = {}
    estimates_mutex = threading.Lock()
    errors: list[BaseException] = []
    counts = {"degraded": 0, "shed": 0, "deadline_expired": 0, "failed": 0}
    frontdoor_snapshot: dict[str, Any] = {}

    def _apply_one_update() -> None:
        if mirror is not None:
            update = sample_edge_update(mirror, update_rng)
            mirror.apply_updates([update])
        else:
            assert isinstance(server, EngineServer)
            update = sample_edge_update(
                server.engine.dynamic_graph, update_rng
            )
        server.apply_updates([update])

    def _answer(op: Operation, served: ServedResult) -> None:
        if collect:
            with estimates_mutex:
                estimates[op.index] = served.result.estimate

    with server:
        started = time.perf_counter()
        if slo_aware:
            # SLO-aware open loop: paced async submission through the
            # front door, with deadlines, shedding, and degradation.
            door = _drive_frontdoor(
                server,
                operations,
                method,
                params,
                slo_ms=slo_ms,
                deadline_ms=deadline_ms,
                degrade_method=degrade_method,
                degrade_params=degrade_params,
                max_inflight=max_inflight,
                collect=collect,
                latencies=latencies,
                estimates=estimates,
                degraded_estimates=degraded_estimates,
                counts=counts,
                errors=errors,
            )
            frontdoor_snapshot = door.snapshot()
        elif workload.arrival == "open":
            # Open loop: one pacing thread submits at the workload's
            # Poisson arrival times and never waits for completions.
            # Updates go through a dedicated writer thread (FIFO, so
            # the stream still matches the serial baseline's order) —
            # if the pacing thread blocked on the exclusive write lock
            # itself, arrivals scheduled during the wait would bunch up
            # and the Poisson process the mode exists to provide would
            # be distorted.
            update_queue: "queue.Queue[object]" = queue.Queue()
            _STOP = object()

            def _updater() -> None:
                try:
                    while True:
                        item = update_queue.get()
                        if item is _STOP:
                            return
                        _apply_one_update()
                except BaseException as exc:  # noqa: BLE001 - re-raised
                    errors.append(exc)

            updater = threading.Thread(target=_updater, name="lt-updater")
            updater.start()
            futures: list[tuple[Any, Any]] = []

            def _record_on_done(
                op: Operation, begin: float
            ) -> Callable[[Any], None]:
                # Completion time is stamped by the resolving thread —
                # charging collection-loop time would inflate the tail
                # of every request that finished during pacing.  Failed
                # futures get no latency sample; the collection loop
                # below surfaces (and accounts) their exception.
                def _done(future: Any) -> None:
                    if future.exception() is None:
                        latencies[op.index] = time.perf_counter() - begin

                return _done

            for op in operations:
                delay = started + op.at - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                if op.kind == "update":
                    update_queue.put(op)
                    continue
                # Clock starts before submit: time spent blocked inside
                # it (read lock queued behind a writer) is queueing
                # delay the open-loop tail must include.
                begin = time.perf_counter()
                future = server.submit(op.source, method, **dict(params))
                future.add_done_callback(_record_on_done(op, begin))
                futures.append((op, future))
            update_queue.put(_STOP)
            for op, future in futures:
                try:
                    _answer(op, future.result())
                except BaseException as exc:  # noqa: BLE001 - re-raised
                    counts["failed"] += 1
                    errors.append(exc)
            updater.join()
        else:
            # Closed loop: `concurrency` workers drain a shared cursor.
            cursor = {"next": 0}
            cursor_mutex = threading.Lock()

            def _worker() -> None:
                try:
                    while True:
                        with cursor_mutex:
                            position = cursor["next"]
                            if position >= len(operations):
                                return
                            cursor["next"] = position + 1
                            op = operations[position]
                            if op.kind == "update":
                                # Sampled and applied before the cursor
                                # advances past it, so the update
                                # stream (state seen at sampling, RNG
                                # draws, apply order) is identical to
                                # the serial baseline's.
                                _apply_one_update()
                        if op.kind == "update":
                            continue
                        begin = time.perf_counter()
                        try:
                            served = server.query(
                                op.source, method, **dict(params)
                            )
                        except BaseException as exc:  # noqa: BLE001
                            if chaos is None:
                                raise
                            # Chaos runs account failures instead of
                            # aborting the worker: the gate downstream
                            # asserts failed == 0, so a lost request is
                            # still a run failure — just a diagnosed
                            # one, with every other fate known.
                            with estimates_mutex:
                                counts["failed"] += 1
                            errors.append(exc)
                            continue
                        latencies[op.index] = time.perf_counter() - begin
                        _answer(op, served)
                except BaseException as exc:  # noqa: BLE001 - re-raised
                    errors.append(exc)

            threads = [
                threading.Thread(target=_worker, name=f"loadtest-{i}")
                for i in range(concurrency)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        wall = time.perf_counter() - started
        if chaos is not None and isinstance(server, ShardedDispatcher):
            _await_recovery(server, chaos)
        stats = server.stats()
    if frontdoor_snapshot:
        stats = dict(stats)
        stats["frontdoor"] = frontdoor_snapshot
    if errors and not slo_aware:
        # Outside the SLO-aware drive there is no expected failure
        # mode: any exception is an infrastructure bug — surface it.
        # A chaos run accounts per-query failures in the report
        # instead (its gate asserts failed == 0 anyway), but errors
        # beyond the accounted ones (an update barrier collapsing, a
        # pacing thread dying) are still infrastructure bugs.
        if chaos is None or len(errors) > counts["failed"]:
            raise errors[0]
    completed_latencies = [lat for lat in latencies if lat is not None]
    completed = len(completed_latencies)
    p50, p99 = _percentiles(completed_latencies)
    within = (
        sum(1 for lat in completed_latencies if lat * 1e3 <= slo_ms)
        if slo_ms is not None
        else completed
    )
    return (
        LoadtestStats(
            wall_seconds=wall,
            queries=workload.num_queries,
            updates=workload.num_updates,
            p50_ms=p50,
            p99_ms=p99,
            completed=completed,
            degraded=counts["degraded"],
            shed=counts["shed"],
            deadline_expired=counts["deadline_expired"],
            failed=counts["failed"],
            slo_ms=slo_ms,
            within_slo=within,
        ),
        estimates,
        degraded_estimates,
        stats,
    )


def run_loadtest(
    make_graph: Callable[[], DiGraph | DynamicGraph],
    workload: Workload,
    *,
    method: str = "powerpush",
    params: Mapping[str, Any] | None = None,
    alpha: float = 0.2,
    seed: int = 0,
    concurrency: int = 8,
    cache_capacity: int = 4096,
    cache_ttl: float | None = None,
    compare: bool = True,
    workers: int = 0,
    slo_ms: float | None = None,
    deadline_ms: float | None = None,
    degrade_method: str | None = None,
    degrade_params: Mapping[str, Any] | None = None,
    max_inflight: int | None = None,
    chaos: FaultInjector | Iterable[FaultSpec] | None = None,
    max_restarts: int | None = None,
    request_timeout: float | None = None,
) -> LoadtestReport:
    """Measure served vs serial replay of ``workload``; see module doc.

    ``make_graph`` is called twice (once per run) so the serial
    baseline's mutations never leak into the served run.  The
    byte-identical cross-check runs only when it is meaningful: a
    deterministic method on a read-only workload (stochastic methods
    and write traffic legitimately diverge, reported as ``None``).

    ``workers >= 1`` switches the served run from the thread-based
    :class:`EngineServer` to a :class:`ShardedDispatcher` over that
    many worker processes mapping one shared-memory graph image
    (answers stay byte-identical either way — placement never changes
    a seeded answer).  ``concurrency`` then counts the closed-loop
    client threads driving the dispatcher.

    ``slo_ms``/``deadline_ms`` switch the served run to the SLO-aware
    async front door (open arrival, read-only workloads only): every
    request carries a deadline, overload sheds or degrades (to
    ``degrade_method``/``degrade_params`` when given), and the report
    accounts every request's fate plus goodput-under-SLO.  Served
    full-fidelity answers are verified against the serial baseline as
    usual; served *degraded* answers are verified against a serial
    engine solving the degraded request — byte-identity is a property
    of every answer actually served, not only the lucky ones.

    ``chaos`` (a :class:`~repro.serving.faults.FaultInjector` or a
    plain list of :class:`~repro.serving.faults.FaultSpec`) arms
    deterministic fault injection inside the sharded dispatcher
    (``workers >= 1`` required): workers are killed/stopped at
    scheduled submit counts, replies dropped or delayed at scheduled
    worker-local ordinals, and the supervisor + retry machinery is
    expected to recover every request.  Per-query failures are then
    *accounted* (``failed``) instead of aborting the replay, and the
    report grows a ``chaos`` section with the schedule, what fired,
    and the supervisor's recovery accounting.  ``max_restarts`` and
    ``request_timeout`` pass through to the dispatcher's restart
    budget and per-request hang detector.
    """
    if concurrency < 1:
        raise ParameterError(f"concurrency must be >= 1, got {concurrency}")
    if workers < 0:
        raise ParameterError(f"workers must be >= 0, got {workers}")
    slo_aware = slo_ms is not None or deadline_ms is not None
    if slo_aware and workload.arrival != "open":
        raise ParameterError(
            "slo_ms/deadline_ms require an open-loop workload "
            "(arrival='open'): a closed loop self-throttles, so there "
            "is no overload to control admission for"
        )
    if slo_aware and workload.num_updates:
        raise ParameterError(
            "slo_ms/deadline_ms require a read-only workload; drive "
            "write traffic through AsyncFrontDoor.apply_updates directly"
        )
    if (degrade_method or degrade_params) and not slo_aware:
        raise ParameterError(
            "degrade_method/degrade_params only apply with slo_ms set"
        )
    injector: FaultInjector | None = None
    if chaos is not None:
        injector = (
            chaos if isinstance(chaos, FaultInjector) else FaultInjector(chaos)
        )
    if workers < 1 and (
        injector is not None
        or max_restarts is not None
        or request_timeout is not None
    ):
        raise ParameterError(
            "chaos/max_restarts/request_timeout require workers >= 1: "
            "fault injection and supervision live in the sharded "
            "dispatcher, not the in-process EngineServer"
        )
    params = dict(params or {})
    spec, _ = resolve_method(method)
    comparable = (
        compare and not spec.needs_rng and workload.num_updates == 0
    )
    if comparable and degrade_method is not None:
        degrade_spec, _ = resolve_method(degrade_method)
        comparable = not degrade_spec.needs_rng
    served_metrics, served_estimates, degraded_estimates, stats = _run_served(
        make_graph,
        workload,
        method,
        params,
        alpha=alpha,
        seed=seed,
        concurrency=concurrency,
        cache_capacity=cache_capacity,
        cache_ttl=cache_ttl,
        collect=comparable,
        workers=workers,
        slo_ms=slo_ms,
        deadline_ms=deadline_ms,
        degrade_method=degrade_method,
        degrade_params=degrade_params,
        max_inflight=max_inflight,
        chaos=injector,
        max_restarts=max_restarts,
        request_timeout=request_timeout,
    )
    serial_metrics, serial_estimates = _run_serial(
        make_graph,
        workload,
        method,
        params,
        alpha=alpha,
        seed=seed,
        collect=comparable,
    )
    identical: bool | None = None
    if comparable:
        # Only answers actually served are checked (an SLO run sheds
        # or expires some) — every one of them must match the sync
        # path bit for bit.
        identical = all(
            np.array_equal(served_estimates[index], serial_estimates[index])
            for index in served_estimates
        )
        if identical and degraded_estimates:
            # Degraded answers are the sync answer to the *degraded*
            # request: replay those requests on a fresh serial engine.
            engine = PPREngine(make_graph(), alpha=alpha, seed=seed)
            check_method = degrade_method or spec.name
            check_params = dict(degrade_params or {})
            identical = all(
                np.array_equal(
                    estimate,
                    engine.query(
                        source, check_method, **check_params
                    ).estimate,
                )
                for source, estimate in degraded_estimates.values()
            )
    chaos_doc: dict[str, Any] = {}
    if injector is not None:
        fired = injector.fired()
        worker_side = [
            s for s in injector.schedule if s.kind in WORKER_KINDS
        ]
        chaos_doc = {
            "scheduled": injector.summary(),
            # Parent-side faults fire from the dispatcher and are
            # observable; worker-side specs fire inside the worker on
            # local ordinals (no feedback channel), so they count as
            # injected by schedule.
            "injected": len(fired) + len(worker_side),
            "fired": [
                {"kind": s.kind, "worker": s.worker, "at": s.at}
                for s in fired
            ],
            "supervisor": dict(stats.get("supervisor", {})),
        }
    return LoadtestReport(
        workload=workload.describe(),
        method=spec.name,
        concurrency=concurrency,
        served=served_metrics,
        serial=serial_metrics,
        cache_hit_rate=float(stats["cache"].get("hit_rate", 0.0)),
        identical=identical,
        server_stats=stats,
        workers=workers,
        frontdoor=dict(stats.get("frontdoor", {})),
        chaos=chaos_doc,
    )
