"""Load/soak harness: synthetic workloads vs the server and a serial baseline.

Answers the serving layer's headline question with numbers: *what do
the result cache and the single-flight table buy over answering one
query at a time?*

:class:`WorkloadGenerator` emits a replayable :class:`Workload` shaped
like real query traffic, deterministically from a seed: sources follow
a Zipf law over a hot set (``p(rank) ∝ rank^-s``), a read/write mix
interleaves edge updates (only their positions and RNG are fixed — a
valid edit depends on the live graph, so it is sampled at apply time),
and arrival is *closed-loop* (next request on completion) or
*open-loop* (Poisson arrivals at a target rate, independent of service
time — the honest way to measure tail latency).

One call to :func:`run_loadtest`

1. replays the workload through an
   :class:`~repro.serving.frontdoor.AsyncFrontDoor` over a fresh
   :class:`~repro.serving.server.EngineServer` (or, with ``workers``,
   a :class:`~repro.serving.sharded.ShardedDispatcher`) — the one
   client path every driver uses: ``concurrency`` asyncio clients
   draining a shared cursor (closed loop) or one task per query paced
   at the workload's arrival times (open loop), with edge updates
   through ``door.apply_updates``,
2. replays the identical sequence against a bare engine, one blocking
   ``query`` at a time, no cache, no flights,
3. cross-checks the answers (estimate and residue, byte for byte, for
   deterministic or seeded requests on read-only workloads) and emits
   a :class:`LoadtestReport` with throughput, p50/p99 latency, cache
   hit rate and the speedup.

Both runs build their graph from the same factory and draw edge
updates from the same stream, so a read/write soak mutates the two
graphs identically: each update is sampled from the graph the run's
updates go to (the engine's, or the tier's ``dynamic_graph``) and
applied before the next is sampled, in operation order (closed loop:
while the claiming client holds the cursor; open loop: by one writer
task).

The driver owns the workload and the clock, nothing else: what became
of each request — completed (full or degraded), shed, deadline expired
or failed — is the front door's count, read from ``door.snapshot()``.
Throughput counts only completions.

**Overload experiments.**  With ``slo_ms``/``deadline_ms`` set (open
arrival only) the door is SLO-aware: requests carry deadlines and
admission control sheds or degrades under pressure; *goodput* counts
only completions inside the SLO.  Without them the door only admits.
Every served answer, degraded ones included, is still verified
byte-identical to a serial engine solving the same (possibly degraded)
request — overload changes whether and how a request is served, never
what a served answer is.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

import numpy as np

from repro.api.engine import PPREngine
from repro.api.registry import resolve_method
from repro.core.result import PPRResult
from repro.durability.atomic import atomic_write_json
from repro.errors import (
    DeadlineExceeded,
    ParameterError,
    ServerOverloadedError,
)
from repro.graph.digraph import DiGraph
from repro.graph.dynamic import DynamicGraph, sample_edge_update
from repro.serving.faults import WORKER_KINDS, FaultInjector, FaultSpec
from repro.serving.flights import ServedResult
from repro.serving.frontdoor import AsyncFrontDoor
from repro.serving.server import EngineServer
from repro.serving.sharded import ShardedDispatcher

__all__ = [
    "LoadtestReport",
    "LoadtestStats",
    "Operation",
    "Workload",
    "WorkloadGenerator",
    "run_loadtest",
]

#: Salt mixed into the workload seed for the lazy update-sampling RNG,
#: so query-source and edge-update streams never correlate.
UPDATE_RNG_SALT = 0x5EED_CAFE


@dataclass(frozen=True)
class Operation:
    """One workload step: a query against a source, or an edge update.

    ``at`` is the arrival offset in seconds from workload start for
    open-loop runs (0.0 everywhere in closed-loop workloads, where
    arrival is completion-driven).  Updates carry ``source == -1``;
    the concrete edge edit is sampled at apply time from the
    workload's update RNG.
    """

    index: int
    kind: str  # "query" | "update"
    source: int
    at: float


@dataclass(frozen=True)
class Workload:
    """A replayable operation sequence plus the knobs that shaped it."""

    operations: tuple[Operation, ...]
    num_sources: int
    zipf_exponent: float
    read_fraction: float
    arrival: str
    arrival_rate: float
    seed: int

    @property
    def num_queries(self) -> int:
        return sum(1 for op in self.operations if op.kind == "query")

    @property
    def num_updates(self) -> int:
        return len(self.operations) - self.num_queries

    @property
    def distinct_sources(self) -> int:
        return len({op.source for op in self.operations if op.kind == "query"})

    def queries(self) -> Iterator[Operation]:
        return (op for op in self.operations if op.kind == "query")

    def update_rng(self) -> np.random.Generator:
        """The generator a harness must sample edge updates from.

        Both the served run and the serial baseline draw from an
        identically-seeded stream and apply updates in operation
        order, so the two runs mutate their graphs identically.
        """
        return np.random.default_rng(self.seed + UPDATE_RNG_SALT)

    def describe(self) -> str:
        return (
            f"{len(self.operations)} ops ({self.num_queries} queries / "
            f"{self.num_updates} updates), zipf s={self.zipf_exponent} "
            f"over {self.num_sources} hot sources, {self.arrival}-loop"
            + (
                f" @ {self.arrival_rate:.0f} req/s"
                if self.arrival == "open"
                else ""
            )
        )


class WorkloadGenerator:
    """Deterministic generator of serving workloads for one graph size.

    Parameters
    ----------
    num_nodes:
        Node-id space queries draw sources from.
    num_sources:
        Size of the Zipfian hot set (distinct query sources).
    zipf_exponent:
        Skew ``s`` of ``p(rank) ∝ rank^-s``; larger = hotter head.
        ``0`` degenerates to uniform over the hot set.
    read_fraction:
        Probability an operation is a query (1.0 = read-only).
    arrival:
        ``"closed"`` (completion-driven) or ``"open"`` (Poisson
        timestamps at ``arrival_rate`` requests/second).
    seed:
        Everything — hot-set choice, source draws, mix, arrivals, and
        the update-sampling stream — derives from this.
    """

    def __init__(
        self,
        num_nodes: int,
        *,
        num_sources: int = 64,
        zipf_exponent: float = 1.1,
        read_fraction: float = 1.0,
        arrival: str = "closed",
        arrival_rate: float = 500.0,
        seed: int = 0,
    ) -> None:
        if num_nodes < 1:
            raise ParameterError(f"num_nodes must be >= 1, got {num_nodes}")
        if not 1 <= num_sources <= num_nodes:
            raise ParameterError(
                f"num_sources must be in [1, {num_nodes}], got {num_sources}"
            )
        if zipf_exponent < 0:
            raise ParameterError(
                f"zipf_exponent must be >= 0, got {zipf_exponent}"
            )
        if not 0.0 <= read_fraction <= 1.0:
            raise ParameterError(
                f"read_fraction must be in [0, 1], got {read_fraction}"
            )
        if arrival not in ("closed", "open"):
            raise ParameterError(
                f"arrival must be 'closed' or 'open', got {arrival!r}"
            )
        if arrival_rate <= 0:
            raise ParameterError(
                f"arrival_rate must be positive, got {arrival_rate}"
            )
        self.num_nodes = int(num_nodes)
        self.num_sources = int(num_sources)
        self.zipf_exponent = float(zipf_exponent)
        self.read_fraction = float(read_fraction)
        self.arrival = arrival
        self.arrival_rate = float(arrival_rate)
        self.seed = int(seed)

    def generate(self, num_ops: int) -> Workload:
        """Materialise ``num_ops`` operations (deterministic per seed)."""
        if num_ops < 1:
            raise ParameterError(f"num_ops must be >= 1, got {num_ops}")
        rng = np.random.default_rng(self.seed)
        hot = rng.choice(self.num_nodes, size=self.num_sources, replace=False)
        ranks = np.arange(1, self.num_sources + 1, dtype=np.float64)
        weights = ranks ** (-self.zipf_exponent)
        weights /= weights.sum()
        sources = rng.choice(hot, size=num_ops, p=weights)
        is_query = rng.random(num_ops) < self.read_fraction
        if self.arrival == "open":
            gaps = rng.exponential(1.0 / self.arrival_rate, size=num_ops)
            arrivals = np.cumsum(gaps)
        else:
            arrivals = np.zeros(num_ops)
        operations = tuple(
            Operation(
                index=i,
                kind="query" if is_query[i] else "update",
                source=int(sources[i]) if is_query[i] else -1,
                at=float(arrivals[i]),
            )
            for i in range(num_ops)
        )
        return Workload(
            operations=operations,
            num_sources=self.num_sources,
            zipf_exponent=self.zipf_exponent,
            read_fraction=self.read_fraction,
            arrival=self.arrival,
            arrival_rate=self.arrival_rate,
            seed=self.seed,
        )


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
    #: the serving tier's ``stats()`` (``supervisor`` among them on a
    #: sharded run)
    server_stats: dict[str, Any] = field(default_factory=dict)
    #: shard processes the served run used (0 = in-process thread mode)
    workers: int = 0
    #: the front door's counters (``snapshot()``)
    frontdoor: dict[str, Any] = field(default_factory=dict)
    #: the fault schedule and what of it fired, on a chaos run
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
            "frontdoor": self.frontdoor,
        }
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
            "n/a (unseeded stochastic method or write traffic)"
            if self.identical is None
            else str(self.identical)
        )
        mode = (
            f"{self.workers} shard processes"
            if self.workers
            else f"{self.concurrency} clients"
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
            supervisor = self.server_stats.get("supervisor", {})
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


def _answer_bytes(result: PPRResult) -> tuple[bytes, bytes | None]:
    """What two answers must share to be the same answer."""
    residue = None if result.residue is None else result.residue.tobytes()
    return result.estimate.tobytes(), residue


def _update_sampler(
    graph: DynamicGraph | None, workload: Workload
) -> Callable[[], tuple[str, int, int]]:
    """Draws ``workload``'s next edge update from ``graph`` as it is."""
    if workload.num_updates and graph is None:
        raise ParameterError(
            "workload contains edge updates; make_graph must return a "
            "DynamicGraph"
        )
    rng = workload.update_rng()

    def sample() -> tuple[str, int, int]:
        assert graph is not None  # checked above: updates need a graph
        return sample_edge_update(graph, rng)

    return sample


def _run_serial(
    make_graph: Callable[[], DiGraph | DynamicGraph],
    workload: Workload,
    method: str,
    params: Mapping[str, Any],
    *,
    alpha: float,
    seed: int,
    collect: bool,
) -> tuple[LoadtestStats, dict[int, PPRResult]]:
    """The baseline: one engine, one thread, one query at a time."""
    engine = PPREngine(make_graph(), alpha=alpha, seed=seed)
    sample_update = _update_sampler(engine.dynamic_graph, workload)
    answers: dict[int, PPRResult] = {}
    latencies: list[float] = []
    started = time.perf_counter()
    for op in workload.operations:
        if op.kind == "query":
            begin = time.perf_counter()
            result = engine.query(op.source, method, **dict(params))
            latencies.append(time.perf_counter() - begin)
            if collect:
                answers[op.index] = result
        else:
            engine.apply_updates([sample_update()])
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
        answers,
    )


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


@dataclass
class _Tally:
    """What the driver keeps of one served replay.

    Only what the front door cannot know: the latency of each
    completion, the answers to cross-check, and the first unexpected
    error.  Each request's fate is the door's count.
    """

    collect: bool
    latencies: list[float] = field(default_factory=list)
    #: answers by operation index (when ``collect``)
    answers: dict[int, ServedResult] = field(default_factory=dict)
    error: Exception | None = None


async def _drive(
    door: AsyncFrontDoor,
    workload: Workload,
    method: str,
    params: Mapping[str, Any],
    *,
    concurrency: int,
    sample_update: Callable[[], tuple[str, int, int]],
    tally: _Tally,
) -> None:
    """Replay ``workload`` through ``door``, closed or open loop.

    Updates are sampled and applied one at a time in operation order,
    so the served graph takes the serial baseline's update stream.
    """

    async def update() -> None:
        await door.apply_updates([sample_update()])

    async def query(op: Operation) -> None:
        begin = time.perf_counter()
        try:
            served = await door.submit(op.source, method, **params)
        except (DeadlineExceeded, ServerOverloadedError):
            return  # admission control at work
        except Exception as exc:  # noqa: BLE001 - reported by the caller
            if tally.error is None:
                tally.error = exc
            return
        tally.latencies.append(time.perf_counter() - begin)
        if tally.collect:
            tally.answers[op.index] = served

    if workload.arrival == "open":
        # Open loop: one task per query at the workload's Poisson
        # arrival times, never waiting for completions.  Updates go to
        # one writer task (FIFO, so the stream keeps its order): if the
        # pacing loop awaited the exclusive write path itself, arrivals
        # scheduled during the wait would bunch up.
        writes: asyncio.Queue[bool] = asyncio.Queue()

        async def writer() -> None:
            while await writes.get():
                await update()

        tasks = [asyncio.ensure_future(writer())]
        started = time.perf_counter()
        for op in workload.operations:
            delay = started + op.at - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            if op.kind == "update":
                writes.put_nowait(True)
            else:
                tasks.append(asyncio.ensure_future(query(op)))
        writes.put_nowait(False)
        await asyncio.gather(*tasks)
        return

    # Closed loop: `concurrency` clients drain a shared cursor.
    cursor = iter(workload.operations)
    claim = asyncio.Lock()

    async def client() -> None:
        while True:
            async with claim:
                op = next(cursor, None)
                if op is not None and op.kind == "update":
                    # Sampled and applied before the cursor moves past
                    # it: the update stream (state seen at sampling,
                    # RNG draws, apply order) is the serial baseline's.
                    await update()
            if op is None:
                return
            if op.kind == "query":
                await query(op)

    await asyncio.gather(*(client() for _ in range(concurrency)))


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
    collect: bool,
    workers: int = 0,
    slo_ms: float | None = None,
    deadline_ms: float | None = None,
    degrade_params: Mapping[str, Any] | None = None,
    max_inflight: int | None = None,
    chaos: FaultInjector | None = None,
    max_restarts: int | None = None,
    request_timeout: float | None = None,
) -> tuple[
    LoadtestStats,
    dict[int, ServedResult],
    dict[str, Any],
    dict[str, Any],
]:
    """Replay the workload through an :class:`AsyncFrontDoor` over an
    :class:`EngineServer` — or, with ``workers >= 1``, a
    :class:`ShardedDispatcher` over that many worker processes sharing
    one shared-memory graph image; also returns the collected answers,
    the tier's ``stats()`` and the door's ``snapshot()``."""
    server: EngineServer | ShardedDispatcher
    if workers:
        server = ShardedDispatcher(
            make_graph(),
            workers=workers,
            alpha=alpha,
            seed=seed,
            cache_capacity=cache_capacity,
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
        )
    door = AsyncFrontDoor(
        server,
        slo_ms=slo_ms,
        deadline_ms=deadline_ms,
        degrade_params=dict(degrade_params) if degrade_params else None,
        max_inflight=max_inflight,
    )
    tally = _Tally(collect)
    with server:
        sample_update = _update_sampler(server.dynamic_graph, workload)
        started = time.perf_counter()
        asyncio.run(
            _drive(
                door,
                workload,
                method,
                params,
                concurrency=concurrency,
                sample_update=sample_update,
                tally=tally,
            )
        )
        wall = time.perf_counter() - started
        if chaos is not None and isinstance(server, ShardedDispatcher):
            _await_recovery(server, chaos)
        stats = dict(server.stats())
    counts = door.snapshot()
    slo_aware = slo_ms is not None or deadline_ms is not None
    if tally.error is not None and not slo_aware and chaos is None:
        # Outside an SLO-aware or chaos run no query is expected to
        # fail: the error is an infrastructure bug — surface it.  The
        # other two report it as ``failed`` (their gates assert
        # failed == 0 anyway).
        raise tally.error
    p50, p99 = _percentiles(tally.latencies)
    within = (
        sum(1 for lat in tally.latencies if lat * 1e3 <= slo_ms)
        if slo_ms is not None
        else len(tally.latencies)
    )
    return (
        LoadtestStats(
            wall_seconds=wall,
            queries=workload.num_queries,
            updates=workload.num_updates,
            p50_ms=p50,
            p99_ms=p99,
            completed=len(tally.latencies),
            degraded=counts["degraded"],
            shed=counts["shed"],
            deadline_expired=(
                counts["deadline_rejected"] + counts["deadline_expired"]
            ),
            failed=counts["failed"],
            slo_ms=slo_ms,
            within_slo=within,
        ),
        tally.answers,
        stats,
        counts,
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
    workers: int = 0,
    slo_ms: float | None = None,
    deadline_ms: float | None = None,
    degrade_params: Mapping[str, Any] | None = None,
    max_inflight: int | None = None,
    chaos: FaultInjector | Iterable[FaultSpec] | None = None,
    max_restarts: int | None = None,
    request_timeout: float | None = None,
) -> LoadtestReport:
    """Measure served vs serial replay of ``workload``; see module doc.

    ``make_graph`` is called twice (once per run) so the serial
    baseline's mutations never leak into the served run.  The
    byte-identical cross-check of estimates and residues runs only
    when it is meaningful: a read-only workload and a request whose
    answer is a pure function of ``(seed, source)`` — a deterministic
    method, or a stochastic one given ``seed``.  Unseeded stochastic
    methods and write traffic legitimately diverge, reported as
    ``None``.

    ``workers >= 1`` switches the served run from the thread-based
    :class:`EngineServer` to a :class:`ShardedDispatcher` over that
    many worker processes mapping one shared-memory graph image
    (answers stay byte-identical either way — placement never changes
    a seeded answer).  ``concurrency`` counts the closed-loop clients.

    ``slo_ms``/``deadline_ms`` make the front door SLO-aware (open
    arrival only): every request carries a deadline, overload sheds or
    degrades (``degrade_params`` merged over ``params``, when given),
    and the report accounts every request's fate plus
    goodput-under-SLO.  Served full-fidelity answers are verified
    against the serial baseline as usual; served *degraded* answers
    are verified against a serial engine solving the degraded request
    — byte-identity is a property of every answer actually served,
    not only the lucky ones.

    ``chaos`` (a :class:`~repro.serving.faults.FaultInjector` or a
    plain list of :class:`~repro.serving.faults.FaultSpec`) arms
    deterministic fault injection inside the sharded dispatcher
    (``workers >= 1`` required): workers are killed/stopped at
    scheduled submit counts, replies dropped or delayed at scheduled
    worker-local ordinals, and the supervisor + retry machinery is
    expected to recover every request.  Per-query failures are then
    *accounted* (``failed``) instead of aborting the replay, and the
    report grows a ``chaos`` section with the schedule and what fired;
    the supervisor's recovery accounting is in ``server_stats``.
    ``max_restarts`` and ``request_timeout`` pass through to the
    dispatcher's restart budget and per-request hang detector.
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
    if degrade_params and not slo_aware:
        raise ParameterError("degrade_params only apply with slo_ms set")
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
        not spec.needs_rng or params.get("seed") is not None
    ) and workload.num_updates == 0
    served_metrics, served_answers, stats, counts = _run_served(
        make_graph,
        workload,
        method,
        params,
        alpha=alpha,
        seed=seed,
        concurrency=concurrency,
        cache_capacity=cache_capacity,
        collect=comparable,
        workers=workers,
        slo_ms=slo_ms,
        deadline_ms=deadline_ms,
        degrade_params=degrade_params,
        max_inflight=max_inflight,
        chaos=injector,
        max_restarts=max_restarts,
        request_timeout=request_timeout,
    )
    serial_metrics, serial_answers = _run_serial(
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
            _answer_bytes(served.result) == _answer_bytes(serial_answers[index])
            for index, served in served_answers.items()
            if not served.degraded
        )
        degraded = [s for s in served_answers.values() if s.degraded]
        if identical and degraded:
            # Degraded answers are the sync answer to the *degraded*
            # request: replay those requests on a fresh serial engine.
            engine = PPREngine(make_graph(), alpha=alpha, seed=seed)
            merged = {**params, **dict(degrade_params or {})}
            identical = all(
                _answer_bytes(served.result)
                == _answer_bytes(
                    engine.query(served.result.source, method, **merged)
                )
                for served in degraded
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
        frontdoor=counts,
        chaos=chaos_doc,
    )
