"""The four benchmark workloads, from PowerPush kernel to sharded front door.

Every workload is closed-loop: a client issues its next operation only
after the previous one completed.  ``--seed`` picks the sources, the
operation mix and the update stream; the program under test receives
only the generated inputs.  Graphs are generated in memory by
``generate_dataset`` (their topology is fixed by the dataset recipe,
not by the seed), never read from the ``.dataset_cache/`` disk path.

A workload object goes through ``setup() -> run() -> verify() ->
teardown()``; ``setup()``/``teardown()`` may be repeated (the runner
sets up several times).  The timed phase is a sequence of rounds of a
fixed number of operations.  Between two rounds nothing is in flight,
and the interference probe runs (see ``probe.py``).
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from repro import (
    AsyncFrontDoor,
    DynamicGraph,
    PPREngine,
    ShardedDispatcher,
    power_iteration,
    sample_edge_update,
)
from repro.generators.datasets import generate_dataset
from repro.metrics import max_relative_error

from probe import Probe
from spans import Tracer

ALPHA = 0.2
#: engine seed of every stack; answers are a pure function of it and the source
ENGINE_SEED = 7
L1 = 1e-8
EPSILON = 0.5
ZIPF = 1.1
#: hot sources submitted together while a serving set-up fills the caches
WARM_WAVE = 16

Check = Callable[[bool, str], None]


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload (``smoke()`` shrinks them for the smoke test)."""

    name: str
    why: str
    dataset: str
    scale: float
    #: operations per round
    round_size: int
    #: untimed queries at the end of set-up
    warmup: int
    #: closed-loop clients (1 = one sequential caller)
    clients: int = 1
    hot_sources: int = 0
    #: every ``update_every``-th operation is an edge update (0 = read-only)
    update_every: int = 0

    def smoke(self) -> "Spec":
        hot = min(self.hot_sources, 16)
        return replace(
            self,
            scale=2,
            # a serving set-up still solves its share of the hot set
            warmup=min(self.warmup, hot) if hot else max(self.warmup // 10, 2),
            hot_sources=hot,
        )


@dataclass(frozen=True)
class Round:
    #: the round's reads are ``read_ms[first_read : first_read + reads]``
    first_read: int
    reads: int
    seconds: float
    traced: bool


@dataclass
class Timed:
    """What one timed phase measured."""

    read_ms: list[float] = field(default_factory=list)
    update_ms: list[float] = field(default_factory=list)
    rounds: list[Round] = field(default_factory=list)
    #: probe times: one before each round and one after the last
    probe_ms: list[float] = field(default_factory=list)
    seconds: float = 0.0
    #: operations started; every one must end up answered or failed
    issued: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.read_ms) + len(self.update_ms) + self.failed

    def fail(self, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(repr(exc))


class Phase:
    """Book-keeping of a timed phase: rounds, probes, and when it is over.

    The phase ends at the first round boundary past ``seconds``.  In a
    traced run the tracer is switched at every boundary, so traced and
    untraced rounds interleave within one process and one cache state.
    """

    def __init__(
        self,
        timed: Timed,
        seconds: float,
        tracer: Tracer,
        alternate: bool,
        probe: Probe,
    ) -> None:
        self._timed = timed
        self._seconds = seconds
        self._tracer = tracer
        self._alternate = alternate
        self._probe = probe
        timed.probe_ms.append(probe())
        self._start = time.perf_counter()

    def begin_round(self) -> None:
        self.span = self._tracer.open("replay:round")
        self._first_read = len(self._timed.read_ms)
        self._round_start = time.perf_counter()

    def end_round(self) -> bool:
        """Close the round and probe; True once the phase is over."""
        seconds = time.perf_counter() - self._round_start
        timed = self._timed
        timed.rounds.append(
            Round(
                self._first_read,
                len(timed.read_ms) - self._first_read,
                seconds,
                self._tracer.enabled,
            )
        )
        self._tracer.close(self.span)
        if self._alternate:
            self._tracer.enabled = not self._tracer.enabled
        timed.probe_ms.append(self._probe())
        timed.seconds = time.perf_counter() - self._start
        # a traced run needs a round of either kind to compare
        enough = len(timed.rounds) >= (2 if self._alternate else 1)
        return timed.seconds >= self._seconds and enough


def zipf_draws(
    rng: np.random.Generator, hot: np.ndarray, count: int, window: int
) -> np.ndarray:
    """``count`` draws from ``hot`` with ``p(rank) ~ rank^-ZIPF``.

    Systematic sampling: every ``window`` consecutive draws take evenly
    spaced quantiles of the distribution (one random offset per window)
    in random order.  Each draw is still Zipf, but every window holds
    nearly the same mix of ranks, so rounds do equal work.
    """
    weights = np.arange(1, hot.shape[0] + 1, dtype=np.float64) ** -ZIPF
    cdf = np.cumsum(weights / weights.sum())
    windows = -(-count // window)
    quantiles = (np.arange(window) + rng.random((windows, 1))) / window
    ranks = np.minimum(np.searchsorted(cdf, quantiles), hot.shape[0] - 1)
    return hot[rng.permuted(ranks, axis=1).reshape(-1)[:count]]


class Workload:
    """Shared life cycle; subclasses fill in the four phases."""

    def __init__(
        self, spec: Spec, seed: int, tracer: Tracer, probe: Probe, scratch: Path
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.tracer = tracer
        self.probe = probe
        self.scratch = scratch
        self.graph = None

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def make_graph(self):
        graph = generate_dataset(self.spec.dataset, scale=self.spec.scale)
        graph.warm_push_caches()
        return graph

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float, *, alternate: bool) -> Timed:
        raise NotImplementedError

    def verify(self, check: Check) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        self.graph = None


class SolverWorkload(Workload):
    """One sequential caller of ``PPREngine.query`` on distinct sources."""

    method = ""
    params: dict = {}

    def setup(self) -> None:
        self.graph = self.make_graph()
        self.engine = PPREngine(self.graph, alpha=ALPHA, seed=ENGINE_SEED)
        self.prepare_engine()
        self.sources = self.rng(0).permutation(self.graph.num_nodes)
        warm = self.rng(1).integers(0, self.graph.num_nodes, self.spec.warmup)
        for source in warm:
            self.engine.query(int(source), self.method, **self.params)
        self.answered: list[int] = []

    def prepare_engine(self) -> None:
        pass

    def accept(self, result) -> bool:
        return True

    def run(self, seconds: float, *, alternate: bool) -> Timed:
        timed = Timed()
        phase = Phase(timed, seconds, self.tracer, alternate, self.probe)
        requests = enumerate(int(s) for s in self.sources)
        over = False
        while not over:
            phase.begin_round()
            for _ in range(self.spec.round_size):
                self.query(timed, phase, *next(requests))
            over = phase.end_round()
        return timed

    def query(self, timed: Timed, phase: Phase, request: int, source: int) -> None:
        timed.issued += 1
        start = time.perf_counter()
        try:
            result = self.engine.query(source, self.method, **self.params)
        except Exception as exc:  # counted, reported, and the run goes on
            timed.fail(exc)
            return
        now = time.perf_counter()
        self.tracer.record(
            "replay:engine.query", start, now, parent=phase.span, request=request
        )
        if self.accept(result):
            timed.read_ms.append((now - start) * 1e3)
            self.answered.append(source)
        else:
            timed.fail(ValueError(f"source {source}: answer out of contract"))

    def sample_answered(self, count: int) -> list[int]:
        count = min(count, len(self.answered))
        picked = self.rng(2).choice(self.answered, size=count, replace=False)
        return [int(s) for s in picked]

    def teardown(self) -> None:
        self.engine = None
        super().teardown()


class HighPrecSingle(SolverWorkload):
    method = "powerpush"
    params = {"l1_threshold": L1}

    def accept(self, result) -> bool:
        return result.r_sum <= L1

    def verify(self, check: Check) -> None:
        for source in self.sample_answered(3):
            answer = self.engine.query(source, self.method, **self.params)
            truth = power_iteration(
                self.graph, source, alpha=ALPHA, l1_threshold=1e-10
            )
            distance = float(np.abs(answer.estimate - truth.estimate).sum())
            check(
                distance <= L1 + 1e-10,
                f"source {source}: |powerpush - power_iteration|_1 = "
                f"{distance:.3e} (lambda {L1:g})",
            )


class ApproxIndex(SolverWorkload):
    method = "speedppr"
    params = {"epsilon": EPSILON}

    def prepare_engine(self) -> None:
        self.engine.walk_index()

    def verify(self, check: Check) -> None:
        builds = self.engine.index_builds["walk"]
        check(builds == 1, f"walk index built {builds} times, not once")
        mu = 1.0 / self.graph.num_nodes
        for source in self.sample_answered(5):
            answer = self.engine.query(source, self.method, **self.params)
            truth = self.engine.query(source, "powerpush", l1_threshold=1e-10)
            error = max_relative_error(answer.estimate, truth.estimate, mu=mu)
            check(
                error <= EPSILON,
                f"source {source}: max relative error {error:.3f} for "
                f"pi >= 1/n (epsilon {EPSILON})",
            )


class ServeWorkload(Workload):
    """Asyncio clients -> ``AsyncFrontDoor`` -> ``ShardedDispatcher(workers=2)``.

    The clients, the dispatcher and both shards share the one CPU the
    runner is pinned to.  The clients of a round drain before the next
    round starts, so fewer than ``clients`` operations are in flight at a
    round's end.  With ``update_every`` set the graph is dynamic, the dispatcher logs
    to an fsynced WAL, and every ``update_every``-th operation is a
    single-edge update.  The fixed cadence gives every round the same
    share of updates.
    """

    ask = {"method": "powerpush", "l1_threshold": L1}
    #: what ``teardown()`` undoes, whichever step of ``setup()`` was reached
    dispatcher = door = wal_dir = None

    @property
    def churn(self) -> bool:
        return self.spec.update_every > 0

    def setup(self) -> None:
        self.graph = self.make_graph()
        self.wal_dir = None
        options = {}
        if self.churn:
            self.scratch.mkdir(parents=True, exist_ok=True)
            self.wal_dir = Path(tempfile.mkdtemp(prefix="wal-", dir=self.scratch))
            options = {"wal_dir": self.wal_dir, "wal_fsync": True}
            #: parent-side copy of the logical graph: updates are sampled
            #: against it, and the serial reference engine reads it
            self.mirror = DynamicGraph(self.graph)
        self.dispatcher = ShardedDispatcher(
            self.graph,
            workers=2,
            alpha=ALPHA,
            seed=ENGINE_SEED,
            cache_capacity=4096,
            **options,
        )
        self.door = AsyncFrontDoor(self.dispatcher)
        rng = self.rng(0)
        self.hot = self.pick_hot(rng)
        #: far more draws than any run can consume, so the length of the
        #: timed phase is set by the clock alone
        every = self.spec.update_every
        reads_per_round = self.spec.round_size - (
            self.spec.round_size // every if every else 0
        )
        self.reads = zipf_draws(
            rng, self.hot, 20_000 if self.churn else 200_000, reads_per_round
        )
        self.update_rng = self.rng(1)
        self.updates_sent = 0
        warm = self.hot[: self.spec.warmup]
        for offset in range(0, len(warm), WARM_WAVE):
            futures = [
                self.dispatcher.submit(int(s), **self.ask)
                for s in warm[offset : offset + WARM_WAVE]
            ]
            for future in futures:
                future.result(timeout=120)

    def pick_hot(self, rng: np.random.Generator) -> np.ndarray:
        """``hot_sources`` random sources whose Zipf ranks alternate between
        the shards.

        The ring routes by source id, so a plain random hot set splits
        unevenly, and differently for every seed.  The shard with the
        larger share solves larger blocks in set-up and answers more of
        the reads: its peak RSS ran from 206 to 278 MB over six seeds.
        """
        shards = self.dispatcher.configured_workers
        wanted = [len(range(k, self.spec.hot_sources, shards)) for k in range(shards)]
        routed: list[list[int]] = [[] for _ in range(shards)]
        for source in rng.permutation(self.graph.num_nodes):
            shard = self.dispatcher.route(int(source))
            if len(routed[shard]) < wanted[shard]:
                routed[shard].append(int(source))
                if sum(map(len, routed)) == self.spec.hot_sources:
                    break
        hot = np.empty(self.spec.hot_sources, dtype=np.int64)
        for k, bucket in enumerate(routed):
            hot[k::shards] = bucket
        return hot

    def run(self, seconds: float, *, alternate: bool) -> Timed:
        timed = Timed()
        self.all_hits = True
        asyncio.run(self._drive(timed, seconds, alternate))
        return timed

    async def _drive(self, timed: Timed, seconds: float, alternate: bool) -> None:
        phase = Phase(timed, seconds, self.tracer, alternate, self.probe)
        every = self.spec.update_every
        #: two updates in flight could reach the dispatcher in the other
        #: order than they were sampled in; the second may depend on the first
        write_order = asyncio.Lock()

        async def read(request: int) -> None:
            # the request's position among the reads, updates left out
            source = int(self.reads[request - request // every if every else request])
            start = time.perf_counter()
            try:
                served = await self.door.submit(source, **self.ask)
            except Exception as exc:  # sheds and expired deadlines land here too
                timed.fail(exc)
                return
            now = time.perf_counter()
            self.tracer.record(
                "replay:frontdoor.submit", start, now, parent=phase.span, request=request
            )
            timed.read_ms.append((now - start) * 1e3)
            self.all_hits = self.all_hits and served.cache_hit

        async def write(request: int) -> None:
            async with write_order:
                update = sample_edge_update(self.mirror, self.update_rng)
                self.mirror.apply_updates([update])
                self.updates_sent += 1
                start = time.perf_counter()
                try:
                    await self.door.apply_updates([update])
                except Exception as exc:
                    timed.fail(exc)
                    return
                now = time.perf_counter()
            self.tracer.record(
                "replay:frontdoor.apply_updates", start, now, parent=phase.span, request=request
            )
            timed.update_ms.append((now - start) * 1e3)

        async def client(requests) -> None:
            for request in requests:
                timed.issued += 1
                is_update = every and request % every == every - 1
                await (write if is_update else read)(request)

        first, over = 0, False
        while not over:
            # One shared iterator: a client takes the round's next
            # operation when its previous one completed, and the round
            # ends when all of them have, so nothing is in flight while
            # the probe runs.
            requests = iter(range(first, first + self.spec.round_size))
            first += self.spec.round_size
            phase.begin_round()
            await asyncio.gather(
                *(client(requests) for _ in range(self.spec.clients))
            )
            over = phase.end_round()

    def verify(self, check: Check) -> None:
        count = min(16, len(self.hot))
        sample = [int(s) for s in self.rng(2).choice(self.hot, size=count, replace=False)]

        async def fetch() -> list:
            return await asyncio.gather(
                *(self.door.submit(s, **self.ask) for s in sample)
            )

        served = asyncio.run(fetch())
        final = self.mirror.snapshot() if self.churn else self.graph
        serial = PPREngine(final, alpha=ALPHA, seed=ENGINE_SEED)
        for source, answer in zip(sample, served):
            expected = serial.query(source, **self.ask)
            check(
                answer.result.estimate.tobytes() == expected.estimate.tobytes()
                and answer.result.residue.tobytes() == expected.residue.tobytes()
                and answer.version == self.updates_sent,
                f"source {source}: served answer (version {answer.version}) "
                f"differs from the serial engine at version {self.updates_sent}",
            )
        check(
            self.dispatcher.graph_version == self.updates_sent,
            f"graph_version {self.dispatcher.graph_version} after "
            f"{self.updates_sent} updates",
        )
        if not self.churn:
            check(self.all_hits, "a timed read of serve-hot missed the cache")
        stats = self.dispatcher.stats()
        door = self.door.snapshot()
        must_be_zero = {
            "sharded.rerouted": stats["rerouted"],
            "sharded.retries": stats["supervisor"]["retries"],
            "sharded.worker_failures": stats["worker_failures"],
            "frontdoor.shed": door["shed"],
            "frontdoor.degraded": door["degraded"],
            "frontdoor.deadline_expired": door["deadline_expired"],
        }
        for name, value in must_be_zero.items():
            check(value == 0, f"{name} = {value}, expected 0")

    def teardown(self) -> None:
        if self.dispatcher is not None:
            self.dispatcher.close()
            self.dispatcher = self.door = None
        if self.wal_dir is not None:
            shutil.rmtree(self.wal_dir)
            self.wal_dir = None
        super().teardown()


SPECS: dict[str, tuple[Spec, type[Workload]]] = {
    spec.name: (spec, cls)
    for spec, cls in (
        (
            Spec(
                name="highprec-single",
                why="distinct sources at lambda=1e-8, so all time is in the "
                "PowerPush kernels and no serving layer runs",
                dataset="lj-s",
                scale=10,
                round_size=2,
                warmup=8,
            ),
            HighPrecSingle,
        ),
        (
            Spec(
                name="approx-index",
                why="SpeedPPR at epsilon=0.5 from the walk index, so local "
                "push and walk reads run and the global sweep is bypassed",
                dataset="pokec-s",
                scale=10,
                round_size=8,
                warmup=20,
            ),
            ApproxIndex,
        ),
        (
            Spec(
                name="serve-hot",
                why="Zipf reads of solved sources through front door and 2 "
                "shards, all on one CPU, so every read is a cache hit and the "
                "CPU cost of the hit path shows, not a parallel speed-up",
                dataset="webst-s",
                scale=20,
                round_size=150,
                warmup=24,
                clients=2,
                hot_sources=24,
            ),
            ServeWorkload,
        ),
        (
            Spec(
                name="serve-churn",
                why="4 clients drained every 10 operations, the 10th a "
                "WAL-fsynced edge update, on 2 shards sharing one CPU, so caches "
                "are invalidated and misses coalesce into block solves",
                dataset="webst-s",
                scale=20,
                round_size=10,
                warmup=16,
                clients=4,
                hot_sources=64,
                update_every=10,
            ),
            ServeWorkload,
        ),
    )
}
