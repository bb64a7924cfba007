"""Per-layer metrics: the layer ladder and the single-layer measurements.

All of it runs on one fixed graph (the ``webst-s`` analog of the
serving workloads) and 16 fixed sources, whatever ``--workload`` and
``--seed`` say, so a layer's number means the same thing in every
traced run.

The *ladder* times the same requests through six tiers::

    power_push -> PPREngine.query -> EngineServer.query (miss) -> ShardedDispatcher.query (miss)
                                     EngineServer.query (hit)  -> ShardedDispatcher.query (hit)
                                                               -> AsyncFrontDoor.submit (hit)

Each source goes through every tier before the next source does, so
drift in the machine's speed falls on all tiers alike.  A tier's self
time is its median minus the tier below, which is where the
``*.overhead_ms`` metrics come from; they telescope, so the self times
of a chain sum to its top tier (``LADDER_CHAINS``).  Misses are first
requests for a source, not ``fresh=True`` requests: they take the path
a real miss takes and fill the cache for the hit pass.

Every timed call is a span (request = position in the source list), and
the medians are read back from the spans.
"""

from __future__ import annotations

import asyncio
import gc
import pickle
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Callable

import numpy as np

from repro import (
    AsyncFrontDoor,
    DynamicGraph,
    EngineServer,
    PPREngine,
    PushState,
    ShardedDispatcher,
    SharedGraphImage,
    power_push,
    power_push_block,
    refine_to_r_max,
    sample_edge_update,
    speed_ppr,
)
from repro.api.registry import build_speedppr_index
from repro.core.kernels import block_global_sweep, frontier_push, global_sweep
from repro.core.mc_phase import monte_carlo_refine
from repro.core.residues import BlockPushState
from repro.durability.checkpoint import CheckpointStore
from repro.durability.wal import WriteAheadLog
from repro.generators.datasets import generate_dataset
from repro.montecarlo.chernoff import (
    chernoff_walk_count,
    default_failure_probability,
    default_mu,
)

from spans import Tracer
from workloads import ALPHA, ENGINE_SEED, EPSILON, L1

LADDER_SOURCES = 16
BLOCK = 8
UPDATES = 4
WAL_APPENDS = 40
#: seed of the ladder's own inputs; deliberately not ``--seed``
FIXED_SEED = 20210620
ASK = {"method": "powerpush", "l1_threshold": L1}

#: self time = tier - tier below
OVERHEADS = (
    ("engine.overhead_ms", "engine.query_ms", "powerpush.solve_ms"),
    ("server.overhead_ms", "server.miss_ms", "engine.query_ms"),
    ("sharded.miss_overhead_ms", "sharded.miss_ms", "server.miss_ms"),
    ("sharded.ipc_overhead_ms", "sharded.hit_ms", "server.hit_ms"),
    ("frontdoor.overhead_ms", "frontdoor.hit_ms", "sharded.hit_ms"),
    ("durability.update_tax_ms", "sharded.update_wal_ms", "sharded.update_barrier_ms"),
)
#: chains of self times, and the top tier each sums to
LADDER_CHAINS = {
    "sharded.miss_ms": (
        "powerpush.solve_ms",
        "engine.overhead_ms",
        "server.overhead_ms",
        "sharded.miss_overhead_ms",
    ),
    "frontdoor.hit_ms": (
        "server.hit_ms",
        "sharded.ipc_overhead_ms",
        "frontdoor.overhead_ms",
    ),
}

Metrics = dict[str, tuple[float, str]]


def serving_metrics(stats: dict) -> Metrics:
    """The five metrics read from the ladder dispatcher's ``stats()``, after
    it served one miss and two hits per source, ``UPDATES`` barriers and
    one burst of all sources at the new version."""
    return {
        "scheduler.batching_factor": (stats["scheduler"]["batching_factor"], "count"),
        "scheduler.engine_calls": (stats["scheduler"]["engine_calls"], "count"),
        "cache.hit_rate": (stats["cache"]["hit_rate"], "count"),
        "cache.invalidations": (stats["cache"]["invalidations"], "count"),
        "cache.stale_drops": (stats["cache"]["stale_drops"], "count"),
    }


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class LayerRun:
    """One pass over every layer; ``run()`` returns ``name -> (value, unit)``."""

    def __init__(self, tracer: Tracer, scratch: Path, *, smoke: bool) -> None:
        self.tracer = tracer
        self.scratch = scratch
        self.scale = 2 if smoke else 20
        self.out: Metrics = {}
        self.rng = np.random.default_rng(FIXED_SEED)

    # -- timing helpers --------------------------------------------------
    def call(self, name: str, fn: Callable, *args, request: int | None = None, **kwargs):
        start = time.perf_counter()
        value = fn(*args, **kwargs)
        self.tracer.record(name, start, time.perf_counter(), request=request)
        return value

    def each(self, name: str, fn: Callable, items) -> list:
        return [self.call(name, fn, item, request=i) for i, item in enumerate(items)]

    def median_ms(self, span: str) -> float:
        return statistics.median(self.tracer.durations_ms(span))

    def put_ms(self, *spans: str) -> None:
        for span in spans:
            self.out[f"{span}_ms"] = (self.median_ms(span), "ms")

    # -- the pass --------------------------------------------------------
    def run(self) -> Metrics:
        self.tracer.enabled = True
        self.graph_layer()
        self.kernels()
        self.ladder()
        self.solvers()
        self.update_path()
        self.shm()
        self.durability()
        for name, upper, lower in OVERHEADS:
            self.out[name] = (self.out[upper][0] - self.out[lower][0], "ms")
        self.tracer.enabled = False
        return self.out

    def graph_layer(self) -> None:
        self.graph = self.call(
            "graph.generate", generate_dataset, "webst-s", scale=self.scale
        )
        self.call("graph.warm_caches", self.graph.warm_push_caches)
        self.out["graph.generate_s"] = (self.median_ms("graph.generate") / 1e3, "s")
        self.put_ms("graph.warm_caches")
        picked = self.rng.choice(
            self.graph.num_nodes, size=LADDER_SOURCES, replace=False
        )
        self.sources = [int(s) for s in picked]
        self.blocks = [
            self.sources[i : i + BLOCK] for i in range(0, LADDER_SOURCES, BLOCK)
        ]
        self.update_rng = np.random.default_rng(FIXED_SEED)
        gc.collect()

    def kernels(self) -> None:
        graph = self.graph
        n, m = graph.num_nodes, graph.num_edges
        state = PushState(graph, self.sources[0], ALPHA)
        for _ in range(6):  # spread the unit residue until the state is dense
            global_sweep(state)
        for _ in range(15):
            self.call("kernels.global_sweep", global_sweep, state)
        frontier = np.sort(self.rng.choice(n, size=max(n // 100, 1), replace=False))
        frontier_edges = max(int(graph.out_degree[frontier].sum()), 1)
        for _ in range(15):
            self.call("kernels.frontier_push", frontier_push, state, frontier)
        block_state = BlockPushState(graph, self.blocks[0], ALPHA)
        rows = np.arange(BLOCK)
        for _ in range(6):
            block_global_sweep(block_state, rows)
        for _ in range(9):
            self.call("kernels.block_global_sweep", block_global_sweep, block_state, rows)
        for span, per, edges in (
            ("kernels.global_sweep", "edge", m),
            ("kernels.frontier_push", "edge", frontier_edges),
            ("kernels.block_global_sweep", "edge_row", m * BLOCK),
        ):
            self.out[f"{span}_ns_per_{per}"] = (self.median_ms(span) * 1e6 / edges, "ns")

    def start_sharded(self, **options) -> ShardedDispatcher:
        dispatcher = ShardedDispatcher(
            self.graph, workers=2, dynamic=True, alpha=ALPHA, seed=ENGINE_SEED, **options
        )
        dispatcher.stats()  # returns once both workers have attached and answer
        return dispatcher

    def barriers(self, span: str, dispatcher: ShardedDispatcher) -> None:
        """Time ``UPDATES`` single-edge update barriers on a fresh cluster."""
        mirror = DynamicGraph(self.graph)
        for request in range(UPDATES):
            update = sample_edge_update(mirror, self.update_rng)
            mirror.apply_updates([update])
            self.call(span, dispatcher.apply_updates, [update], request=request)

    def ladder(self) -> None:
        graph, sources = self.graph, self.sources
        self.engine = PPREngine(graph, alpha=ALPHA, seed=ENGINE_SEED)
        # The shards are forked before the in-process server starts its thread.
        with self.call("sharded.start", self.start_sharded) as dispatcher, EngineServer(
            graph, alpha=ALPHA, seed=ENGINE_SEED
        ) as server:
            door = AsyncFrontDoor(dispatcher)
            through_server = lambda s: server.query(s, **ASK)
            through_shards = lambda s: dispatcher.query(s, timeout=120, **ASK)
            miss_tiers = [
                ("powerpush.solve", lambda s: power_push(graph, s, alpha=ALPHA, l1_threshold=L1)),
                ("engine.query", lambda s: self.engine.query(s, **ASK)),
                ("server.miss", through_server),
                ("sharded.miss", through_shards),
            ]
            hit_tiers = [
                ("server.hit", through_server),
                ("sharded.hit", through_shards),
                ("frontdoor.hit", lambda s: door.submit(s, **ASK)),
            ]
            #: the latest answer of each tier, and every direct solve
            latest, solved = {}, []

            async def climb(tiers: list, request: int, source: int) -> None:
                # The tier that goes first finds the caches cold, so the
                # order rotates from source to source.
                turn = request % len(tiers)
                for span, tier in tiers[turn:] + tiers[:turn]:
                    start = time.perf_counter()
                    answer = tier(source)
                    if asyncio.iscoroutine(answer):
                        answer = await answer
                    self.tracer.record(span, start, time.perf_counter(), request=request)
                    latest[span] = answer

            async def ladder() -> None:
                for request, source in enumerate(sources):
                    await climb(miss_tiers, request, source)
                    solved.append(latest["powerpush.solve"])
                for request, source in enumerate(sources):
                    await climb(hit_tiers, request, source)

            asyncio.run(ladder())
            self.out["sharded.reply_bytes"] = (
                len(pickle.dumps(latest["sharded.hit"])), "count")
            self.barriers("sharded.update_barrier", dispatcher)
            # Every source again at the new version, all at once, so the
            # stats have seen an invalidation and misses that can coalesce.
            start = time.perf_counter()
            for future in [dispatcher.submit(s, **ASK) for s in sources]:
                future.result(timeout=120)
            self.tracer.record("sharded.post_update_burst", start, time.perf_counter())
            self.out.update(serving_metrics(dispatcher.stats()))
        self.out["sharded.start_s"] = (self.median_ms("sharded.start") / 1e3, "s")
        self.put_ms(
            "powerpush.solve", "engine.query", "server.miss", "server.hit",
            "sharded.miss", "sharded.hit", "frontdoor.hit", "sharded.update_barrier",
        )
        counters = [result.counters for result in solved]
        updates = [c.residue_updates for c in counters]
        mean = statistics.mean
        self.out["powerpush.residue_updates"] = (mean(updates), "count")
        self.out["powerpush.pushes"] = (mean(c.pushes for c in counters), "count")
        self.out["powerpush.epochs"] = (
            mean(c.extras.get("epochs", 0) for c in counters), "count")
        self.out["powerpush.ns_per_residue_update"] = (
            sum(self.tracer.durations_ms("powerpush.solve")) * 1e6 / sum(updates), "ns")

    def solvers(self) -> None:
        graph, sources = self.graph, self.sources
        self.each(
            "powerpush.block8",
            lambda block: power_push_block(graph, block, alpha=ALPHA, l1_threshold=L1),
            self.blocks,
        )
        self.each("engine.batch8", lambda block: self.engine.batch_query(block, **ASK), self.blocks)
        for span in ("powerpush.block8", "engine.batch8"):
            self.out[f"{span}_ms_per_source"] = (self.median_ms(span) / BLOCK, "ms")
        self.out["engine.block_batches"] = (self.engine.block_batches, "count")

        index = self.call(
            "walks.index_build",
            build_speedppr_index, graph, alpha=ALPHA, rng=np.random.default_rng(FIXED_SEED),
        )
        self.out["walks.index_build_s"] = (self.median_ms("walks.index_build") / 1e3, "s")
        self.out["walks.index_bytes"] = (index.size_bytes, "count")
        self.out["walks.index_walks"] = (index.num_walks, "count")
        approx = self.each(
            "speedppr.solve",
            lambda s: speed_ppr(graph, s, alpha=ALPHA, epsilon=EPSILON, walk_index=index),
            sources,
        )
        mean = statistics.mean
        self.out["speedppr.residue_updates"] = (
            mean(r.counters.residue_updates for r in approx), "count")
        self.out["speedppr.random_walks"] = (
            mean(r.counters.random_walks for r in approx), "count")
        n = graph.num_nodes
        walks_w = chernoff_walk_count(
            EPSILON, default_mu(n), p_fail=default_failure_probability(n)
        )
        for request, source in enumerate(sources[:BLOCK]):
            # SpeedPPR's push phase, redone here so the refinement is timed alone.
            pushed = power_push(
                graph, source, alpha=ALPHA, l1_threshold=min(graph.num_edges / walks_w, 1.0)
            )
            state = PushState(graph, source, ALPHA, counters=pushed.counters)
            state.reserve, state.residue = pushed.estimate, pushed.residue
            state.refresh_r_sum()
            refine_to_r_max(state, 1.0 / walks_w)
            self.call(
                "mc_phase.refine",
                monte_carlo_refine,
                graph, source, ALPHA, state.reserve, state.residue, walks_w,
                walk_index=index, on_insufficient="cap", request=request,
            )
        self.put_ms("speedppr.solve", "mc_phase.refine")

    def update_path(self) -> None:
        dynamic = DynamicGraph(self.graph)
        for request in range(UPDATES):
            update = sample_edge_update(dynamic, self.update_rng)
            self.call("dynamic.apply_update", dynamic.apply_updates, [update], request=request)
            self.call("dynamic.snapshot", dynamic.snapshot, request=request)
        dynamic = DynamicGraph(self.graph)
        engine = PPREngine(dynamic, alpha=ALPHA, seed=ENGINE_SEED)
        for request, source in enumerate(self.sources[:UPDATES]):
            update = sample_edge_update(dynamic, self.update_rng)
            self.call("engine.apply_update", engine.apply_updates, [update], request=request)
            self.call("engine.post_update_query", engine.query, source, request=request, **ASK)
        self.put_ms(
            "dynamic.apply_update", "dynamic.snapshot",
            "engine.apply_update", "engine.post_update_query",
        )

    def shm(self) -> None:
        image = self.call("shm.export", SharedGraphImage.export_graph, self.graph)
        try:
            self.call("shm.attach", SharedGraphImage.attach, image.handle).close()
            last = max(image.handle.arrays.values(), key=lambda a: a.offset)
            self.out["shm.segment_bytes"] = (last.offset + last.nbytes, "count")
        finally:
            image.cleanup()
        self.put_ms("shm.export", "shm.attach")

    def durability(self) -> None:
        """Times on this sandbox's disk, not a device's."""
        self.scratch.mkdir(parents=True, exist_ok=True)
        root = Path(tempfile.mkdtemp(prefix="layers-", dir=self.scratch))
        try:
            for span, fsync in (("wal.append_fsync", True), ("wal.append_nofsync", False)):
                with WriteAheadLog(root / span, fsync=fsync) as wal:
                    for version in range(1, WAL_APPENDS + 1):
                        self.call(span, wal.append, version, [("+", version, version + 1)])
                    position = wal.position
            self.out["wal.bytes_per_update"] = (
                _dir_bytes(root / "wal.append_fsync") / WAL_APPENDS, "count")
            store = CheckpointStore(root / "checkpoints", fsync=True)
            self.call("checkpoint.write", store.write, DynamicGraph(self.graph), position)
            self.out["checkpoint.bytes"] = (_dir_bytes(root / "checkpoints"), "count")
            with self.start_sharded(wal_dir=root / "cluster", wal_fsync=True) as dispatcher:
                self.barriers("sharded.update_wal", dispatcher)
        finally:
            shutil.rmtree(root)
        self.put_ms(
            "wal.append_fsync", "wal.append_nofsync", "checkpoint.write", "sharded.update_wal"
        )
