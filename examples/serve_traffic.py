"""Serve concurrent PPR traffic: cache, flights, and live updates.

Walkthrough of :class:`repro.serving.EngineServer` — the thread tier
the README "Serving" section describes; the sharded tier answers
through the same cache + single-flight module:

1. a burst of concurrent queries: a duplicate of a source being solved
   joins that solve (a flight) instead of solving it again,
2. repeated sources answer from the versioned result cache,
3. an edge update invalidates the cache exactly at the version bump,
4. a small Zipfian loadtest compares served vs serial throughput,
5. with ``--workers N``: the same traffic through a
   :class:`repro.serving.ShardedDispatcher` — N worker processes over
   one shared-memory graph image, byte-identical answers included.

Run with ``PYTHONPATH=src python examples/serve_traffic.py``
(add ``--workers 2`` for the sharded tier).
"""

import argparse

import numpy as np

from repro import (
    DynamicGraph,
    EngineServer,
    PPREngine,
    ShardedDispatcher,
    WorkloadGenerator,
    rmat_digraph,
    run_loadtest,
    sample_edge_update,
)

SEED = 7


def sharded_tour(graph: DynamicGraph, workers: int) -> None:
    """Section 5: the process-parallel tier over a shared graph image.

    The dispatcher exports the graph's CSR arrays into one
    shared-memory segment, forks ``workers`` processes that each map
    it zero-copy, and routes every miss by consistent hashing on the
    source id.  The cluster's one result cache is the dispatcher's: a
    repeat of a solved source is answered there and reaches no shard.
    Updates broadcast to every shard as a versioned barrier (and drop
    the cached answers of the old version).  None of this machinery may change
    an answer: ``per_source_rng(seed, source)`` makes each result a
    pure function of ``(seed, source)``, so we check byte-identity
    against a single-process engine below.
    """
    print(f"\n-- sharded serving: {workers} worker processes --")
    reference = PPREngine(graph.snapshot(), alpha=0.2, seed=SEED)
    with ShardedDispatcher(
        graph, workers=workers, alpha=0.2, seed=SEED
    ) as dispatcher:
        hot = [0, 1, 2, 0, 1, 0, 3, 0]
        for source in sorted(set(hot)):
            served = dispatcher.query(source, "powerpush", l1_threshold=1e-7)
            expected = reference.query(source, "powerpush", l1_threshold=1e-7)
            identical = (
                served.result.estimate.tobytes()
                == expected.estimate.tobytes()
            )
            print(
                f"source {source} -> shard {served.worker} "
                f"(route {dispatcher.route(source)}), "
                f"byte-identical to single-process: {identical}"
            )
        repeat = dispatcher.query(0, "powerpush", l1_threshold=1e-7)
        print(
            f"repeat of source 0: cache_hit={repeat.cache_hit}, "
            f"shard {repeat.worker} (answered by the dispatcher)"
        )
        update = sample_edge_update(graph, np.random.default_rng(SEED + 2))
        version = dispatcher.apply_updates([update])
        print(f"update barrier: every shard now at version {version}")
        stats = dispatcher.stats()
        per_worker = ", ".join(
            f"w{wid}={w['engine_queries']}"
            for wid, w in sorted(stats["per_worker"].items())
        )
        print(
            f"hit rate {stats['cache']['hit_rate']:.0%} "
            f"(solves per shard: {per_worker})"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="also tour the multi-process sharded dispatcher",
    )
    # parse_known_args, not parse_args: the example suite re-runs this
    # file under runpy with the test runner's argv still in place.
    args, _ = parser.parse_known_args()
    graph = DynamicGraph(
        rmat_digraph(10, 8_000, rng=np.random.default_rng(SEED), name="traffic")
    )
    print(f"serving {graph!r}")

    with EngineServer(graph, alpha=0.2, seed=SEED) as server:
        # -- 1. a concurrent burst: futures in, one solve per source --
        hot = [0, 1, 2, 0, 1, 0, 3, 0]  # skewed, like real traffic
        futures = [
            server.submit(s, "powerpush", l1_threshold=1e-7) for s in hot
        ]
        for future in futures:
            future.result()
        print(
            f"burst of {len(hot)} requests over {len(set(hot))} sources "
            f"answered with {server.engine.stats.queries} solves"
        )

        # -- 2. the cache serves the repeats ---------------------------
        again = server.query(0, "powerpush", l1_threshold=1e-7)
        print(
            f"repeat query: cache_hit={again.cache_hit} "
            f"(version {again.version})"
        )

        # -- 3. an update invalidates exactly at the version bump ------
        update = sample_edge_update(graph, np.random.default_rng(SEED + 1))
        version = server.apply_updates([update])
        fresh = server.query(0, "powerpush", l1_threshold=1e-7)
        print(
            f"after update -> version {version}: cache_hit="
            f"{fresh.cache_hit} (recomputed at version {fresh.version})"
        )
        stats = server.stats()
        print(
            f"server counters: {stats['requests']} requests, "
            f"cache invalidations {stats['cache']['invalidations']}, "
            f"flights led {stats['flights']['led']}, "
            f"joined {stats['flights']['joined']}"
        )

    # -- 4. a measured Zipfian loadtest against the serial baseline ----
    def make_graph():
        return rmat_digraph(
            9, 4_000, rng=np.random.default_rng(SEED), name="loadtest"
        )

    workload = WorkloadGenerator(
        make_graph().num_nodes,
        num_sources=24,
        zipf_exponent=1.2,
        seed=SEED,
    ).generate(150)
    report = run_loadtest(
        make_graph,
        workload,
        method="powerpush",
        params={"l1_threshold": 1e-7},
        concurrency=4,
        seed=SEED,
    )
    print()
    print(report.render())

    # -- 5. optionally, the process-parallel tier ----------------------
    if args.workers:
        sharded_tour(graph, args.workers)


if __name__ == "__main__":
    main()
