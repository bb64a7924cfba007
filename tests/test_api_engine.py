"""Tests for the stateful query engine (:mod:`repro.api.engine`)."""

import numpy as np
import pytest

from repro.api import (
    ArtefactSpec,
    PPREngine,
    SolverSpec,
    get_solver,
    per_source_rng,
    solver_names,
)
from repro.baselines.fora import fora
from repro.baselines.resacc import resacc
from repro.bepi.blockelim import build_bepi_index
from repro.bepi.solver import bepi_query
from repro.core.fifo_fwdpush import fifo_forward_push
from repro.core.power_iteration import power_iteration
from repro.core.powerpush import power_push
from repro.core.speedppr import speed_ppr
from repro.errors import ParameterError, UnknownMethodError
from repro.graph.build import paper_example_graph
from repro.generators.rmat import rmat_digraph
from repro.graph.dynamic import DynamicGraph, sample_edge_update
from repro.montecarlo.mc import monte_carlo_ppr


@pytest.fixture
def graph():
    return paper_example_graph()


@pytest.fixture
def engine(graph):
    return PPREngine(graph, alpha=0.2, seed=3)


SEED = 17


class TestQueryParity:
    """``engine.query(s, method=m)`` matches the direct function call.

    Stochastic methods get a pinned ``seed`` (engine side) and an
    identically-seeded generator (direct side); index-capable methods
    run index-free so both sides draw the same walk stream.
    """

    def test_powerpush(self, graph, engine):
        mine = engine.query(0, method="powerpush", l1_threshold=1e-8)
        ref = power_push(graph, 0, l1_threshold=1e-8)
        np.testing.assert_array_equal(mine.estimate, ref.estimate)

    def test_powitr(self, graph, engine):
        mine = engine.query(0, method="powitr", l1_threshold=1e-8)
        ref = power_iteration(graph, 0, l1_threshold=1e-8)
        np.testing.assert_array_equal(mine.estimate, ref.estimate)

    def test_fifo_fwdpush(self, graph, engine):
        mine = engine.query(0, method="fwdpush", l1_threshold=1e-8)
        ref = fifo_forward_push(graph, 0, l1_threshold=1e-8)
        np.testing.assert_array_equal(mine.estimate, ref.estimate)

    def test_bepi(self, graph, engine):
        mine = engine.query(0, method="bepi", delta=1e-8)
        index = build_bepi_index(graph, alpha=0.2)
        ref = bepi_query(graph, index, 0, delta=1e-8)
        np.testing.assert_allclose(mine.estimate, ref.estimate, atol=1e-12)

    def test_speedppr(self, graph, engine):
        mine = engine.query(
            0, method="speedppr", use_index=False, seed=SEED
        )
        ref = speed_ppr(graph, 0, rng=per_source_rng(SEED, 0))
        np.testing.assert_array_equal(mine.estimate, ref.estimate)

    def test_fora(self, graph, engine):
        mine = engine.query(0, method="fora", seed=SEED)
        ref = fora(graph, 0, rng=per_source_rng(SEED, 0))
        np.testing.assert_array_equal(mine.estimate, ref.estimate)

    def test_resacc(self, graph, engine):
        mine = engine.query(0, method="resacc", seed=SEED)
        ref = resacc(graph, 0, rng=per_source_rng(SEED, 0))
        np.testing.assert_array_equal(mine.estimate, ref.estimate)

    def test_montecarlo(self, graph, engine):
        mine = engine.query(0, method="montecarlo", num_walks=300, seed=SEED)
        ref = monte_carlo_ppr(
            graph, 0, num_walks=300, rng=per_source_rng(SEED, 0)
        )
        np.testing.assert_array_equal(mine.estimate, ref.estimate)

    def test_every_registered_method_is_queryable(self, graph, engine):
        for name in solver_names():
            spec = get_solver(name)
            params = (
                {"l1_threshold": 1e-6}
                if spec.kind == "exact"
                else {"epsilon": 0.5}
            )
            if spec.tracked:  # a tracked source lives on an evolving graph
                engine = PPREngine(DynamicGraph(graph), alpha=0.2, seed=3)
            result = engine.query(1, method=name, **params)
            assert result.source == 1
            assert result.estimate.shape == (engine.graph.num_nodes,)
            assert result.estimate.sum() == pytest.approx(1.0, abs=1e-5)


class TestIndexCaching:
    def test_second_speedppr_query_reuses_walk_index(self, engine):
        engine.query(0, method="speedppr", epsilon=0.5)
        assert engine.index_builds["walk"] == 1
        engine.query(1, method="speedppr", epsilon=0.2)  # different eps too
        assert engine.index_builds["walk"] == 1
        assert engine.stats.queries == 2

    def test_second_bepi_query_reuses_bepi_index(self, engine):
        engine.query(0, method="bepi")
        engine.query(1, method="bepi")
        assert engine.index_builds["bepi"] == 1

    def test_speedppr_served_from_index_by_default(self, engine):
        result = engine.query(0, method="speedppr", epsilon=0.5)
        assert result.method == "SpeedPPR-Index"
        index_free = engine.query(0, method="speedppr", use_index=False)
        assert index_free.method == "SpeedPPR"
        assert engine.index_builds["walk"] == 1

    def test_index_queries_never_take_the_mc_shortcut(self, engine):
        # paper_example_graph has m >= W for this loose contract; the
        # engine-injected rng must not arm speed_ppr's m >= W shortcut
        # and bypass the cached index
        result = engine.query(
            0, method="speedppr", epsilon=0.5, mu=0.05, p_fail=0.01
        )
        assert result.method == "SpeedPPR-Index"
        replay = engine.query(
            0, method="speedppr", epsilon=0.5, mu=0.05, p_fail=0.01
        )
        np.testing.assert_array_equal(result.estimate, replay.estimate)

    def test_fora_index_cache_serves_larger_eps(self, engine):
        engine.query(0, method="fora+", epsilon=0.1)
        assert engine.index_builds["fora"] == 1
        # an index built for eps=0.1 also serves eps=0.5
        result = engine.query(0, method="fora+", epsilon=0.5)
        assert engine.index_builds["fora"] == 1
        assert result.method == "FORA-Index"

    def test_fora_index_rebuilds_for_tighter_mu(self, engine):
        engine.query(0, method="fora+", epsilon=0.5)
        assert engine.index_builds["fora"] == 1
        # tighter mu needs a larger walk budget: must not be handed the
        # undersized cached index (used to raise IndexMismatchError)
        result = engine.query(0, method="fora+", epsilon=0.5, mu=1e-6)
        assert result.method == "FORA-Index"
        assert engine.index_builds["fora"] == 2
        # ...and the larger index now serves the default contract too
        engine.query(0, method="fora+", epsilon=0.5)
        assert engine.index_builds["fora"] == 2

    def test_walk_index_accessor_counts_builds(self, engine):
        first = engine.walk_index()
        second = engine.walk_index()
        assert first is second
        assert engine.index_builds["walk"] == 1


class TestBatchQuery:
    def test_ordering_matches_sources(self, engine):
        sources = [3, 0, 2, 0]
        results = engine.batch_query(sources, method="powerpush")
        assert [r.source for r in results] == sources

    def test_deterministic_batch_matches_individual_queries(self, engine, graph):
        sources = [0, 2, 4]
        batch = engine.batch_query(
            sources, method="powitr", l1_threshold=1e-8
        )
        for source, result in zip(sources, batch):
            ref = power_iteration(graph, source, l1_threshold=1e-8)
            np.testing.assert_array_equal(result.estimate, ref.estimate)

    def test_montecarlo_batch_is_vectorised_and_ordered(self, engine):
        sources = [4, 1, 0]
        results = engine.batch_query(
            sources, method="montecarlo", num_walks=200, seed=5
        )
        assert [r.source for r in results] == sources
        for result in results:
            assert result.method == "MonteCarlo"
            assert result.counters.random_walks == 200
            assert result.estimate.sum() == pytest.approx(1.0)

    def test_montecarlo_batch_reproducible_with_seed(self, graph):
        a = PPREngine(graph, seed=1).batch_query(
            [0, 1], method="montecarlo", num_walks=100, seed=9
        )
        b = PPREngine(graph, seed=2).batch_query(
            [0, 1], method="montecarlo", num_walks=100, seed=9
        )
        for left, right in zip(a, b):
            np.testing.assert_array_equal(left.estimate, right.estimate)

    def test_seeded_batch_is_a_function_of_seed_and_source(self, engine):
        # Seeded batches derive one stream per source *id* (see
        # per_source_rng), so the same source listed twice gets the
        # same answer and distinct sources get independent streams.
        results = engine.batch_query(
            [0, 0, 1], method="montecarlo", num_walks=400, seed=3
        )
        np.testing.assert_array_equal(
            results[0].estimate, results[1].estimate
        )
        assert not np.array_equal(results[0].estimate, results[2].estimate)

    def test_montecarlo_batch_preserves_total_walk_steps(
        self, engine, monkeypatch
    ):
        import repro.montecarlo.mc as mc_module

        observed = []
        real = mc_module.simulate_walk_stops

        def spy(*args, **kwargs):
            stops, steps = real(*args, **kwargs)
            observed.append(steps)
            return stops, steps

        monkeypatch.setattr(mc_module, "simulate_walk_stops", spy)
        # Unseeded too, each source is its own simulation and is
        # charged exactly its own walk steps.
        results = engine.batch_query(
            [0, 1, 2], method="montecarlo", num_walks=100
        )
        assert [r.counters.walk_steps for r in results] == observed

    def test_batch_shares_one_walk_index(self, engine):
        engine.batch_query([0, 1, 2], method="speedppr", epsilon=0.5)
        assert engine.index_builds["walk"] == 1


class TestSeededBatchOrderIndependence:
    """Seeded ``batch_query`` answers are order-independent.

    The per-source stream derivation (:func:`per_source_rng`) keys on
    the source *id*, so under a fixed seed a source's answer is the
    same whether the batch is permuted, split, shrunk to a singleton,
    or answered sequentially with the documented derived stream.
    """

    def test_montecarlo_permutation_invariant(self, engine):
        sources = [0, 1, 2, 3, 4]
        shuffled = [3, 0, 4, 2, 1]
        a = {
            r.source: r.estimate
            for r in engine.batch_query(
                sources, method="montecarlo", num_walks=300, seed=SEED
            )
        }
        b = {
            r.source: r.estimate
            for r in engine.batch_query(
                shuffled, method="montecarlo", num_walks=300, seed=SEED
            )
        }
        for source in sources:
            np.testing.assert_array_equal(a[source], b[source])

    def test_montecarlo_split_and_singleton_invariant(self, engine):
        whole = engine.batch_query(
            [0, 1, 2], method="montecarlo", num_walks=200, seed=SEED
        )
        parts = engine.batch_query(
            [1, 2], method="montecarlo", num_walks=200, seed=SEED
        )
        single = engine.batch_query(
            [0], method="montecarlo", num_walks=200, seed=SEED
        )
        np.testing.assert_array_equal(whole[1].estimate, parts[0].estimate)
        np.testing.assert_array_equal(whole[2].estimate, parts[1].estimate)
        np.testing.assert_array_equal(whole[0].estimate, single[0].estimate)

    def test_batch_member_matches_documented_sequential_stream(self, graph):
        from repro.api.engine import per_source_rng

        batch = PPREngine(graph, seed=3).batch_query(
            [2, 0, 4], method="montecarlo", num_walks=250, seed=11
        )
        fresh = PPREngine(graph, seed=99)  # engine seed must not matter
        for result in batch:
            ref = fresh.query(
                result.source,
                method="montecarlo",
                num_walks=250,
                rng=per_source_rng(11, result.source),
            )
            np.testing.assert_array_equal(result.estimate, ref.estimate)

    def test_seeded_single_query_equals_seeded_batch_member(self, graph):
        # query(s, seed=S) resolves through the same per-source
        # derivation as a seeded batch: one contract everywhere.
        batch = PPREngine(graph, seed=3).batch_query(
            [1, 4], method="montecarlo", num_walks=250, seed=11
        )
        single = PPREngine(graph, seed=99).query(
            4, method="montecarlo", num_walks=250, seed=11
        )
        np.testing.assert_array_equal(batch[1].estimate, single.estimate)

    def test_index_free_speedppr_permutation_invariant(self, engine):
        kwargs = dict(
            method="speedppr", epsilon=0.4, use_index=False, seed=SEED
        )
        a = {
            r.source: r.estimate
            for r in engine.batch_query([0, 1, 2], **kwargs)
        }
        b = {
            r.source: r.estimate
            for r in engine.batch_query([2, 0, 1], **kwargs)
        }
        for source in a:
            np.testing.assert_array_equal(a[source], b[source])

    def test_per_source_rng_rejects_negative_inputs(self):
        from repro.api.engine import per_source_rng

        with pytest.raises(ParameterError, match="non-negative"):
            per_source_rng(-1, 0)
        with pytest.raises(ParameterError, match="non-negative"):
            per_source_rng(1, -2)


class TestTopK:
    def test_default_is_certified(self, engine):
        answer = engine.top_k(0, 3)
        assert answer.certified
        exact = power_iteration(engine.graph, 0, l1_threshold=1e-12)
        expected = [node for node, _ in exact.top_k(3)]
        assert [node for node, _ in answer.ranking] == expected

    def test_explicit_method_ranks_that_estimate(self, engine):
        answer = engine.top_k(0, 2, method="powitr", l1_threshold=1e-10)
        assert len(answer.ranking) == 2
        assert answer.certified  # tight threshold separates top-2 here

    def test_rejects_bad_k(self, engine):
        with pytest.raises(ParameterError):
            engine.top_k(0, 0)

    def test_default_top_k_honours_engine_dead_end_policy(self):
        from repro.graph.build import from_edges

        graph = from_edges([(0, 1), (1, 2)], num_nodes=3)  # 2 is a dead end
        engine = PPREngine(graph, dead_end_policy="uniform-teleport")
        ranking = [n for n, _ in engine.top_k(0, 3).ranking]
        query_ranking = [
            n for n, _ in engine.query(0, method="powerpush").top_k(3)
        ]
        assert ranking == query_ranking  # same policy as the engine's queries

    def test_approx_methods_are_never_certified(self, engine):
        # the gap > r_sum certificate assumes a pure push
        # underestimate, which Monte-Carlo refinement breaks
        answer = engine.top_k(0, 2, method="speedppr", epsilon=0.5)
        assert not answer.certified
        assert len(answer.ranking) == 2


class TestEngineBehaviour:
    def test_unknown_method_raises(self, engine):
        with pytest.raises(UnknownMethodError):
            engine.query(0, method="quantum-ppr")

    def test_alpha_default_flows_from_engine(self, graph):
        engine = PPREngine(graph, alpha=0.5)
        result = engine.query(0, method="powitr", l1_threshold=1e-8)
        assert result.alpha == 0.5

    def test_stats_aggregate_per_method(self, engine):
        engine.query(0, method="powerpush")
        engine.query(1, method="powerpush")
        engine.query(0, method="montecarlo", num_walks=50)
        stats = engine.stats
        assert stats.queries == 3
        assert stats.by_method["PowerPush"].queries == 2
        assert stats.by_method["MonteCarlo"].counters.random_walks == 50
        assert "PowerPush" in stats.render()

    def test_unseeded_stochastic_queries_differ_but_replay(self, graph):
        first = PPREngine(graph, seed=42)
        second = PPREngine(graph, seed=42)
        a1 = first.query(0, method="montecarlo", num_walks=300)
        a2 = first.query(0, method="montecarlo", num_walks=300)
        b1 = second.query(0, method="montecarlo", num_walks=300)
        # two queries on one engine use different streams...
        assert not np.array_equal(a1.estimate, a2.estimate)
        # ...but the engine as a whole replays deterministically
        np.testing.assert_array_equal(a1.estimate, b1.estimate)

    def test_alpha_override_bypasses_cached_walk_index(self, engine, graph):
        engine.query(0, method="speedppr", epsilon=0.5)  # cache at alpha=0.2
        result = engine.query(
            0, method="speedppr", alpha=0.3, epsilon=0.5, seed=SEED
        )
        # must not be served from the alpha=0.2 index
        assert result.method == "SpeedPPR"
        assert result.alpha == 0.3
        ref = speed_ppr(graph, 0, alpha=0.3, rng=per_source_rng(SEED, 0))
        np.testing.assert_array_equal(result.estimate, ref.estimate)

    def test_alpha_override_bypasses_cached_bepi_index(self, engine, graph):
        engine.query(0, method="bepi")  # cache at alpha=0.2
        result = engine.query(0, method="bepi", alpha=0.5, delta=1e-10)
        assert engine.index_builds["bepi"] == 1  # cache untouched
        ref = power_iteration(graph, 0, alpha=0.5, l1_threshold=1e-12)
        assert np.abs(result.estimate - ref.estimate).sum() < 1e-6

    def test_explicit_use_index_with_alpha_override_builds_ad_hoc(
        self, engine
    ):
        result = engine.query(
            0, method="speedppr", alpha=0.3, epsilon=0.5,
            use_index=True, seed=SEED,
        )
        assert result.method == "SpeedPPR-Index"
        assert result.alpha == 0.3
        assert engine.index_builds["walk"] == 0  # not the engine cache

    def test_batch_query_rejects_unknown_parameters(self, engine):
        with pytest.raises(ParameterError):
            engine.batch_query([0, 1], method="montecarlo", num_walk=100)

    def test_typoed_param_rejected_before_index_build(self, engine):
        with pytest.raises(ParameterError):
            engine.query(0, method="speedppr", epsilom=0.3)
        assert engine.index_builds["walk"] == 0
        with pytest.raises(ParameterError):
            engine.query(0, method="bepi", detla=1e-8)
        assert engine.index_builds["bepi"] == 0

    def test_batch_montecarlo_rejects_zero_mu_like_single_query(self, engine):
        with pytest.raises(ParameterError):
            engine.batch_query([0, 1], method="montecarlo", mu=0.0)

    def test_replace_graph_swaps_snapshot_and_version(self):
        """What a shard does at every hand-over: the next version's
        graph is served — its seeded answers byte-identical to a fresh
        engine's on it — and the walk index of the last one is gone."""
        base = rmat_digraph(8, 1500, rng=np.random.default_rng(5))
        dyn = DynamicGraph(base)
        dyn.apply_updates([sample_edge_update(dyn, np.random.default_rng(3))])
        engine = PPREngine(base, alpha=0.2, seed=7)
        engine.query(2, "speedppr", epsilon=0.5, seed=3)
        assert engine.graph_version == 0
        engine.replace_graph(dyn.snapshot(), 1)
        assert engine.graph_version == 1
        assert engine.index_invalidations["walk"] == 1
        expected = PPREngine(dyn, alpha=0.2, seed=7).query(
            2, "speedppr", epsilon=0.5, seed=3
        )
        served = engine.query(2, "speedppr", epsilon=0.5, seed=3)
        assert served.estimate.tobytes() == expected.estimate.tobytes()
        with pytest.raises(ParameterError, match="node set"):
            engine.replace_graph(paper_example_graph(), 2)
        with pytest.raises(ParameterError, match="apply_updates"):
            PPREngine(dyn).replace_graph(base, 1)

    def test_adopted_prebuilt_index_is_not_rebuilt(self, graph):
        donor = PPREngine(graph, seed=0)
        index = donor.walk_index()
        engine = PPREngine(graph, seed=0, walk_index=index)
        engine.query(0, method="speedppr", epsilon=0.5)
        assert engine.index_builds["walk"] == 0


class TestEngineNamesNoMethod:
    """The engine serves what a spec *declares*, whatever its name: a
    solver registered by the test gets its artefact cached, injected
    and invalidated with no edit under ``src/``."""

    @staticmethod
    def toy_spec(seen, builds):
        def fn(graph, source, *, alpha=0.2, l1_threshold=1e-8,
               walk_index=None, r_max=None, max_iterations=None):
            seen.append(walk_index)
            return power_push(
                graph, source, alpha=alpha, l1_threshold=l1_threshold
            )

        def build(graph, params, *, alpha, rng):
            builds.append(graph.num_edges)
            return ("toy-table", len(builds))

        return SolverSpec(
            name="toy",
            aliases=("toy-solver",),
            kind="exact",
            summary="throwaway",
            params=(
                "alpha", "l1_threshold", "walk_index", "r_max",
                "max_iterations",
            ),
            fn=fn,
            artefact=ArtefactSpec(
                kind="toy",
                param="walk_index",
                build=build,
                key=lambda graph, params: ("n", graph.num_nodes),
            ),
        )

    def test_declared_artefact_is_built_once_injected_and_invalidated(
        self, register_spec, graph
    ):
        seen, builds = [], []
        engine = PPREngine(DynamicGraph(graph), alpha=0.2, seed=3)
        register_spec(self.toy_spec(seen, builds))  # after construction
        engine.query(0, "toy")
        engine.query(1, "toy-solver", l1_threshold=1e-6)
        engine.batch_query([2, 3], "toy")
        # One build across queries and sources, injected under the
        # declared parameter name — its own kind, not a FORA+ index.
        assert builds == [graph.num_edges]
        assert seen == [("toy-table", 1)] * 4
        assert engine.index_builds["toy"] == 1
        assert engine.index_builds["fora"] == engine.index_builds["walk"] == 0
        # A request that overrides alpha is not served from the cache.
        engine.query(0, "toy", alpha=0.5)
        assert seen[-1] is None and len(builds) == 1
        # One rebuild per graph version.
        engine.apply_updates([("+", 0, 4)])
        engine.query(0, "toy")
        engine.query(1, "toy")
        assert builds == [graph.num_edges, graph.num_edges + 1]
        assert seen[-1] == ("toy-table", 2)
        assert engine.index_builds["toy"] == 2
        assert engine.index_invalidations["toy"] == 1

    def test_declared_artefact_rebuilt_after_replace_graph(
        self, register_spec, graph
    ):
        seen, builds = [], []
        register_spec(self.toy_spec(seen, builds))
        engine = PPREngine(graph, alpha=0.2, seed=3)
        engine.query(0, "toy")
        moved = DynamicGraph(graph)
        moved.apply_updates([("+", 0, 4)])
        engine.replace_graph(moved.snapshot(), 1)
        assert engine.index_invalidations["toy"] == 1
        engine.query(0, "toy")
        engine.query(1, "toy")
        assert engine.index_builds["toy"] == 2
        assert seen[-1] == ("toy-table", 2)

    def test_incremental_is_served_and_refused_like_any_method(self, graph):
        from repro.serving import EngineServer, ShardedDispatcher

        with EngineServer(DynamicGraph(graph), alpha=0.2, seed=3) as server:
            served = server.query(1, "Incremental-PPR", timeout=30)
            assert served.result.method == "IncrementalPPR"
            assert server.engine.tracked_sources == (1,)
        # A shard serves an immutable image: the same refusal a static
        # engine gives, forwarded through the process boundary.
        with pytest.raises(ParameterError, match="DynamicGraph"):
            PPREngine(graph).query(1, "incremental")
        with ShardedDispatcher(graph, workers=2, alpha=0.2, seed=3) as shards:
            with pytest.raises(ParameterError, match="DynamicGraph"):
                shards.query(1, "tracked", timeout=30)
