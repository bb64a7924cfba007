"""Unit tests for graph statistics and structural transforms."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.graph.build import complete_graph, from_edges, star_graph
from repro.graph.stats import compute_stats, format_si, power_law_exponent_mle
from repro.graph.transforms import (
    apply_dead_end_rule,
    reorder_for_locality,
    symmetrize,
)


class TestStats:
    def test_basic_fields(self, paper_graph):
        stats = compute_stats(paper_graph)
        assert stats.num_nodes == 5
        assert stats.num_edges == 13
        assert stats.graph_type == "directed"
        assert stats.max_out_degree == 4
        assert stats.max_in_degree == 4
        assert stats.dead_ends == 0

    def test_table1_row_formatting(self, paper_graph):
        row = compute_stats(paper_graph).table1_row()
        assert row[0] == "paper-example"
        assert row[1] == "5"
        assert row[4] == "directed"

    def test_undirected_flag_propagates(self):
        graph = symmetrize(from_edges([(0, 1)]))
        assert compute_stats(graph).graph_type == "undirected"

    def test_gini_zero_for_regular_graph(self):
        stats = compute_stats(complete_graph(6))
        assert stats.degree_gini == pytest.approx(0.0, abs=1e-12)

    def test_gini_positive_for_star(self):
        stats = compute_stats(star_graph(10))
        assert stats.degree_gini > 0.3


class TestPowerLawMLE:
    def test_nan_on_tiny_samples(self):
        assert np.isnan(power_law_exponent_mle(np.array([2, 3, 4])))

    def test_recovers_exponent_roughly(self, rng):
        # Sample from a Pareto(alpha=2.5) and check the MLE is close.
        u = rng.random(20000)
        degrees = np.floor((1.0 - u) ** (-1.0 / 1.5) * 2).astype(int)
        alpha = power_law_exponent_mle(degrees, d_min=2)
        assert 2.2 < alpha < 2.8

    def test_format_si(self):
        assert format_si(317_000) == "317K"
        assert format_si(2_100_000) == "2.10M"
        assert format_si(1_470_000_000) == "1.47B"
        assert format_si(999) == "999"


class TestSymmetrize:
    def test_adds_reverse_edges(self):
        graph = symmetrize(from_edges([(0, 1), (1, 2)]))
        for u, v in [(0, 1), (1, 0), (1, 2), (2, 1)]:
            assert graph.has_edge(u, v)

    def test_idempotent_on_edge_set(self):
        once = symmetrize(from_edges([(0, 1), (2, 1)]))
        twice = symmetrize(once)
        assert once.num_edges == twice.num_edges


class TestDeadEndRules:
    def test_redirect_is_noop(self, dead_end_graph):
        assert (
            apply_dead_end_rule(dead_end_graph, "redirect-to-source")
            is dead_end_graph
        )

    def test_self_loop_fixes_dead_ends(self, dead_end_graph):
        fixed = apply_dead_end_rule(dead_end_graph, "self-loop")
        assert not fixed.has_dead_ends
        for leaf in (1, 2, 3, 4):
            assert fixed.has_edge(leaf, leaf)

    def test_uniform_teleport_fixes_dead_ends(self, dead_end_graph):
        fixed = apply_dead_end_rule(dead_end_graph, "uniform-teleport")
        assert not fixed.has_dead_ends
        # Each former dead end now points at every node except itself
        # (self-loops are kept here), i.e. out-degree n or n-1.
        assert int(fixed.out_degree[1]) >= dead_end_graph.num_nodes - 1

    def test_noop_when_no_dead_ends(self, paper_graph):
        assert apply_dead_end_rule(paper_graph, "self-loop") is paper_graph

    def test_unknown_rule_rejected(self, dead_end_graph):
        with pytest.raises(ParameterError):
            apply_dead_end_rule(dead_end_graph, "nonsense")  # type: ignore[arg-type]


class TestReorderForLocality:
    def _graph(self, seed: int = 3):
        from repro.generators.rmat import rmat_digraph

        return rmat_digraph(
            7, 800, rng=np.random.default_rng(seed), name="reorder-t"
        )

    @pytest.mark.parametrize("strategy", ["degree", "slashburn"])
    def test_produces_isomorphic_relabelling(self, strategy):
        graph = self._graph()
        result = reorder_for_locality(graph, strategy=strategy)
        assert result.strategy == strategy
        n = graph.num_nodes
        # order/inverse are mutually inverse permutations of 0..n-1
        np.testing.assert_array_equal(np.sort(result.order), np.arange(n))
        np.testing.assert_array_equal(
            result.order[result.inverse], np.arange(n)
        )
        assert result.graph.num_nodes == n
        assert result.graph.num_edges == graph.num_edges
        # Degrees travel with the node through the relabelling.
        np.testing.assert_array_equal(
            result.graph.out_degree[result.inverse], graph.out_degree
        )
        # Spot-check edge preservation on real edges.
        sources, targets = graph.edge_array()
        for position in range(0, sources.shape[0], 97):
            u, v = int(sources[position]), int(targets[position])
            assert result.graph.has_edge(
                result.to_internal(u), result.to_internal(v)
            )

    def test_degree_strategy_puts_hubs_first(self):
        graph = self._graph()
        result = reorder_for_locality(graph, strategy="degree")
        total = graph.out_degree + graph.in_degree
        reordered_totals = total[result.order]
        assert np.all(np.diff(reordered_totals) <= 0)  # descending

    def test_restore_vector_round_trips(self):
        graph = self._graph()
        result = reorder_for_locality(graph, strategy="degree")
        external = np.arange(graph.num_nodes, dtype=np.float64) * 1.5
        internal = external[result.order]  # internal[new] = ext[order[new]]
        np.testing.assert_array_equal(
            result.restore_vector(internal), external
        )
        # Also along the last axis of a block.
        block = np.stack([internal, internal * 2.0])
        np.testing.assert_array_equal(
            result.restore_vector(block)[1], external * 2.0
        )

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ParameterError):
            reorder_for_locality(self._graph(), strategy="random")  # type: ignore[arg-type]

    def test_preserves_self_loops_and_multiplicity(self):
        graph = from_edges(
            [(0, 1), (0, 1), (1, 1), (1, 0), (2, 0)],
            dedup=False,
            drop_self_loops=False,
        )
        result = reorder_for_locality(graph, strategy="degree")
        assert result.graph.num_edges == graph.num_edges
        loop = result.to_internal(1)
        assert result.graph.has_edge(loop, loop)


class TestEngineReorder:
    """PPREngine(reorder=...) serves original ids over a reordered CSR."""

    def _engines(self, strategy):
        from repro.api import PPREngine
        from repro.generators.rmat import rmat_digraph

        graph = rmat_digraph(7, 900, rng=np.random.default_rng(11))
        return graph, PPREngine(graph, seed=5), PPREngine(
            graph, seed=5, reorder=strategy
        )

    @staticmethod
    def _invariant_gap(graph, result, alpha=0.2):
        """``||estimate + (what the residues still owe) - pi_s||_1`` in
        the ids of ``graph`` (dead ends redirect to the source)."""
        from repro.metrics.ground_truth import exact_ppr_dense

        n = graph.num_nodes
        transition = np.zeros((n, n))
        for v in range(n):
            neighbors = graph.out_neighbors(v)
            if neighbors.shape[0]:
                np.add.at(transition[v], neighbors, 1.0 / neighbors.shape[0])
            else:
                transition[v, result.source] = 1.0
        owed = np.linalg.solve(
            np.eye(n) - (1.0 - alpha) * transition.T, alpha * result.residue
        )
        exact = exact_ppr_dense(graph, result.source, alpha=alpha)
        return float(np.abs(result.estimate + owed - exact).sum())

    @pytest.mark.parametrize("strategy", ["degree", "slashburn"])
    def test_query_matches_plain_engine(self, strategy):
        # PowItr's sweeps are synchronous, so a relabelling only
        # re-associates its sums.
        _, plain, reordered = self._engines(strategy)
        for source in (0, 17, 63):
            a = plain.query(source, "powitr", l1_threshold=1e-8)
            b = reordered.query(source, "powitr", l1_threshold=1e-8)
            assert b.source == source
            assert np.abs(a.estimate - b.estimate).sum() < 1e-12
            assert np.abs(a.residue - b.residue).sum() < 1e-12

    @pytest.mark.parametrize("strategy", ["degree", "slashburn"])
    def test_powerpush_query_maps_back_to_original_ids(self, strategy):
        # PowerPush's asynchronous sweep pushes in node-id order, so the
        # reordered engine must equal a solve on the relabelled graph
        # (mapped back), and only sits within 2*lambda of the plain one.
        from repro.api import PPREngine

        graph, plain, reordered = self._engines(strategy)
        relabel = reordered.reordering
        inner = PPREngine(relabel.graph, seed=5)
        for source in (0, 17, 63):
            a = plain.query(source, "powerpush", l1_threshold=1e-8)
            b = reordered.query(source, "powerpush", l1_threshold=1e-8)
            c = inner.query(
                relabel.to_internal(source), "powerpush", l1_threshold=1e-8
            )
            assert b.source == source
            np.testing.assert_array_equal(
                b.estimate, relabel.restore_vector(c.estimate)
            )
            np.testing.assert_array_equal(
                b.residue, relabel.restore_vector(c.residue)
            )
            assert self._invariant_gap(graph, b) < 1e-12
            assert b.r_sum <= 1e-8
            gap = np.abs(a.estimate - b.estimate).sum()
            assert gap <= a.r_sum + b.r_sum + 1e-12

    def test_block_batch_matches_plain_engine(self):
        graph, plain, reordered = self._engines("degree")
        a = plain.batch_query([2, 9, 33, 41], "powerpush")
        b = reordered.batch_query([2, 9, 33, 41], "powerpush")
        for x, y in zip(a, b):
            assert x.source == y.source
            # Batch members are the single-source answers, already in
            # original ids; against the plain engine only 2*lambda holds.
            single = reordered.query(y.source, "powerpush")
            np.testing.assert_array_equal(y.estimate, single.estimate)
            np.testing.assert_array_equal(y.residue, single.residue)
            assert self._invariant_gap(graph, y) < 1e-12
            gap = np.abs(x.estimate - y.estimate).sum()
            assert gap <= x.r_sum + y.r_sum + 1e-12

    def test_top_k_reports_original_ids(self):
        _, plain, reordered = self._engines("degree")
        a = plain.top_k(3, 5)
        b = reordered.top_k(3, 5)
        assert [node for node, _ in a.ranking] == [
            node for node, _ in b.ranking
        ]
        assert a.certified == b.certified

    def test_seeded_montecarlo_batch_mass_conserved(self):
        _, _, reordered = self._engines("degree")
        results = reordered.batch_query(
            [1, 2, 3], "montecarlo", seed=7, num_walks=300
        )
        for result, source in zip(results, (1, 2, 3)):
            assert result.source == source
            assert abs(result.estimate.sum() - 1.0) < 1e-9

    def test_dynamic_graph_rejected(self):
        from repro.api import PPREngine
        from repro.graph.dynamic import DynamicGraph

        dynamic = DynamicGraph(star_graph(4))
        with pytest.raises(ParameterError, match="reorder"):
            PPREngine(dynamic, reorder="degree")

    def test_reordering_property_exposed(self):
        graph, _, reordered = self._engines("degree")
        assert reordered.reordering is not None
        assert reordered.reordering.strategy == "degree"
        assert reordered.graph.num_edges == graph.num_edges
