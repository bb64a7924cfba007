"""Unit and contract tests for the FORA, FORA+ and ResAcc baselines."""

import math

import numpy as np
import pytest

from repro.baselines.fora import fora, fora_r_max
from repro.baselines.resacc import resacc
from repro.errors import IndexMismatchError, ParameterError
from repro.metrics.errors import l1_error, max_relative_error
from repro.metrics.ground_truth import ground_truth_ppr
from repro.montecarlo.chernoff import chernoff_walk_count
from repro.walks.index import build_walk_index, fora_plus_walk_counts

# Dependency floor: FORA's live walks, drawn through Generator.random and
# Generator.integers.
pytestmark = pytest.mark.floor


class TestForaRMax:
    def test_balancing_value(self, paper_graph):
        w = 400.0
        assert fora_r_max(paper_graph, w) == pytest.approx(
            1.0 / math.sqrt(13 * 400)
        )


class TestForaContract:
    def test_relative_error_contract(self, medium_graph, rng):
        truth = np.asarray(
            ground_truth_ppr(medium_graph, 0, l1_threshold=1e-13)
        )
        mu = 1.0 / medium_graph.num_nodes
        result = fora(
            medium_graph,
            0,
            epsilon=0.5,
            rng=rng,
            allow_monte_carlo_shortcut=False,
        )
        assert max_relative_error(result.estimate, truth, mu=mu) <= 0.5

    def test_estimate_near_distribution(self, medium_graph, rng):
        result = fora(
            medium_graph,
            1,
            epsilon=0.3,
            rng=rng,
            allow_monte_carlo_shortcut=False,
        )
        assert result.estimate.sum() == pytest.approx(1.0, abs=0.05)

    def test_mc_shortcut(self, paper_graph, rng):
        result = fora(paper_graph, 0, epsilon=3.0, mu=0.9, rng=rng)
        assert result.method == "FORA[mc-shortcut]"

    def test_rejects_bad_epsilon(self, paper_graph, rng):
        with pytest.raises(ParameterError):
            fora(paper_graph, 0, epsilon=-0.1, rng=rng)

    def test_method_name(self, medium_graph, rng):
        result = fora(
            medium_graph,
            0,
            epsilon=0.5,
            rng=rng,
            allow_monte_carlo_shortcut=False,
        )
        assert result.method == "FORA"


class TestForaPlus:
    def _index(self, graph, epsilon, rng):
        n = graph.num_nodes
        w = chernoff_walk_count(epsilon, 1.0 / n, p_fail=1.0 / n)
        return build_walk_index(
            graph,
            fora_plus_walk_counts(graph, w),
            rng=rng,
            policy="fora+",
        )

    def test_index_built_for_small_eps_serves_larger(
        self, medium_graph, rng
    ):
        index = self._index(medium_graph, 0.1, rng)
        for epsilon in (0.5, 0.3, 0.1):
            result = fora(
                medium_graph,
                2,
                epsilon=epsilon,
                walk_index=index,
                allow_monte_carlo_shortcut=False,
            )
            assert result.method == "FORA-Index"

    def test_index_built_for_large_eps_fails_smaller(
        self, medium_graph, rng
    ):
        # The eps-dependence weakness Section 6.2 criticises: an index
        # built for eps = 0.5 cannot answer eps = 0.1.
        index = self._index(medium_graph, 0.5, rng)
        with pytest.raises(IndexMismatchError):
            fora(
                medium_graph,
                2,
                epsilon=0.1,
                walk_index=index,
                allow_monte_carlo_shortcut=False,
            )

    def test_index_bigger_than_speedppr_index(self, medium_graph, rng):
        from repro.walks.index import speedppr_walk_counts

        n = medium_graph.num_nodes
        w = chernoff_walk_count(0.1, 1.0 / n, p_fail=1.0 / n)
        fora_counts = fora_plus_walk_counts(medium_graph, w)
        speed_counts = speedppr_walk_counts(medium_graph)
        assert fora_counts.sum() > speed_counts.sum()


class TestResAcc:
    def test_relative_error_contract(self, medium_graph, rng):
        truth = np.asarray(
            ground_truth_ppr(medium_graph, 0, l1_threshold=1e-13)
        )
        mu = 1.0 / medium_graph.num_nodes
        result = resacc(medium_graph, 0, epsilon=0.5, rng=rng)
        assert max_relative_error(result.estimate, truth, mu=mu) <= 0.5

    def test_estimate_close_to_fora(self, medium_graph, rng):
        truth = np.asarray(
            ground_truth_ppr(medium_graph, 7, l1_threshold=1e-13)
        )
        res = resacc(medium_graph, 7, epsilon=0.3, rng=rng)
        assert l1_error(res.estimate, truth) < 0.1

    def test_source_residue_accumulated_not_pushed(self, medium_graph, rng):
        result = resacc(medium_graph, 7, epsilon=0.5, rng=rng)
        assert result.residue is not None
        # The returned residue vector excludes the source's mass.
        assert result.residue[7] == 0.0
        assert result.counters.extras.get("resacc_sweeps", 0) > 0

    def test_estimate_near_distribution(self, medium_graph, rng):
        result = resacc(medium_graph, 3, epsilon=0.3, rng=rng)
        assert result.estimate.sum() == pytest.approx(1.0, abs=0.05)

    def test_unbiasedness(self, paper_graph):
        from repro.metrics.ground_truth import exact_ppr_dense

        truth = exact_ppr_dense(paper_graph, 0)
        total = np.zeros(5)
        runs = 30
        for seed in range(runs):
            result = resacc(
                paper_graph,
                0,
                epsilon=0.4,
                rng=np.random.default_rng(seed),
            )
            total += result.estimate
        np.testing.assert_allclose(total / runs, truth, atol=0.02)

    def test_method_name(self, medium_graph, rng):
        assert (
            resacc(medium_graph, 0, epsilon=0.5, rng=rng).method
            == "ResAcc"
        )
