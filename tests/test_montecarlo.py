"""Unit tests for the Monte-Carlo baseline and the Chernoff budget."""

import math

import numpy as np
import pytest

from repro.api.engine import PPREngine
from repro.errors import ParameterError
from repro.graph.build import from_edges
from repro.metrics.errors import max_relative_error
from repro.metrics.ground_truth import exact_ppr_dense
from repro.montecarlo.chernoff import (
    chernoff_walk_count,
    default_failure_probability,
    default_mu,
)
from repro.montecarlo.mc import monte_carlo_ppr

# Dependency floor: Monte-Carlo's live walks, drawn through Generator.random and
# Generator.integers.
pytestmark = pytest.mark.floor


class TestChernoff:
    def test_matches_equation_12(self):
        # W = 2 (2 eps / 3 + 2) ln(1/p) / (eps^2 mu)
        eps, mu, p = 0.3, 0.01, 0.001
        expected = 2 * (2 * eps / 3 + 2) * math.log(1 / p) / (eps**2 * mu)
        assert chernoff_walk_count(eps, mu, p_fail=p) == math.ceil(expected)

    def test_monotone_in_epsilon(self):
        counts = [
            chernoff_walk_count(e, 0.01, p_fail=0.01)
            for e in (0.5, 0.3, 0.1)
        ]
        assert counts[0] < counts[1] < counts[2]

    def test_monotone_in_mu(self):
        loose = chernoff_walk_count(0.5, 0.1, p_fail=0.01)
        tight = chernoff_walk_count(0.5, 0.001, p_fail=0.01)
        assert tight > loose

    def test_defaults(self):
        assert default_mu(100) == pytest.approx(0.01)
        assert default_failure_probability(100) == pytest.approx(0.01)

    @pytest.mark.parametrize("bad_eps", [0.0, -1.0])
    def test_rejects_bad_epsilon(self, bad_eps):
        with pytest.raises(ParameterError):
            chernoff_walk_count(bad_eps, 0.1, p_fail=0.1)

    @pytest.mark.parametrize("bad_mu", [0.0, 1.5])
    def test_rejects_bad_mu(self, bad_mu):
        with pytest.raises(ParameterError):
            chernoff_walk_count(0.5, bad_mu, p_fail=0.1)

    @pytest.mark.parametrize("bad_p", [0.0, 1.0])
    def test_rejects_bad_p_fail(self, bad_p):
        with pytest.raises(ParameterError):
            chernoff_walk_count(0.5, 0.1, p_fail=bad_p)


class TestMonteCarlo:
    def test_estimate_is_distribution(self, paper_graph, rng):
        result = monte_carlo_ppr(
            paper_graph, 0, num_walks=5000, rng=rng
        )
        assert result.estimate.sum() == pytest.approx(1.0)
        assert np.all(result.estimate >= 0)

    def test_meets_relative_error_contract(self, paper_graph, rng):
        # Full Chernoff budget at eps = 0.5, mu = 1/5.
        truth = exact_ppr_dense(paper_graph, 0)
        result = monte_carlo_ppr(paper_graph, 0, epsilon=0.5, rng=rng)
        assert (
            max_relative_error(result.estimate, truth, mu=1.0 / 5)
            <= 0.5
        )

    def test_unbiasedness(self, paper_graph):
        # Mean over many independent runs converges to the truth.
        truth = exact_ppr_dense(paper_graph, 0)
        total = np.zeros(5)
        runs = 40
        for seed in range(runs):
            result = monte_carlo_ppr(
                paper_graph,
                0,
                num_walks=500,
                rng=np.random.default_rng(seed),
            )
            total += result.estimate
        np.testing.assert_allclose(total / runs, truth, atol=0.015)

    def test_counter_reports_walks(self, paper_graph, rng):
        result = monte_carlo_ppr(
            paper_graph, 0, num_walks=123, rng=rng
        )
        assert result.counters.random_walks == 123
        assert result.counters.walk_steps > 0

    def test_no_residue(self, paper_graph, rng):
        result = monte_carlo_ppr(paper_graph, 0, num_walks=10, rng=rng)
        assert result.residue is None
        assert math.isnan(result.r_sum)

    def test_rejects_bad_num_walks(self, paper_graph, rng):
        with pytest.raises(ParameterError):
            monte_carlo_ppr(paper_graph, 0, num_walks=0, rng=rng)

    def test_rejects_fractional_num_walks(self, paper_graph, rng):
        with pytest.raises(ParameterError, match="num_walks"):
            monte_carlo_ppr(paper_graph, 0, num_walks=10.5, rng=rng)

    def test_rejects_bool_num_walks(self, paper_graph, rng):
        with pytest.raises(ParameterError, match="num_walks"):
            monte_carlo_ppr(paper_graph, 0, num_walks=True, rng=rng)

    def test_takes_numpy_integer_num_walks(self, paper_graph):
        a = monte_carlo_ppr(
            paper_graph, 0, num_walks=np.int64(50), rng=np.random.default_rng(3)
        )
        b = monte_carlo_ppr(
            paper_graph, 0, num_walks=50, rng=np.random.default_rng(3)
        )
        assert a.estimate.tobytes() == b.estimate.tobytes()

    def test_method_name(self, paper_graph, rng):
        result = monte_carlo_ppr(paper_graph, 0, num_walks=10, rng=rng)
        assert result.method == "MonteCarlo"


@pytest.fixture(scope="module")
def teleport_graph(medium_graph):
    """``medium_graph`` with the out-edges of every id = 0 mod 10 removed."""
    edges = [
        (u, int(v))
        for u in range(medium_graph.num_nodes)
        if u % 10
        for v in medium_graph.out_neighbors(u)
    ]
    return from_edges(edges, num_nodes=medium_graph.num_nodes)


class TestUniformTeleportWalks:
    """Walks jump where ``uniform-teleport`` spreads dead-end mass."""

    @pytest.mark.parametrize("method", ["montecarlo", "resacc", "fora"])
    def test_walk_methods_meet_the_contract(self, teleport_graph, method):
        engine = PPREngine(
            teleport_graph, dead_end_policy="uniform-teleport", seed=3
        )
        mu = 1.0 / teleport_graph.num_nodes
        for source in (0, 5, 8, 10):
            truth = exact_ppr_dense(
                teleport_graph, source, dead_end_policy="uniform-teleport"
            )
            result = engine.query(source, method, epsilon=0.1)
            assert max_relative_error(result.estimate, truth, mu=mu) <= 0.1

    def test_monte_carlo_takes_the_policy(self, teleport_graph):
        truth = exact_ppr_dense(
            teleport_graph, 5, dead_end_policy="uniform-teleport"
        )
        result = monte_carlo_ppr(
            teleport_graph,
            5,
            epsilon=0.1,
            dead_end_policy="uniform-teleport",
            rng=np.random.default_rng(3),
        )
        mu = 1.0 / teleport_graph.num_nodes
        assert max_relative_error(result.estimate, truth, mu=mu) <= 0.1

    def test_fora_on_an_edgeless_graph(self):
        # Every walk teleports uniformly: pi = 0.2 e_s + 0.16 everywhere.
        engine = PPREngine(
            from_edges([], num_nodes=5),
            dead_end_policy="uniform-teleport",
            seed=3,
        )
        result = engine.query(1, "fora")
        truth = np.array([0.16, 0.36, 0.16, 0.16, 0.16])
        assert max_relative_error(result.estimate, truth, mu=0.2) <= 0.5
