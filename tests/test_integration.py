"""Cross-algorithm integration tests.

Every high-precision algorithm must agree with the dense linear solve;
every approximate algorithm must meet its contract on seeded runs; and
the composite pipelines (SpeedPPR = PowerPush + refinement + MC) must
be consistent with their pieces.
"""

import numpy as np
import pytest

from repro.baselines.fora import fora
from repro.baselines.resacc import resacc
from repro.bepi.blockelim import build_bepi_index
from repro.bepi.solver import bepi_query
from repro.core.fifo_fwdpush import fifo_forward_push
from repro.core.fwdpush import forward_push
from repro.core.power_iteration import power_iteration
from repro.core.powerpush import power_push
from repro.core.sim_fwdpush import simultaneous_forward_push
from repro.core.speedppr import speed_ppr
from repro.metrics.errors import l1_error, max_relative_error
from repro.metrics.ground_truth import exact_ppr_dense, ground_truth_ppr
from repro.montecarlo.mc import monte_carlo_ppr
from test_core_powerpush import reference_power_push


LAMBDA = 1e-9


def _hp_answers(graph, source):
    """All high-precision algorithms at the same lambda."""
    answers = {
        "PowItr": power_iteration(graph, source, l1_threshold=LAMBDA),
        "SimFwdPush": simultaneous_forward_push(
            graph, source, l1_threshold=LAMBDA
        ),
        "PowerPush": power_push(graph, source, l1_threshold=LAMBDA),
        "PowerPush-faithful": reference_power_push(
            graph, source, l1_threshold=LAMBDA
        ),
        "FIFO-frontier": fifo_forward_push(
            graph, source, l1_threshold=LAMBDA
        ),
        "FIFO-faithful": forward_push(
            graph, source, r_max=LAMBDA / graph.num_edges, scheduler="fifo"
        ),
    }
    return answers


class TestHighPrecisionAgreement:
    @pytest.mark.parametrize("source", [0, 3])
    def test_all_algorithms_agree_on_paper_graph(self, paper_graph, source):
        truth = exact_ppr_dense(paper_graph, source)
        for name, result in _hp_answers(paper_graph, source).items():
            assert l1_error(result.estimate, truth) <= 2 * LAMBDA, name

    def test_all_algorithms_agree_on_random_graphs(self, small_random_graphs):
        for graph in small_random_graphs:
            truth = exact_ppr_dense(graph, 1)
            for name, result in _hp_answers(graph, 1).items():
                assert l1_error(result.estimate, truth) <= 2 * LAMBDA, (
                    graph.name,
                    name,
                )

    def test_lifo_scheduler_agrees_at_milder_threshold(
        self, small_random_graphs
    ):
        # LIFO has only the O(1/r_max) bound (the pre-Theorem-4.3 state
        # of the art), so it runs at a milder threshold here; FIFO at
        # lambda = 1e-9 is covered above.
        lam = 1e-4
        for graph in small_random_graphs:
            truth = exact_ppr_dense(graph, 1)
            result = forward_push(
                graph, 1, r_max=lam / graph.num_edges, scheduler="lifo"
            )
            assert l1_error(result.estimate, truth) <= lam, graph.name

    def test_bepi_agrees_on_random_graphs(self, small_random_graphs):
        for graph in small_random_graphs:
            truth = exact_ppr_dense(graph, 1)
            index = build_bepi_index(graph)
            result = bepi_query(graph, index, 1, delta=1e-12)
            assert l1_error(result.estimate, truth) <= 1e-7, graph.name


class TestApproximateContracts:
    """Every approximate algorithm meets the eps contract with margin.

    One seeded run each; the Chernoff budget makes failure probability
    ~1/n, so a deterministic seed that passes stays passing.
    """

    EPSILON = 0.5

    def test_contracts_on_medium_graph(self, medium_graph):
        truth = np.asarray(
            ground_truth_ppr(medium_graph, 0, l1_threshold=1e-13)
        )
        mu = 1.0 / medium_graph.num_nodes
        algorithms = {
            "MonteCarlo": lambda rng: monte_carlo_ppr(
                medium_graph, 0, epsilon=self.EPSILON, rng=rng
            ),
            "FORA": lambda rng: fora(
                medium_graph,
                0,
                epsilon=self.EPSILON,
                rng=rng,
                allow_monte_carlo_shortcut=False,
            ),
            "ResAcc": lambda rng: resacc(
                medium_graph, 0, epsilon=self.EPSILON, rng=rng
            ),
            "SpeedPPR": lambda rng: speed_ppr(
                medium_graph,
                0,
                epsilon=self.EPSILON,
                rng=rng,
                allow_monte_carlo_shortcut=False,
            ),
        }
        for name, runner in algorithms.items():
            result = runner(np.random.default_rng(42))
            error = max_relative_error(result.estimate, truth, mu=mu)
            assert error <= self.EPSILON, (name, error)

    def test_speedppr_beats_fora_accuracy_at_small_eps(self, medium_graph):
        # Figure 8's headline shape, averaged over a few seeds.
        truth = np.asarray(
            ground_truth_ppr(medium_graph, 5, l1_threshold=1e-13)
        )
        speed_err = 0.0
        fora_err = 0.0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            speed_err += l1_error(
                speed_ppr(
                    medium_graph,
                    5,
                    epsilon=0.1,
                    rng=rng,
                    allow_monte_carlo_shortcut=False,
                ).estimate,
                truth,
            )
            fora_err += l1_error(
                fora(
                    medium_graph,
                    5,
                    epsilon=0.1,
                    rng=rng,
                    allow_monte_carlo_shortcut=False,
                ).estimate,
                truth,
            )
        assert speed_err < fora_err


class TestCompositePipelines:
    def test_speedppr_walks_fewer_than_fora(self, medium_graph):
        rng_a = np.random.default_rng(0)
        rng_b = np.random.default_rng(0)
        speed = speed_ppr(
            medium_graph,
            2,
            epsilon=0.1,
            rng=rng_a,
            allow_monte_carlo_shortcut=False,
        )
        fora_result = fora(
            medium_graph,
            2,
            epsilon=0.1,
            rng=rng_b,
            allow_monte_carlo_shortcut=False,
        )
        assert (
            speed.counters.random_walks < fora_result.counters.random_walks
        )

    def test_hp_result_reusable_as_truth(self, medium_graph):
        # PowerPush at 1e-12 is a valid ground truth for eps checks.
        fine = power_push(medium_graph, 8, l1_threshold=1e-12)
        coarse = power_push(medium_graph, 8, l1_threshold=1e-6)
        assert l1_error(coarse.estimate, fine.estimate) <= 1.1e-6
