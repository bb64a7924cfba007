"""Unit and contract tests for SpeedPPR (Algorithm 4)."""

import numpy as np
import pytest

from repro.api.engine import PPREngine
from repro.core.mc_phase import monte_carlo_refine
from repro.core.refinement import refine_to_r_max
from repro.core.residues import PushState
from repro.core.speedppr import speed_ppr
from repro.errors import ParameterError
from repro.graph.build import from_edges
from repro.metrics.errors import max_relative_error, relative_error_violations
from repro.metrics.ground_truth import ground_truth_ppr
from repro.montecarlo.chernoff import chernoff_walk_count
from repro.walks.index import build_walk_index, speedppr_walk_counts


class TestContract:
    def test_relative_error_contract(self, medium_graph, rng):
        truth = np.asarray(
            ground_truth_ppr(medium_graph, 0, l1_threshold=1e-13)
        )
        mu = 1.0 / medium_graph.num_nodes
        result = speed_ppr(
            medium_graph,
            0,
            epsilon=0.5,
            rng=rng,
            allow_monte_carlo_shortcut=False,
        )
        assert (
            max_relative_error(result.estimate, truth, mu=mu) <= 0.5
        )

    def test_tighter_epsilon_is_more_accurate(self, medium_graph):
        truth = np.asarray(
            ground_truth_ppr(medium_graph, 3, l1_threshold=1e-13)
        )
        mu = 1.0 / medium_graph.num_nodes
        loose_violations = 0
        tight_violations = 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            loose = speed_ppr(
                medium_graph,
                3,
                epsilon=0.5,
                rng=rng,
                allow_monte_carlo_shortcut=False,
            )
            tight = speed_ppr(
                medium_graph,
                3,
                epsilon=0.1,
                rng=rng,
                allow_monte_carlo_shortcut=False,
            )
            loose_violations += relative_error_violations(
                loose.estimate, truth, mu=mu, epsilon=0.1
            )
            tight_violations += relative_error_violations(
                tight.estimate, truth, mu=mu, epsilon=0.1
            )
        assert tight_violations <= loose_violations

    def test_estimate_near_distribution(self, medium_graph, rng):
        result = speed_ppr(
            medium_graph,
            5,
            epsilon=0.3,
            rng=rng,
            allow_monte_carlo_shortcut=False,
        )
        assert result.estimate.sum() == pytest.approx(1.0, abs=0.05)
        assert np.all(result.estimate >= 0)


class TestWalkBudget:
    def test_at_most_m_walks(self, medium_graph, rng):
        # Theorem 6.1's index-size property: W_v <= d_v after the
        # refinement, so at most m walks in total — for ANY epsilon.
        for epsilon in (0.5, 0.1):
            result = speed_ppr(
                medium_graph,
                2,
                epsilon=epsilon,
                rng=rng,
                allow_monte_carlo_shortcut=False,
            )
            assert (
                result.counters.random_walks <= medium_graph.num_edges
            )

    def test_refined_residues_below_one_over_w(self, medium_graph, rng):
        epsilon = 0.3
        n = medium_graph.num_nodes
        w = chernoff_walk_count(epsilon, 1.0 / n, p_fail=1.0 / n)
        result = speed_ppr(
            medium_graph,
            2,
            epsilon=epsilon,
            rng=rng,
            allow_monte_carlo_shortcut=False,
        )
        assert result.residue is not None
        effective = medium_graph.out_degree.astype(float)
        assert np.all(result.residue <= effective / w + 1e-12)


class TestIndexVariant:
    def test_index_version_runs_without_rng(self, medium_graph, rng):
        index = build_walk_index(
            medium_graph, speedppr_walk_counts(medium_graph), rng=rng
        )
        result = speed_ppr(
            medium_graph,
            4,
            epsilon=0.4,
            walk_index=index,
            allow_monte_carlo_shortcut=False,
        )
        assert result.method == "SpeedPPR-Index"
        assert result.estimate.sum() == pytest.approx(1.0, abs=0.05)

    def test_one_index_serves_all_epsilons(self, medium_graph, rng):
        # The headline feature: the same index answers every epsilon.
        index = build_walk_index(
            medium_graph, speedppr_walk_counts(medium_graph), rng=rng
        )
        truth = np.asarray(
            ground_truth_ppr(medium_graph, 4, l1_threshold=1e-13)
        )
        mu = 1.0 / medium_graph.num_nodes
        for epsilon in (0.5, 0.3, 0.1):
            result = speed_ppr(
                medium_graph,
                4,
                epsilon=epsilon,
                walk_index=index,
                allow_monte_carlo_shortcut=False,
            )
            assert (
                max_relative_error(result.estimate, truth, mu=mu)
                <= epsilon * 1.5  # slack for the one-sided seed
            )

    def test_index_path_is_the_active_only_scan_from_e_s(
        self, medium_graph, rng
    ):
        # With an index, phase 1 is refine_to_r_max(1/W) from e_s alone:
        # no PowerPush epochs, then the index walk phase as usual.
        index = build_walk_index(
            medium_graph, speedppr_walk_counts(medium_graph), rng=rng
        )
        n = medium_graph.num_nodes
        w = chernoff_walk_count(0.4, 1.0 / n, p_fail=1.0 / n)
        result = speed_ppr(
            medium_graph,
            4,
            epsilon=0.4,
            walk_index=index,
            allow_monte_carlo_shortcut=False,
        )
        state = PushState(medium_graph, 4, 0.2)
        refine_to_r_max(state, 1.0 / w)
        expected = monte_carlo_refine(
            medium_graph,
            4,
            0.2,
            state.reserve,
            state.residue,
            w,
            walk_index=index,
            counters=state.counters,
            on_insufficient="cap",
        )
        assert result.estimate.tobytes() == expected.tobytes()
        assert result.residue.tobytes() == state.residue.tobytes()
        assert result.counters.as_dict() == state.counters.as_dict()
        assert "epochs" not in result.counters.extras
        assert np.all(result.residue <= medium_graph.out_degree / w)
        live = speed_ppr(
            medium_graph,
            4,
            epsilon=0.4,
            rng=np.random.default_rng(1),
            allow_monte_carlo_shortcut=False,
        )
        assert "epochs" in live.counters.extras


class TestShortcutAndValidation:
    def test_mc_shortcut_when_m_exceeds_w(self, paper_graph, rng):
        # Tiny graph: W(eps=0.5) >> m is false here... force it with a
        # large epsilon and explicit mu making W small.
        result = speed_ppr(
            paper_graph, 0, epsilon=3.0, mu=0.9, rng=rng
        )
        assert result.method == "SpeedPPR[mc-shortcut]"

    def test_rejects_bad_epsilon(self, paper_graph, rng):
        with pytest.raises(ParameterError):
            speed_ppr(paper_graph, 0, epsilon=0.0, rng=rng)

    def test_rejects_bad_mu(self, paper_graph, rng):
        with pytest.raises(ParameterError):
            speed_ppr(paper_graph, 0, epsilon=0.5, mu=2.0, rng=rng)

    def test_method_name(self, medium_graph, rng):
        result = speed_ppr(
            medium_graph,
            0,
            epsilon=0.5,
            rng=rng,
            allow_monte_carlo_shortcut=False,
        )
        assert result.method == "SpeedPPR"


class TestEdgelessGraph:
    """m = 0 makes lambda = m / W zero; the policy alone fixes the answer."""

    @pytest.mark.parametrize(
        "policy, expected",
        [
            ("redirect-to-source", [0.0, 1.0, 0.0, 0.0, 0.0]),
            ("uniform-teleport", [0.16, 0.36, 0.16, 0.16, 0.16]),
        ],
    )
    def test_answers_like_powerpush(self, policy, expected):
        engine = PPREngine(
            from_edges([], num_nodes=5), alpha=0.2, dead_end_policy=policy
        )
        result = engine.query(1, "speedppr", seed=3)
        np.testing.assert_allclose(result.estimate, expected, atol=1e-15)
        assert result.method == "SpeedPPR"
        assert not result.residue.any()
        assert result.estimate.tobytes() == (
            engine.query(1, "powerpush").estimate.tobytes()
        )
