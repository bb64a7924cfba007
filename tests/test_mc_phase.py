"""Unit tests for the shared Monte-Carlo refinement phase (Eq. 13-14)."""

import numpy as np
import pytest

from repro.core.mc_phase import monte_carlo_refine, required_walks
from repro.core.residues import PushState
from repro.errors import IndexMismatchError, ParameterError
from repro.metrics.errors import l1_error
from repro.metrics.ground_truth import exact_ppr_dense
from repro.walks.index import build_walk_index, speedppr_walk_counts


class TestRequiredWalks:
    def test_ceil_of_r_times_w(self):
        residue = np.array([0.0, 0.001, 0.0101, 0.5])
        walks = required_walks(residue, 100)
        assert walks.tolist() == [0, 1, 2, 50]

    def test_rejects_bad_w(self):
        with pytest.raises(ParameterError):
            required_walks(np.array([0.1]), 0)


class TestRefinement:
    def _half_pushed_state(self, graph):
        """A state with some reserve and residue spread around."""
        state = PushState(graph, 0)
        state.push(0)
        state.push(2)
        return state

    def test_estimate_improves_on_reserve_alone(self, paper_graph, rng):
        truth = exact_ppr_dense(paper_graph, 0)
        state = self._half_pushed_state(paper_graph)
        estimate = monte_carlo_refine(
            paper_graph,
            0,
            0.2,
            state.reserve,
            state.residue,
            50_000,
            rng=rng,
        )
        assert l1_error(estimate, truth) < l1_error(state.reserve, truth)
        assert estimate.sum() == pytest.approx(1.0, abs=0.01)

    def test_unbiasedness(self, paper_graph):
        truth = exact_ppr_dense(paper_graph, 0)
        state = self._half_pushed_state(paper_graph)
        total = np.zeros(5)
        runs = 30
        for seed in range(runs):
            total += monte_carlo_refine(
                paper_graph,
                0,
                0.2,
                state.reserve,
                state.residue,
                2000,
                rng=np.random.default_rng(seed),
            )
        np.testing.assert_allclose(total / runs, truth, atol=0.01)

    def test_inputs_not_mutated(self, paper_graph, rng):
        state = self._half_pushed_state(paper_graph)
        reserve_before = state.reserve.copy()
        residue_before = state.residue.copy()
        monte_carlo_refine(
            paper_graph,
            0,
            0.2,
            state.reserve,
            state.residue,
            1000,
            rng=rng,
        )
        np.testing.assert_array_equal(state.reserve, reserve_before)
        np.testing.assert_array_equal(state.residue, residue_before)

    def test_zero_residue_returns_reserve(self, paper_graph, rng):
        reserve = np.full(5, 0.2)
        estimate = monte_carlo_refine(
            paper_graph, 0, 0.2, reserve, np.zeros(5), 1000, rng=rng
        )
        np.testing.assert_array_equal(estimate, reserve)

    def test_requires_rng_without_index(self, paper_graph):
        with pytest.raises(ParameterError):
            monte_carlo_refine(
                paper_graph, 0, 0.2, np.zeros(5), np.ones(5) / 5, 100
            )

    @pytest.mark.parametrize("length", [4, 6])
    def test_vectors_of_another_length_rejected(self, paper_graph, rng, length):
        # The walks stop at ids up to n - 1, so a shorter estimate would
        # be written past its end.
        for reserve, residue in (
            (np.zeros(length), np.ones(5) / 5),
            (np.zeros(5), np.ones(length) / length),
        ):
            with pytest.raises(ParameterError, match=r"shape \(5,\)"):
                monte_carlo_refine(
                    paper_graph, 0, 0.2, reserve, residue, 100, rng=rng
                )

    def test_counters_updated(self, paper_graph, rng):
        state = self._half_pushed_state(paper_graph)
        monte_carlo_refine(
            paper_graph,
            0,
            0.2,
            state.reserve,
            state.residue,
            1000,
            rng=rng,
            counters=state.counters,
        )
        assert state.counters.random_walks > 0


class TestRefinementWithIndex:
    def test_index_path_unbiased(self, paper_graph):
        truth = exact_ppr_dense(paper_graph, 0)
        state = PushState(paper_graph, 0)
        state.push(0)
        # Residues <= 0.4; an index with K_v = d_v covers
        # W_v = ceil(r_v * W) for W small enough.
        total = np.zeros(5)
        runs = 30
        for seed in range(runs):
            index = build_walk_index(
                paper_graph,
                speedppr_walk_counts(paper_graph) * 3,
                rng=np.random.default_rng(seed),
            )
            total += monte_carlo_refine(
                paper_graph,
                0,
                0.2,
                state.reserve,
                state.residue,
                10,
                walk_index=index,
            )
        np.testing.assert_allclose(total / runs, truth, atol=0.06)

    def test_insufficient_index_raises(self, paper_graph, rng):
        state = PushState(paper_graph, 0)
        state.push(0)
        index = build_walk_index(
            paper_graph, np.ones(5, dtype=np.int64), rng=rng
        )
        with pytest.raises(IndexMismatchError):
            monte_carlo_refine(
                paper_graph,
                0,
                0.2,
                state.reserve,
                state.residue,
                1_000_000,
                walk_index=index,
                on_insufficient="error",
            )

    def test_insufficient_index_caps(self, paper_graph, rng):
        state = PushState(paper_graph, 0)
        state.push(0)
        index = build_walk_index(
            paper_graph, np.ones(5, dtype=np.int64), rng=rng
        )
        counters = state.counters
        estimate = monte_carlo_refine(
            paper_graph,
            0,
            0.2,
            state.reserve,
            state.residue,
            1_000_000,
            walk_index=index,
            counters=counters,
            on_insufficient="cap",
        )
        assert estimate.sum() == pytest.approx(1.0, abs=1e-9)
        assert counters.extras.get("index_capped_nodes", 0) > 0

    def test_alpha_mismatch_rejected(self, paper_graph, rng):
        index = build_walk_index(
            paper_graph,
            speedppr_walk_counts(paper_graph),
            alpha=0.5,
            rng=rng,
        )
        with pytest.raises(IndexMismatchError):
            monte_carlo_refine(
                paper_graph,
                0,
                0.2,
                np.zeros(5),
                np.ones(5) / 5,
                10,
                walk_index=index,
            )
