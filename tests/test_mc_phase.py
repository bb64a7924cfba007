"""Unit tests for the shared Monte-Carlo refinement phase (Eq. 13-14).

The index read is one C call (``repro.core.kernels.index_read``); its
bytes, counters and errors are checked against the NumPy formulation it
replaced, ``required_walks`` followed by ``scatter_ranges``.
"""

from importlib import import_module

import numpy as np
import pytest

from repro.baselines.fora import fora
from repro.baselines.resacc import resacc
from repro.core.kernels import scatter_ranges
from repro.core.mc_phase import monte_carlo_refine, required_walks
from repro.core.powerpush import power_push
from repro.core.refinement import refine_to_r_max
from repro.core.residues import PushState
from repro.core.speedppr import speed_ppr
from repro.errors import IndexMismatchError, ParameterError
from repro.instrumentation.counters import PushCounters
from repro.metrics.errors import l1_error
from repro.metrics.ground_truth import exact_ppr_dense
from repro.walks.index import build_walk_index, speedppr_walk_counts

# Dependency floor: the index read's C entry point against its NumPy formulation.
pytestmark = pytest.mark.floor


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


def reference_index_read(reserve, residue, num_walks_w, index, on_insufficient):
    """The NumPy index read ``monte_carlo_refine`` had before it moved to
    C: ``(estimate, walks, capped_nodes)``, or the error it raised."""
    estimate = reserve.astype(np.float64, copy=True)
    nodes = np.flatnonzero(residue > 0.0)
    if nodes.shape[0] == 0:
        return estimate, 0, 0
    walks_needed = required_walks(residue[nodes], num_walks_w)
    first = index.indptr[nodes]
    available = index.indptr[nodes + 1] - first
    short = walks_needed > available
    if np.any(short) and on_insufficient == "error":
        raise IndexMismatchError(
            f"node {int(nodes[short][0])} needs "
            f"{int(walks_needed[short][0])} walks but the index "
            f"holds {int(available[short][0])} "
            f"(policy={index.policy!r}); rebuild the index "
            "or pass on_insufficient='cap'"
        )
    walks_needed = np.minimum(walks_needed, available)
    weights = residue[nodes] / np.maximum(walks_needed, 1)
    scatter_ranges(estimate, index.stops, first, walks_needed, weights)
    return estimate, int(walks_needed.sum()), int(short.sum())


def _pushed_states(graph, num_walks_w):
    """States an index read meets: SpeedPPR-Index's phase 1 from e_s,
    the live path's PowerPush + refinement, and a shallow push."""
    indexed = refine_to_r_max(PushState(graph, 4, 0.2), 1.0 / num_walks_w)
    pushed = power_push(graph, 9, l1_threshold=graph.num_edges / num_walks_w)
    live = PushState(graph, 9, 0.2)
    live.reserve, live.residue = pushed.estimate, pushed.residue
    refine_to_r_max(live, 1.0 / num_walks_w)
    shallow = PushState(graph, 0, 0.2)
    shallow.push(0)
    return indexed, live, shallow


class TestIndexReadBytes:
    @pytest.mark.parametrize("factor", [1, 3])
    @pytest.mark.parametrize("num_walks_w", [2_000, 30_000, 10**6])
    @pytest.mark.parametrize("on_insufficient", ["cap", "error"])
    def test_against_the_numpy_read(
        self, medium_graph, on_insufficient, num_walks_w, factor
    ):
        index = build_walk_index(
            medium_graph,
            speedppr_walk_counts(medium_graph) * factor,
            rng=np.random.default_rng(factor),
        )
        for state in _pushed_states(medium_graph, num_walks_w):
            reserve, residue = state.reserve.copy(), state.residue.copy()
            counters = PushCounters(random_walks=7)
            try:
                expected = reference_index_read(
                    reserve, residue, num_walks_w, index, on_insufficient
                )
            except IndexMismatchError as exc:
                with pytest.raises(IndexMismatchError) as raised:
                    monte_carlo_refine(
                        medium_graph, 0, 0.2, state.reserve, state.residue,
                        num_walks_w, walk_index=index, counters=counters,
                        on_insufficient=on_insufficient,
                    )
                assert str(raised.value) == str(exc)
                assert counters == PushCounters(random_walks=7)
            else:
                estimate = monte_carlo_refine(
                    medium_graph, 0, 0.2, state.reserve, state.residue,
                    num_walks_w, walk_index=index, counters=counters,
                    on_insufficient=on_insufficient,
                )
                assert estimate.tobytes() == expected[0].tobytes()
                assert counters.random_walks == 7 + expected[1]
                assert counters.extras == (
                    {"index_capped_nodes": expected[2]} if expected[2] else {}
                )
            # Nothing it was handed is written.
            assert state.reserve.tobytes() == reserve.tobytes()
            assert state.residue.tobytes() == residue.tobytes()

    def test_both_outcomes_are_reached(self, medium_graph):
        """The grid above meets capped nodes, and raises on them."""
        index = build_walk_index(
            medium_graph, speedppr_walk_counts(medium_graph),
            rng=np.random.default_rng(1),
        )
        shallow = _pushed_states(medium_graph, 10**6)[2]
        _, walks, capped = reference_index_read(
            shallow.reserve, shallow.residue, 10**6, index, "cap"
        )
        assert walks > 0 and capped > 0
        with pytest.raises(IndexMismatchError, match="needs"):
            reference_index_read(
                shallow.reserve, shallow.residue, 10**6, index, "error"
            )

    def test_signed_and_read_only_residues(self, medium_graph):
        """Only r > 0 reads walks; read-only and non-float64 inputs are
        read as they are (the residue as float64)."""
        index = build_walk_index(
            medium_graph, speedppr_walk_counts(medium_graph),
            rng=np.random.default_rng(2),
        )
        n = medium_graph.num_nodes
        rng = np.random.default_rng(3)
        residue = rng.normal(scale=1e-4, size=n)
        residue.flags.writeable = False
        reserve = rng.random(n)
        expected = reference_index_read(reserve, residue, 30_000, index, "cap")
        got = monte_carlo_refine(
            medium_graph, 0, 0.2, reserve, residue, 30_000,
            walk_index=index, on_insufficient="cap",
        )
        assert got.tobytes() == expected[0].tobytes()
        as_float32 = monte_carlo_refine(
            medium_graph, 0, 0.2, reserve, residue.astype(np.float32), 30_000,
            walk_index=index, on_insufficient="cap",
        )
        assert as_float32.tobytes() == reference_index_read(
            reserve, residue.astype(np.float32).astype(np.float64), 30_000,
            index, "cap",
        )[0].tobytes()

    def test_a_range_outside_the_stops_is_refused(self, medium_graph):
        """An index whose arrays were swapped after its checks ran: the
        read refuses a range it would read past the stops, as the
        range scatter it replaced did."""
        index = build_walk_index(
            medium_graph, speedppr_walk_counts(medium_graph),
            rng=np.random.default_rng(2),
        )
        index.stops = index.stops[:10].copy()
        state = _pushed_states(medium_graph, 30_000)[0]
        with pytest.raises(ParameterError, match="outside the 10 stops"):
            monte_carlo_refine(
                medium_graph, 4, 0.2, state.reserve, state.residue, 30_000,
                walk_index=index, on_insufficient="cap",
            )

    def test_rejects_a_non_positive_w(self, medium_graph):
        index = build_walk_index(
            medium_graph, speedppr_walk_counts(medium_graph),
            rng=np.random.default_rng(2),
        )
        n = medium_graph.num_nodes
        for walk_index, rng in ((index, None), (None, np.random.default_rng(0))):
            with pytest.raises(ParameterError, match="W must be positive"):
                monte_carlo_refine(
                    medium_graph, 0, 0.2, np.zeros(n), np.zeros(n), 0,
                    walk_index=walk_index, rng=rng,
                )


class TestWalkSourceCheckedBeforePushing:
    """Without an rng or an index a solver raises before its push phase."""

    @pytest.mark.parametrize(
        "solver, module, pushes",
        [
            (speed_ppr, "repro.core.speedppr", ["power_push", "refine_to_r_max"]),
            (fora, "repro.baselines.fora", ["fifo_forward_push"]),
            (resacc, "repro.baselines.resacc", ["frontier_push"]),
        ],
    )
    def test_no_push_runs(self, medium_graph, monkeypatch, solver, module, pushes):
        def no_push(*args, **kwargs):
            raise AssertionError("pushed before checking for a walk source")

        # By module name: the package re-exports each solver function
        # under its module's name.
        for name in pushes:
            monkeypatch.setattr(import_module(module), name, no_push)
        with pytest.raises(ParameterError, match="requires an rng"):
            solver(medium_graph, 3, epsilon=0.5)
