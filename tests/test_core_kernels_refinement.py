"""Unit tests for the vectorised kernels and the O(m) refinement step.

``refine_to_r_max`` is one C call (``refine_passes``); its bytes are
checked against passes of ``test_core_async_sweep.reference_sweep``
with the dead-end routing in between (``reference_refine``).
"""

import numpy as np
import pytest

from repro.core.kernels import frontier_push, global_sweep, queue_rounds
from repro.core.powerpush import power_push
from repro.core.refinement import refine_to_r_max
from repro.core.residues import PushState
from repro.errors import ConvergenceError, ParameterError
from repro.graph.build import from_edges
from test_core_async_sweep import (
    ALPHA,
    CORNER_GRAPHS,
    POLICIES,
    invariant_gap,
    prepared,
    reference_refine,
)


def _edge_targets(graph, nodes):
    """``(pointers, targets)``: the out-adjacency lists of ``nodes``, concatenated."""
    indptr, indices = graph.out_indptr, graph.out_indices
    rows = [indices[indptr[v] : indptr[v + 1]] for v in nodes.tolist()]
    pointers = np.cumsum([0] + [row.shape[0] for row in rows])
    return pointers, np.concatenate([indices[:0], *rows])


class TestFrontierEdgeTargets:
    """A frontier's edge targets, read by plain CSR slicing."""

    def test_concatenates_in_node_order(self, paper_graph):
        pointers, targets = _edge_targets(paper_graph, np.array([0, 2]))
        assert targets.tolist() == [1, 2, 1, 3]
        assert pointers.tolist() == [0, 2, 4]

    def test_empty_frontier(self, paper_graph):
        pointers, targets = _edge_targets(
            paper_graph, np.array([], dtype=np.int64)
        )
        assert targets.shape[0] == 0
        assert pointers.tolist() == [0]

    def test_dead_end_nodes_contribute_nothing(self, dead_end_graph):
        pointers, targets = _edge_targets(dead_end_graph, np.array([1, 2]))
        assert targets.shape[0] == 0
        assert pointers.tolist() == [0, 0, 0]


class TestGlobalSweep:
    def test_one_sweep_equals_scalar_pushes(self, paper_graph):
        vector_state = PushState(paper_graph, 0)
        global_sweep(vector_state)

        scalar_state = PushState(paper_graph, 0)
        scalar_state.push(0)  # only the source holds residue

        np.testing.assert_allclose(
            vector_state.residue, scalar_state.residue, atol=1e-15
        )
        np.testing.assert_allclose(
            vector_state.reserve, scalar_state.reserve, atol=1e-15
        )

    def test_mass_conserved(self, paper_graph):
        state = PushState(paper_graph, 0)
        for _ in range(10):
            global_sweep(state)
        assert state.mass_total() == pytest.approx(1.0, abs=1e-12)

    def test_dead_end_mass_redirected(self, dead_end_graph):
        state = PushState(dead_end_graph, 0)
        global_sweep(state)  # source pushes to leaves
        global_sweep(state)  # leaves are dead ends -> back to source
        assert state.residue[0] > 0
        assert state.mass_total() == pytest.approx(1.0, abs=1e-12)

    def test_counting_modes(self, paper_graph):
        billed_all = PushState(paper_graph, 0)
        global_sweep(billed_all, count_all_edges=True)
        assert billed_all.counters.residue_updates == paper_graph.num_edges

        billed_holders = PushState(paper_graph, 0)
        global_sweep(billed_holders, count_all_edges=False)
        assert billed_holders.counters.residue_updates == 2  # d(source)


class TestFrontierPush:
    def test_matches_scalar_push_set(self, paper_graph):
        vector_state = PushState(paper_graph, 0)
        vector_state.push(0)
        scalar_state = PushState(paper_graph, 0)
        scalar_state.push(0)

        frontier_push(vector_state, np.array([1, 2]))
        # Simultaneous semantics: scalar pushes on the residues as they
        # were before either push — compute expected by hand instead.
        # r(v2) = r(v3) = 0.4.  Push both:
        #   v2 spreads 0.32/4 = 0.08 to v1, v3, v4, v5
        #   v3 spreads 0.32/2 = 0.16 to v2, v4
        np.testing.assert_allclose(
            vector_state.residue,
            [0.08, 0.16, 0.08, 0.24, 0.08],
            atol=1e-15,
        )
        np.testing.assert_allclose(
            vector_state.reserve, [0.2, 0.08, 0.08, 0, 0], atol=1e-15
        )

    def test_empty_frontier_noop(self, paper_graph):
        state = PushState(paper_graph, 0)
        frontier_push(state, np.array([], dtype=np.int64))
        assert state.r_sum == 1.0

    def test_self_loop_preserved(self):
        graph = from_edges(
            [(0, 0), (0, 1), (1, 0)], drop_self_loops=False
        )
        state = PushState(graph, 0)
        frontier_push(state, np.array([0]))
        assert state.residue[0] == pytest.approx(0.4)
        assert state.mass_total() == pytest.approx(1.0)

    def test_incremental_r_sum_correct(self, paper_graph):
        state = PushState(paper_graph, 0)
        frontier_push(state, np.array([0]))
        assert state.r_sum == pytest.approx(state.residue.sum(), abs=1e-12)

    def test_dead_end_in_frontier(self, dead_end_graph):
        state = PushState(dead_end_graph, 0)
        frontier_push(state, np.array([0]))
        frontier_push(state, np.array([1, 2, 3, 4]))
        assert state.mass_total() == pytest.approx(1.0, abs=1e-12)
        assert state.residue[0] > 0


class TestQueueRounds:
    """FIFO-FwdPush's rounds: no ``r_sum`` target, only the frontier."""

    def test_zero_when_nothing_active(self, paper_graph):
        state = PushState(paper_graph, 0)
        state.residue[:] = 0.0
        state.refresh_r_sum()
        assert queue_rounds(state, 0.01, -np.inf, 1.25) == (0, True)
        assert state.counters.pushes == 0

    def test_pushes_active_count(self, paper_graph):
        state = PushState(paper_graph, 0)
        # One round over the cap of none: it runs, then the loop stops.
        assert queue_rounds(state, 0.01, -np.inf, 1.25, max_rounds=0) == (
            1, False
        )
        assert state.counters.pushes == 1  # only the source


class TestRefinement:
    def test_terminal_condition(self, medium_graph):
        state = PushState(medium_graph, 2)
        refine_to_r_max(state, 1e-4)
        assert np.all(
            state.residue <= medium_graph.out_degree * 1e-4 + 1e-15
        )

    def test_rejects_zero_r_max(self, paper_graph):
        state = PushState(paper_graph, 0)
        with pytest.raises(ParameterError):
            refine_to_r_max(state, 0.0)

    def test_sweep_cap_raises(self, medium_graph):
        state = PushState(medium_graph, 2)
        with pytest.raises(ConvergenceError):
            refine_to_r_max(state, 1e-12, max_sweeps=1)

    def test_idempotent(self, medium_graph):
        state = PushState(medium_graph, 2)
        refine_to_r_max(state, 1e-4)
        before = state.residue.copy()
        refine_to_r_max(state, 1e-4)
        np.testing.assert_array_equal(before, state.residue)

    def test_preserves_mass(self, medium_graph):
        state = PushState(medium_graph, 2)
        refine_to_r_max(state, 1e-5)
        assert state.mass_total() == pytest.approx(1.0, abs=1e-10)


class TestRefinementOnCornerGraphs:
    """Dead ends, self-loops and parallel edges, under every policy."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("name", sorted(CORNER_GRAPHS))
    def test_terminal_condition_and_invariant(self, name, policy):
        graph = prepared(CORNER_GRAPHS[name], policy)
        for source in (0, graph.num_nodes - 1):
            for r_max in (1e-2, 1e-4, 1e-7):
                state = PushState(graph, source, ALPHA, dead_end_policy=policy)
                refine_to_r_max(state, r_max)
                threshold = state.effective_out_degree * r_max
                assert not (state.residue > threshold).any()
                assert (state.residue >= 0.0).all()
                assert state.mass_total() == pytest.approx(1.0, abs=1e-12)
                assert state.r_sum == float(state.residue.sum())
                assert invariant_gap(state) < 1e-12

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("name", sorted(CORNER_GRAPHS))
    def test_sweep_cap_raises(self, name, policy):
        graph = prepared(CORNER_GRAPHS[name], policy)
        state = PushState(graph, 0, ALPHA, dead_end_policy=policy)
        with pytest.raises(ConvergenceError):
            refine_to_r_max(state, 1e-12, max_sweeps=1)


def _start(graph, source, policy, start):
    """A state to refine: ``e_s``, or what PowerPush leaves at l1 = 0.05."""
    state = PushState(graph, source, ALPHA, dead_end_policy=policy)
    if start == "powerpush":
        pushed = power_push(
            graph, source, alpha=ALPHA, l1_threshold=0.05,
            dead_end_policy=policy,
        )
        state.counters = pushed.counters
        state.reserve, state.residue = pushed.estimate, pushed.residue
        state.refresh_r_sum()
    return state


class TestRefinementBytes:
    """``refine_to_r_max`` gives the reference's bits, counts and raise."""

    @pytest.mark.parametrize("start", ["e_s", "powerpush"])
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("name", sorted(CORNER_GRAPHS))
    def test_against_reference_passes(self, name, policy, start):
        graph = prepared(CORNER_GRAPHS[name], policy)
        for source in (0, graph.num_nodes - 1):
            for r_max in (1e-2, 1e-4, 1e-7):
                state = _start(graph, source, policy, start)
                residue, reserve = state.residue.copy(), state.reserve.copy()
                before = state.counters.as_dict()
                _, pushes, updates = reference_refine(
                    graph, residue, reserve, state.threshold_vector(r_max),
                    10**6, source=source, policy=policy,
                )
                refine_to_r_max(state, r_max)
                assert state.residue.tobytes() == residue.tobytes()
                assert state.reserve.tobytes() == reserve.tobytes()
                assert state.counters.pushes - before["pushes"] == pushes
                assert (
                    state.counters.residue_updates - before["residue_updates"]
                    == updates
                )
                assert state.r_sum == float(residue.sum())

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("name", ["chain", "star-both", "self-loops"])
    def test_max_sweeps_raises_after_the_same_passes(self, name, policy):
        """More than ``max_sweeps`` pushing passes raise, the last of them
        run, billed and routed; a budget the scan fits in does not."""
        graph = prepared(CORNER_GRAPHS[name], policy)
        r_max = 1e-6
        state = _start(graph, 0, policy, "e_s")
        residue, reserve = state.residue.copy(), state.reserve.copy()
        needed = reference_refine(
            graph, residue, reserve, state.threshold_vector(r_max), 10**6,
            source=0, policy=policy,
        )[0]
        assert needed > 2
        for max_sweeps in (-1, 0, 1, needed - 1, needed, needed + 5):
            state = _start(graph, 0, policy, "e_s")
            residue, reserve = state.residue.copy(), state.reserve.copy()
            passes, pushes, updates = reference_refine(
                graph, residue, reserve, state.threshold_vector(r_max),
                max(max_sweeps, 0) + 1, source=0, policy=policy,
            )
            if max_sweeps >= needed:
                refine_to_r_max(state, r_max, max_sweeps=max_sweeps)
                assert passes == needed
            else:
                with pytest.raises(
                    ConvergenceError,
                    match=rf"exceeded {max_sweeps} sweeps \(r_sum=",
                ):
                    refine_to_r_max(state, r_max, max_sweeps=max_sweeps)
                assert passes == max(max_sweeps, 0) + 1
            assert state.residue.tobytes() == residue.tobytes()
            assert state.reserve.tobytes() == reserve.tobytes()
            assert state.counters.pushes == pushes
            assert state.counters.residue_updates == updates
