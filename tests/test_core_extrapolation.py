"""Epoch-end extrapolation: the array routine and the solvers built on it.

The extrapolation at the end of each scan epoch (``scan_epochs``, here
run alone through ``test_core_async_sweep.extrapolate``) repeats a
window of pushes ``k`` more times without touching an edge.  What must
hold: the push invariant is the same before and after (checked against
``exact_ppr_dense``), no residue crosses zero, a window that cannot be
repeated is left alone, PowerPush answers keep every contract on
adversarial graphs and parameter corners, never cost more residue
updates than without it, and a ``power_push_block`` batch stays bitwise
the single-source solves.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_core_async_sweep import (
    POLICIES,
    chain_graph,
    extrapolate,
    invariant_gap,
    prepared,
)

from repro.core.kernels import async_sweep
from repro.core.powerpush import power_push, power_push_block
from repro.core.residues import PushState
from repro.generators.rmat import rmat_digraph
from repro.graph.build import cycle_graph, from_edges, star_graph
from repro.metrics.ground_truth import exact_ppr_dense

# Dependency floor: the epoch-end extrapolation against its array reference.
pytestmark = pytest.mark.floor

ALPHA = 0.2


def two_cliques(size: int):
    """Two ``size``-cliques joined by the single edge ``size - 1 -> size``."""
    edges = [
        (base + a, base + b)
        for base in (0, size)
        for a in range(size)
        for b in range(size)
        if a != b
    ]
    return from_edges(edges + [(size - 1, size)], num_nodes=2 * size)


def dead_end_fifth(n: int = 200):
    """Every fifth node a dead end, the others with four random out-edges."""
    rng = np.random.default_rng(4)
    edges = [
        (u, int(v))
        for u in range(n)
        if u % 5
        for v in rng.integers(0, n, 4)
    ]
    return from_edges(edges, num_nodes=n)


def swept_state(graph, source, sweeps, policy="redirect-to-source"):
    """A state ``sweeps`` whole sweeps in, and the last sweep's window."""
    state = PushState(graph, source, ALPHA, dead_end_policy=policy)
    r_before = settled = None
    for _ in range(sweeps):
        r_before = state.residue.copy()
        settled = async_sweep(state).copy()
    return state, settled, r_before


# ---------------------------------------------------------------------------
# (a) PowerPush answers against the exact oracle
# ---------------------------------------------------------------------------
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.integers(1, 12),
    edge_seed=st.integers(0, 2**32 - 1),
    density=st.floats(0.0, 3.0),
    policy=st.sampled_from(POLICIES),
    alpha=st.sampled_from([0.01, 0.2, 0.5, 0.99]),
    l1=st.sampled_from([1e-4, 1e-8, 1e-12]),
)
def test_answers_keep_every_contract(n, edge_seed, density, policy, alpha, l1):
    rng = np.random.default_rng(edge_seed)
    count = int(density * n)
    edges = list(
        zip(rng.integers(0, n, count).tolist(), rng.integers(0, n, count).tolist())
    )
    graph = prepared(
        from_edges(edges, num_nodes=n, dedup=False, drop_self_loops=False),
        policy,
    )
    source = int(rng.integers(0, n))
    result = power_push(
        graph, source, alpha=alpha, l1_threshold=l1, dead_end_policy=policy
    )
    exact = exact_ppr_dense(
        graph,
        source,
        alpha=alpha,
        dead_end_policy=(
            "redirect-to-source" if policy == "self-loop" else policy
        ),
    )
    assert result.residue.min() >= 0.0
    assert result.r_sum <= l1
    # estimate <= exact element-wise, so the l1 distance *is* r_sum;
    # the slack is the dense solve's own rounding (conditioning 1/alpha).
    assert np.abs(result.estimate - exact).sum() <= result.r_sum + 1e-13
    assert (result.estimate <= exact + 1e-12).all()
    assert abs(result.estimate.sum() + result.r_sum - 1.0) <= 1e-12


@pytest.mark.parametrize("policy", ["redirect-to-source", "uniform-teleport"])
def test_dead_ends_cannot_end_the_scan_above_lambda(policy):
    """With dead ends ``sum(d_v) * r_max`` exceeds ``lambda``, so "no node
    is active" does not certify ``r_sum <= lambda``: the scan phase
    sweeps down to the target itself."""
    graph = from_edges(
        [(8, 10), (0, 4), (7, 1), (5, 6), (4, 4), (5, 10)],
        num_nodes=11,
        drop_self_loops=False,
    )
    single = [
        power_push(graph, s, l1_threshold=1e-4, dead_end_policy=policy)
        for s in range(11)
    ]
    block = power_push_block(
        graph, range(11), l1_threshold=1e-4, dead_end_policy=policy
    )
    for result in single + block:
        assert result.r_sum <= 1e-4


# ---------------------------------------------------------------------------
# (b) the array routine alone
# ---------------------------------------------------------------------------
class TestExtrapolateWindow:
    @pytest.mark.parametrize(
        "policy", ["redirect-to-source", "uniform-teleport"]
    )
    def test_invariant_before_is_invariant_after(self, medium_graph, policy):
        rng = np.random.default_rng(11)
        for graph in (medium_graph, dead_end_fifth()):
            for source in rng.integers(0, graph.num_nodes, 4):
                state, settled, r_before = swept_state(
                    graph, int(source), int(rng.integers(3, 10)), policy
                )
                assert invariant_gap(state) < 1e-12
                r_sum = state.r_sum
                assert extrapolate(
                    state.reserve, state.residue, settled, r_before
                )
                assert state.residue.min() >= 0.0
                assert state.refresh_r_sum() < r_sum
                assert invariant_gap(state) < 1e-12
                state.check_invariants(atol=1e-12)

    def test_geometric_regime_goes_in_one_step(self, medium_graph):
        """Twelve sweeps in, each sweep repeats the last one scaled: the
        window's ``k`` is the whole tail ``gamma / (1 - gamma)``."""
        for source in (0, 7, 77, 299):
            state, settled, r_before = swept_state(medium_graph, source, 12)
            r_sum, fell = state.r_sum, float(r_before.sum()) - state.r_sum
            gamma = r_sum / (r_sum + fell)
            assert extrapolate(
                state.reserve, state.residue, settled, r_before
            )
            assert state.refresh_r_sum() < 0.05 * r_sum
            k = (r_sum - state.r_sum) / fell
            assert k == pytest.approx(gamma / (1.0 - gamma), rel=0.05)

    def test_longest_window_that_keeps_every_residue_non_negative(self):
        reserve = np.zeros(3)
        residue = np.array([0.3, 0.2, 0.4])
        r_before = np.array([0.5, 0.3, 0.3])  # falls 0.2 and 0.1, rises 0.1
        settled = np.array([0.05, 0.02, 0.0])
        assert extrapolate(reserve, residue, settled, r_before)
        # k = min(0.3 / 0.2, 0.2 / 0.1) = 1.5: node 0 lands on zero
        assert residue[0] >= 0.0 and residue[0] < 1e-15
        np.testing.assert_allclose(residue[1:], [0.05, 0.55], atol=1e-15)
        np.testing.assert_allclose(reserve, [0.075, 0.03, 0.0], atol=1e-15)

    def test_an_entry_that_fell_to_zero_makes_it_a_no_op(self, medium_graph):
        # The first sweep takes the source's residue from 1 to 0: the
        # last node in id order, nothing pushes after it.
        last = medium_graph.num_nodes - 1
        state, settled, r_before = swept_state(medium_graph, last, 1)
        assert state.residue[last] == 0.0 and r_before[last] == 1.0
        reserve, residue = state.reserve.copy(), state.residue.copy()
        assert not extrapolate(
            state.reserve, state.residue, settled, r_before
        )
        assert np.array_equal(state.reserve, reserve)
        assert np.array_equal(state.residue, residue)

    def test_a_window_with_no_falling_entry_is_a_no_op(self):
        reserve, residue = np.full(4, 0.1), np.full(4, 0.15)
        for r_before in (residue.copy(), residue - 0.05, np.zeros(4)):
            assert not extrapolate(
                reserve, residue, np.full(4, 0.01), r_before
            )
            assert np.array_equal(reserve, np.full(4, 0.1))
            assert np.array_equal(residue, np.full(4, 0.15))

    def test_signed_residues_keep_their_signs(self):
        """IncrementalPPR's form: no residue crosses zero, and a window
        that would raise ``sum(|r|)`` is refused."""
        reserve = np.zeros(4)
        residue = np.array([0.4, -0.2, -0.3, 0.0])
        r_before = np.array([0.6, -0.3, -0.2, 0.0])
        before = np.abs(residue).sum()
        assert extrapolate(
            reserve, residue, np.array([0.02, -0.01, 0.0, 0.0]), r_before
        )
        # k = min(0.4 / 0.2, -0.2 / -0.1) = 2: both land on zero
        assert residue[0] >= 0.0 and residue[1] <= 0.0
        np.testing.assert_allclose(residue, [0.0, 0.0, -0.5, 0.0], atol=1e-15)
        assert np.abs(residue).sum() < before

        growing = np.array([0.4, -0.5])
        assert not extrapolate(
            np.zeros(2), growing, np.zeros(2), np.array([0.5, -0.1])
        )
        assert np.array_equal(growing, [0.4, -0.5])


# ---------------------------------------------------------------------------
# (c) corner graphs: never more residue updates than without it
# ---------------------------------------------------------------------------
#: name -> (graph, source, policy, residue updates at lambda = 1e-9
#: without the extrapolation (sparse pushes interleaved), and with it)
CORNERS = {
    "cycle": (cycle_graph(50), 0, "redirect-to-source", 93, 93),
    "chain-to-dead-end": (chain_graph(30), 0, "redirect-to-source", 93, 93),
    "one-way-star": (
        star_graph(40, bidirectional=False), 0, "redirect-to-source", 1880, 240,
    ),
    "two-way-star": (star_graph(40), 0, "redirect-to-source", 3720, 480),
    "two-way-star-from-a-leaf": (
        star_graph(40), 7, "redirect-to-source", 3681, 481,
    ),
    "two-cliques": (two_cliques(12), 0, "redirect-to-source", 14818, 5300),
    "two-cliques-from-the-far-side": (
        two_cliques(12), 23, "redirect-to-source", 7403, 2123,
    ),
    "dead-end-fifth-redirect": (
        dead_end_fifth(), 1, "redirect-to-source", 30515, 13528,
    ),
    "dead-end-fifth-teleport": (
        dead_end_fifth(), 1, "uniform-teleport", 37937, 13289,
    ),
}


@pytest.mark.parametrize("name", sorted(CORNERS))
def test_corner_graphs_cost_no_more_than_before(name):
    graph, source, policy, before, now = CORNERS[name]
    assert now <= before
    result = power_push(
        graph, source, l1_threshold=1e-9, dead_end_policy=policy
    )
    assert result.counters.residue_updates == now
    assert result.r_sum <= 1e-9 and result.residue.min() >= 0.0
    # The cycle and the chain finish in the queue phase: no epoch ran.
    assert ("epochs" in result.counters.extras) == (now != before)


# ---------------------------------------------------------------------------
# (d) block rows are the single-source solves, bit for bit
# ---------------------------------------------------------------------------
def assert_rows_are_single_solves(graph, sources, **params):
    block = power_push_block(graph, sources, **params)
    singles = [power_push(graph, s, **params) for s in sources]
    for single, row in zip(singles, block):
        assert np.array_equal(single.estimate, row.estimate), single.source
        assert np.array_equal(single.residue, row.residue), single.source
        assert single.counters.as_dict() == row.counters.as_dict()
    return singles


class TestBlockRows:
    def test_rows_whose_epochs_end_in_different_rounds(self):
        # Hub and leaf sources of a skewed graph: different queue-phase
        # lengths, different sweeps per epoch, different retirements.
        graph = rmat_digraph(9, 4_000, rng=np.random.default_rng(2021))
        by_degree = np.argsort(graph.out_degree)
        sources = [int(v) for v in (*by_degree[-3:], *by_degree[200:203])]
        singles = assert_rows_are_single_solves(graph, sources)
        extrapolations = {
            s.counters.extras["extrapolations"] for s in singles
        }
        sweeps = {s.counters.residue_updates for s in singles}
        assert len(extrapolations) > 1 and len(sweeps) == len(sources)

    @pytest.mark.parametrize(
        "policy", ["redirect-to-source", "uniform-teleport"]
    )
    def test_dead_end_graph_under_both_policies(self, policy):
        assert_rows_are_single_solves(
            dead_end_fifth(), [1, 2, 5, 199], dead_end_policy=policy
        )

    def test_a_row_that_never_scans_beside_rows_that_do(self):
        # The leaf of a one-way star is a dead end: one queue push and
        # done, while the hub's row goes on to scan and extrapolate.
        singles = assert_rows_are_single_solves(
            star_graph(40, bidirectional=False), [3, 0, 9]
        )
        assert "epochs" not in singles[0].counters.extras
        assert singles[1].counters.extras["extrapolations"] == 1


def test_a_solve_that_ends_in_the_queue_phase_has_no_window(medium_graph):
    result = power_push(medium_graph, 0, l1_threshold=0.5)
    assert result.r_sum <= 0.5
    assert "extrapolations" not in result.counters.extras
