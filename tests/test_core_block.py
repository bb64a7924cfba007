"""What is left of the multi-source layer vs its per-source twins.

Every row of a :func:`~repro.core.powerpush.power_push_block` call —
a per-source loop since PowerPush lost its block path — must be
**element-wise identical** (``np.array_equal``, not allclose) to an
independent :func:`~repro.core.powerpush.power_push` run with the same
parameters, across graphs/policies/thresholds/configs and
property-based on random graphs via hypothesis; so must every row of
the harness-only ``block_global_sweep`` be to ``global_sweep``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.kernels import block_global_sweep, global_sweep
from repro.core.powerpush import PowerPushConfig, power_push, power_push_block
from repro.core.residues import BlockPushState, PushState
from repro.errors import ConvergenceError, ParameterError
from repro.graph.build import from_edges


def block_rows_equal_states(block, states):
    """Assert every block row equals its single-source state bitwise."""
    for row, state in enumerate(states):
        assert np.array_equal(block.reserve[row], state.reserve), row
        assert np.array_equal(block.residue[row], state.residue), row
        assert block.r_sum[row] == state.r_sum, row


class TestBlockPushState:
    def test_initial_state(self, paper_graph):
        state = BlockPushState(paper_graph, [0, 3], alpha=0.2)
        assert state.residue.shape == (2, paper_graph.num_nodes)
        assert state.residue[0, 0] == 1.0 and state.residue[1, 3] == 1.0
        assert np.array_equal(state.r_sum, np.ones(2))

    def test_rejects_bad_inputs(self, paper_graph):
        with pytest.raises(ParameterError):
            BlockPushState(paper_graph, [0], dead_end_policy="nope")
        with pytest.raises(ParameterError):
            BlockPushState(paper_graph, [])
        from repro.errors import NodeNotFoundError

        with pytest.raises(NodeNotFoundError):
            BlockPushState(paper_graph, [paper_graph.num_nodes])


class TestBlockKernels:
    def test_block_global_sweep_matches_per_source(self, paper_graph):
        sources = [0, 1, 4]
        block = BlockPushState(paper_graph, sources)
        states = [PushState(paper_graph, s) for s in sources]
        for _ in range(3):
            block_global_sweep(block, np.arange(3), count_all_edges=True)
            for state in states:
                global_sweep(state, count_all_edges=True)
        block_rows_equal_states(block, states)
        for row, state in enumerate(states):
            assert block.pushes[row] == state.counters.pushes
            assert block.residue_updates[row] == state.counters.residue_updates

    def test_block_global_sweep_row_subset(self, paper_graph):
        block = BlockPushState(paper_graph, [0, 1, 2])
        state = PushState(paper_graph, 1)
        block_global_sweep(block, np.asarray([1]))
        global_sweep(state, count_all_edges=False)
        assert np.array_equal(block.residue[1], state.residue)
        # Untouched rows keep their initial residue.
        assert block.residue[0, 0] == 1.0 and block.residue[2, 2] == 1.0

    def test_block_global_sweep_dead_ends(self, dead_end_graph):
        for policy in ("redirect-to-source", "uniform-teleport"):
            sources = [0, 1]
            block = BlockPushState(
                dead_end_graph, sources, dead_end_policy=policy
            )
            states = [
                PushState(dead_end_graph, s, dead_end_policy=policy)
                for s in sources
            ]
            for _ in range(2):
                block_global_sweep(block, np.arange(2))
                for state in states:
                    global_sweep(state, count_all_edges=False)
            block_rows_equal_states(block, states)


GRAPH_CASES = [
    ("paper", None),
    ("dead-star", None),
    ("medium", None),
]


class TestPowerPushBlockEquivalence:
    @pytest.mark.parametrize("policy", ["redirect-to-source", "uniform-teleport"])
    @pytest.mark.parametrize("l1", [1e-4, 1e-8])
    def test_paper_graph(self, paper_graph, policy, l1):
        self._assert_equivalent(
            paper_graph, [0, 1, 2, 3, 4], policy=policy, l1=l1
        )

    @pytest.mark.parametrize("policy", ["redirect-to-source", "uniform-teleport"])
    def test_dead_end_graph(self, dead_end_graph, policy):
        self._assert_equivalent(dead_end_graph, [0, 1, 4], policy=policy)

    def test_medium_graph(self, medium_graph):
        self._assert_equivalent(medium_graph, [0, 7, 77, 299], l1=1e-7)

    @pytest.mark.parametrize(
        "config",
        [
            PowerPushConfig(epoch_num=1),
            PowerPushConfig(epoch_num=3, scan_threshold_fraction=0.5),
            PowerPushConfig(scan_threshold_fraction=0.0),
            PowerPushConfig(scan_threshold_fraction=float("inf")),
        ],
        ids=["one-epoch", "mid", "no-queue", "never-scan"],
    )
    def test_config_variants(self, medium_graph, config):
        self._assert_equivalent(
            medium_graph, [3, 14, 15], l1=1e-6, config=config
        )

    def test_duplicate_sources(self, medium_graph):
        results = power_push_block(medium_graph, [9, 9, 9], l1_threshold=1e-6)
        assert np.array_equal(results[0].estimate, results[1].estimate)
        assert np.array_equal(results[0].estimate, results[2].estimate)

    def test_single_source_block(self, medium_graph):
        self._assert_equivalent(medium_graph, [42], l1=1e-6)

    def test_edgeless_graph(self):
        graph = from_edges([], num_nodes=4)
        self._assert_equivalent(graph, [0, 1, 3])

    def test_empty_sources(self, paper_graph):
        assert power_push_block(paper_graph, []) == []

    def test_budget_exceeded_raises_like_per_source(self, medium_graph):
        with pytest.raises(ConvergenceError):
            power_push(medium_graph, 0, l1_threshold=1e-8, max_work_factor=1e-3)
        with pytest.raises(ConvergenceError):
            power_push_block(
                medium_graph, [0, 1], l1_threshold=1e-8, max_work_factor=1e-3
            )

    def test_result_metadata(self, medium_graph):
        results = power_push_block(medium_graph, [5, 6], l1_threshold=1e-6)
        for result, source in zip(results, [5, 6]):
            assert result.method == "PowerPush"
            assert result.source == source
            assert result.r_sum <= 1e-6
            assert result.seconds > 0

    @staticmethod
    def _assert_equivalent(
        graph, sources, *, policy="redirect-to-source", l1=1e-8, config=None
    ):
        block = power_push_block(
            graph,
            sources,
            l1_threshold=l1,
            dead_end_policy=policy,
            config=config,
        )
        for source, row in zip(sources, block):
            single = power_push(
                graph,
                source,
                l1_threshold=l1,
                dead_end_policy=policy,
                config=config,
            )
            assert np.array_equal(single.estimate, row.estimate), source
            assert np.array_equal(single.residue, row.residue), source
            assert (
                single.counters.as_dict() == row.counters.as_dict()
            ), source


# ---------------------------------------------------------------------------
# Property-based equivalence on random graphs
# ---------------------------------------------------------------------------

@st.composite
def random_graph_and_sources(draw):
    num_nodes = draw(st.integers(min_value=2, max_value=24))
    max_edges = min(60, num_nodes * (num_nodes - 1))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_nodes - 1), st.integers(0, num_nodes - 1)
            ),
            min_size=0,
            max_size=max_edges,
        )
    )
    graph = from_edges(edges, num_nodes=num_nodes, name="hypo")
    sources = draw(
        st.lists(
            st.integers(0, num_nodes - 1), min_size=1, max_size=5
        )
    )
    return graph, sources


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    case=random_graph_and_sources(),
    policy=st.sampled_from(["redirect-to-source", "uniform-teleport"]),
    l1=st.sampled_from([1e-3, 1e-5, 1e-8]),
    alpha=st.sampled_from([0.1, 0.2, 0.5]),
)
def test_block_rows_identical_to_independent_solves(case, policy, l1, alpha):
    """power_push_block rows == independent power_push runs, bitwise."""
    graph, sources = case
    block = power_push_block(
        graph,
        sources,
        alpha=alpha,
        l1_threshold=l1,
        dead_end_policy=policy,
    )
    for source, row in zip(sources, block):
        single = power_push(
            graph,
            source,
            alpha=alpha,
            l1_threshold=l1,
            dead_end_policy=policy,
        )
        assert np.array_equal(single.estimate, row.estimate)
        assert np.array_equal(single.residue, row.residue)
        assert single.counters.as_dict() == row.counters.as_dict()
