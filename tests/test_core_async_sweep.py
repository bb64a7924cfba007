"""The chunked asynchronous sweep (``async_sweep``).

What must hold whatever the chunk boundaries are: one sweep conserves
``sum(reserve) + sum(residue)``, keeps the push invariant (checked
against ``exact_ppr_dense``) and bills what it pushed.  The graphs are
picked for where the chunk plan is awkward: fewer nodes than chunks, a
hub heavier than one chunk's edge share, chunks without a single edge.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.kernels import (
    async_propagate,
    async_sweep,
    frontier_push,
    sweep_active,
)
from repro.core.residues import PushState
from repro.core.workspace import Workspace
from repro.errors import ParameterError
from repro.graph.build import cycle_graph, from_edges, star_graph
from repro.graph.digraph import SWEEP_CHUNKS
from repro.graph.dynamic import DynamicGraph
from repro.graph.transforms import apply_dead_end_rule
from repro.metrics.ground_truth import exact_ppr_dense
from repro.serving.shm import SharedGraphImage

ALPHA = 0.2
POLICIES = ("redirect-to-source", "uniform-teleport", "self-loop")


def chain_graph(n: int):
    """0 -> 1 -> ... -> n-1, the last node a dead end."""
    return from_edges([(v, v + 1) for v in range(n - 1)], num_nodes=n)


CORNER_GRAPHS = {
    "self-loops": from_edges(
        [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2)],
        drop_self_loops=False,
    ),
    "star-out": star_graph(20, bidirectional=False),
    "star-both": star_graph(40),
    "chain": chain_graph(30),
    "three-nodes": cycle_graph(3),
    "one-node-loop": from_edges([(0, 0)], drop_self_loops=False),
    "parallel-edges": from_edges(
        [(0, 1), (0, 1), (1, 0), (1, 2), (2, 0)], dedup=False
    ),
}


def prepared(graph, policy):
    """The graph a solver would see under ``policy`` (self-loop is structural)."""
    if policy == "self-loop":
        return apply_dead_end_rule(graph, "self-loop")
    return graph


def invariant_gap(state: PushState) -> float:
    """``|| reserve + (what the residues still owe) - pi_s ||_1``.

    The push invariant says the residues, pushed to the end, add exactly
    the missing mass: with ``M = I - (1 - alpha) P^T`` (dead-end rows of
    ``P`` patched per policy), ``pi_s = reserve + alpha * M^-1 residue``.
    """
    graph, source, alpha = state.graph, state.source, state.alpha
    n = graph.num_nodes
    transition = np.zeros((n, n))
    for v in range(n):
        neighbors = graph.out_neighbors(v)
        if neighbors.shape[0]:
            np.add.at(transition[v], neighbors, 1.0 / neighbors.shape[0])
        elif state.dead_end_policy == "redirect-to-source":
            transition[v, source] = 1.0
        else:
            transition[v, :] = 1.0 / n
    owed = np.linalg.solve(
        np.eye(n) - (1.0 - alpha) * transition.T, alpha * state.residue
    )
    oracle_policy = (
        "redirect-to-source"
        if state.dead_end_policy == "self-loop"
        else state.dead_end_policy
    )
    exact = exact_ppr_dense(
        graph, source, alpha=alpha, dead_end_policy=oracle_policy
    )
    return float(np.abs(state.reserve + owed - exact).sum())


def check_one_sweep(graph, source, policy, warmup_pushes):
    graph = prepared(graph, policy)
    state = PushState(graph, source, ALPHA, dead_end_policy=policy)
    for _ in range(warmup_pushes):
        frontier_push(state, np.flatnonzero(state.residue > 0.0))
    holders = state.residue > 0.0
    before = state.counters.as_dict()
    async_sweep(state)
    state.check_invariants(atol=1e-12)
    assert state.r_sum == float(state.residue.sum())
    assert invariant_gap(state) < 1e-12
    # Nodes reached during the sweep push too, so at least the holders
    # at entry were billed, and never more than every node and edge.
    pushes = state.counters.pushes - before["pushes"]
    updates = state.counters.residue_updates - before["residue_updates"]
    assert int(holders.sum()) <= pushes <= graph.num_nodes
    assert int(graph.out_degree[holders].sum()) <= updates <= graph.num_edges


class TestOneSweep:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("name", sorted(CORNER_GRAPHS))
    def test_corner_graphs(self, name, policy):
        graph = CORNER_GRAPHS[name]
        for source in (0, graph.num_nodes - 1):
            for warmup in (0, 2):
                check_one_sweep(graph, source, policy, warmup)

    def test_plan_shapes_of_the_corner_graphs(self):
        """The corners are corners: empty chunks, edgeless chunks, a fat hub."""
        small = CORNER_GRAPHS["three-nodes"].sweep_plan()
        assert small.bounds[0] == 0 and small.bounds[-1] == 3
        assert sum(lo == hi for lo, hi in zip(small.bounds, small.bounds[1:])) >= 5

        star = CORNER_GRAPHS["star-out"]
        plan = star.sweep_plan()
        edgeless = [
            c
            for c in range(SWEEP_CHUNKS)
            if plan.bounds[c] < plan.bounds[c + 1]
            and plan.edge_bounds[c] == plan.edge_bounds[c + 1]
        ]
        assert edgeless, "the leaves should form a chunk with nodes but no edge"

        hub = CORNER_GRAPHS["star-both"]
        share = hub.num_edges / SWEEP_CHUNKS
        assert hub.out_degree[0] > share
        widths = np.diff(hub.sweep_plan().edge_bounds)
        assert widths.max() >= hub.out_degree[0]
        assert widths.sum() == hub.num_edges

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n=st.integers(1, 12),
        edge_seed=st.integers(0, 2**32 - 1),
        density=st.floats(0.0, 3.0),
        policy=st.sampled_from(POLICIES),
        warmup=st.integers(0, 3),
    )
    def test_random_graphs(self, n, edge_seed, density, policy, warmup):
        rng = np.random.default_rng(edge_seed)
        count = int(density * n)
        edges = list(
            zip(rng.integers(0, n, count).tolist(), rng.integers(0, n, count).tolist())
        )
        graph = from_edges(
            edges, num_nodes=n, dedup=False, drop_self_loops=False
        )
        check_one_sweep(graph, int(rng.integers(0, n)), policy, warmup)

    def test_later_chunks_push_mass_that_arrived_in_this_sweep(self):
        """What "asynchronous" buys: mass that crosses a chunk boundary is
        pushed again in the same sweep."""
        graph = chain_graph(64)
        boundary = graph.sweep_plan().bounds[1]
        assert 0 < boundary < 63
        state = PushState(graph, boundary - 1, ALPHA)
        async_sweep(state)
        # Synchronously only the source would have settled anything.
        settled = np.flatnonzero(state.reserve > 0.0)
        assert settled.tolist() == [boundary - 1, boundary]
        assert state.counters.pushes == 2

    def test_sweep_active_takes_the_async_path_when_dense(self, medium_graph):
        a = PushState(medium_graph, 0, ALPHA)
        b = PushState(medium_graph, 0, ALPHA)
        for state in (a, b):
            state.residue[:] = 1.0 / medium_graph.num_nodes
        assert sweep_active(a, 1e-9) == medium_graph.num_nodes
        async_sweep(b)
        assert np.array_equal(a.residue, b.residue)
        assert np.array_equal(a.reserve, b.reserve)
        assert a.counters.as_dict() == b.counters.as_dict()

    def test_workspace_allocations_stay_flat(self, medium_graph):
        state = PushState(medium_graph, 0, ALPHA)
        workspace = Workspace()
        async_sweep(state, workspace=workspace)
        first = workspace.allocations
        for _ in range(5):
            async_sweep(state, workspace=workspace)
        assert workspace.allocations == first


class TestSignedAndThresholded:
    """``async_propagate`` as IncrementalPPR uses it: on signed residues."""

    def _invariant_holds(self, graph, start, reserve, residue):
        n = graph.num_nodes
        transition = np.zeros((n, n))
        for v in range(n):
            neighbors = graph.out_neighbors(v)
            np.add.at(transition[v], neighbors, 1.0 / neighbors.shape[0])
        lhs = (np.eye(n) - (1.0 - ALPHA) * transition.T) @ reserve
        return np.abs(lhs - ALPHA * (start - residue)).sum() < 1e-12

    def test_negative_residues_keep_the_linear_invariant(self, medium_graph):
        graph = apply_dead_end_rule(medium_graph, "self-loop")
        rng = np.random.default_rng(5)
        start = rng.normal(size=graph.num_nodes)
        residue, reserve = start.copy(), np.zeros(graph.num_nodes)
        pushed = np.empty_like(residue)
        for _ in range(2):
            async_propagate(graph, residue, pushed, ALPHA)
            reserve += ALPHA * pushed
            assert self._invariant_holds(graph, start, reserve, residue)
        assert (pushed < 0.0).any() and (pushed > 0.0).any()

    def test_rejects_non_contiguous_arrays(self, medium_graph):
        n = medium_graph.num_nodes
        strided = np.zeros((n, 2))[:, 0]
        with pytest.raises(ParameterError, match="contiguous"):
            async_propagate(medium_graph, strided, np.empty(n), ALPHA)


class TestGraphsThatDidNotComeFromABuilder:
    """Read-only shared-memory views and merged snapshots sweep the same."""

    def _sweeps(self, graph, source=3, sweeps=4):
        state = PushState(graph, source, ALPHA)
        for _ in range(sweeps):
            async_sweep(state)
        return state

    def test_shm_attached_graph(self, medium_graph):
        expected = self._sweeps(medium_graph)
        with SharedGraphImage.export_graph(medium_graph) as image:
            attached = SharedGraphImage.attach(image.handle)
            try:
                graph = attached.graph()
                assert not graph.out_indices.flags.writeable
                got = self._sweeps(graph)
                assert np.array_equal(got.residue, expected.residue)
                assert np.array_equal(got.reserve, expected.reserve)
                del graph, got
            finally:
                attached.close()

    def test_fresh_dynamic_snapshot(self, medium_graph):
        dynamic = DynamicGraph(medium_graph)
        # One insert and one delete, then the merged (never warmed) CSR.
        u = int(np.argmax(medium_graph.out_degree))
        gone = int(medium_graph.out_neighbors(u)[0])
        new = next(
            v for v in range(medium_graph.num_nodes)
            if v != u and not medium_graph.has_edge(u, v)
        )
        dynamic.apply_updates([("+", u, new), ("-", u, gone)])
        snapshot = dynamic.snapshot()
        rebuilt = from_edges(list(snapshot.iter_edges()), num_nodes=snapshot.num_nodes)
        got, expected = self._sweeps(snapshot), self._sweeps(rebuilt)
        assert np.array_equal(got.residue, expected.residue)
        assert np.array_equal(got.reserve, expected.reserve)
        assert snapshot.sweep_plan() is snapshot.sweep_plan()
        assert snapshot.sweep_plan() is not medium_graph.sweep_plan()
