"""Unit tests for the graph builders."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.build import (
    complete_graph,
    cycle_graph,
    empty_graph,
    first_occurrences,
    from_adjacency,
    from_edge_arrays,
    from_edges,
    paper_example_graph,
    star_graph,
)
from repro.graph.digraph import DiGraph

# Dependency floor: the one-key CSR sort and first_occurrences against np.lexsort and
# np.unique.
pytestmark = pytest.mark.floor


def reference_from_edge_arrays(
    sources,
    targets,
    *,
    num_nodes=None,
    name="",
    dedup=True,
    drop_self_loops=True,
    undirected_origin=False,
):
    """The CSR builder as a two-key ``np.lexsort`` of the endpoint arrays
    plus two gathers: the one-key sort of :func:`from_edge_arrays` must
    return exactly its arrays.  Inputs are assumed valid."""
    sources = np.asarray(sources, dtype=np.int64).ravel()
    targets = np.asarray(targets, dtype=np.int64).ravel()
    if num_nodes is None:
        num_nodes = int(max(sources.max(initial=-1), targets.max(initial=-1)) + 1)
    if drop_self_loops:
        keep = sources != targets
        sources, targets = sources[keep], targets[keep]
    order = np.lexsort((targets, sources))
    sources, targets = sources[order], targets[order]
    if dedup and sources.shape[0]:
        keep = np.empty(sources.shape[0], dtype=bool)
        keep[0] = True
        np.logical_or(
            sources[1:] != sources[:-1], targets[1:] != targets[:-1], out=keep[1:]
        )
        sources, targets = sources[keep], targets[keep]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=num_nodes), out=indptr[1:])
    graph = DiGraph(
        indptr,
        targets.astype(np.int32),
        name=name,
        undirected_origin=undirected_origin,
        validate=False,
    )
    if dedup:
        graph._canonical_order = True
    return graph


def reference_first_occurrences(keys):
    """First-occurrence positions by ``np.unique(return_index=True)``
    (a stable sort), put back in ascending order."""
    _, first = np.unique(keys, return_index=True)
    first.sort()
    return first


def assert_same_csr(got: DiGraph, want: DiGraph) -> None:
    for name in ("out_indptr", "out_indices"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.num_nodes == want.num_nodes
    assert got.has_canonical_order == want.has_canonical_order


class TestFromEdges:
    def test_simple(self):
        graph = from_edges([(0, 1), (1, 2), (2, 0)])
        assert graph.num_nodes == 3
        assert graph.num_edges == 3

    def test_empty_input(self):
        graph = from_edges([])
        assert graph.num_nodes == 0
        assert graph.num_edges == 0

    def test_empty_with_num_nodes(self):
        graph = from_edges([], num_nodes=7)
        assert graph.num_nodes == 7
        assert graph.num_edges == 0

    def test_dedup_removes_parallel_edges(self):
        graph = from_edges([(0, 1), (0, 1), (0, 1), (1, 0)])
        assert graph.num_edges == 2

    def test_dedup_disabled_keeps_parallel_edges(self):
        graph = from_edges([(0, 1), (0, 1), (1, 0)], dedup=False)
        assert graph.num_edges == 3

    def test_self_loops_dropped_by_default(self):
        graph = from_edges([(0, 0), (0, 1), (1, 0)])
        assert graph.num_edges == 2
        assert not graph.has_edge(0, 0)

    def test_self_loops_kept_on_request(self):
        graph = from_edges([(0, 0), (0, 1), (1, 0)], drop_self_loops=False)
        assert graph.num_edges == 3
        assert graph.has_edge(0, 0)

    def test_num_nodes_expands_graph(self):
        graph = from_edges([(0, 1), (1, 0)], num_nodes=10)
        assert graph.num_nodes == 10
        assert graph.out_degree[9] == 0

    def test_rejects_endpoint_beyond_num_nodes(self):
        with pytest.raises(GraphFormatError):
            from_edges([(0, 5)], num_nodes=3)

    def test_rejects_negative_ids(self):
        with pytest.raises(GraphFormatError):
            from_edges([(-1, 0)])

    def test_rejects_malformed_tuples(self):
        with pytest.raises(GraphFormatError):
            from_edges([(0, 1, 2)])  # type: ignore[list-item]

    def test_adjacency_lists_sorted(self):
        graph = from_edges([(0, 3), (0, 1), (0, 2)])
        assert graph.out_neighbors(0).tolist() == [1, 2, 3]


class TestFromEdgeArrays:
    def test_matches_from_edges(self):
        edges = [(0, 2), (2, 1), (1, 0), (0, 1)]
        a = from_edges(edges)
        b = from_edge_arrays(
            np.array([e[0] for e in edges]),
            np.array([e[1] for e in edges]),
        )
        assert a == b

    def test_rejects_length_mismatch(self):
        with pytest.raises(GraphFormatError):
            from_edge_arrays(np.array([0, 1]), np.array([1]))


def random_edges(seed: int, num_nodes: int, num_edges: int):
    """Edge arrays dense enough to hold parallel edges and self-loops."""
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, num_nodes, num_edges),
        rng.integers(0, num_nodes, num_edges),
    )


class TestKeySortMatchesLexsort:
    """``from_edge_arrays`` sorts one ``u * n + v`` key; the arrays are
    byte for byte those of the lexsort it replaced."""

    @pytest.mark.parametrize("dedup", [True, False])
    @pytest.mark.parametrize("drop_self_loops", [True, False])
    @pytest.mark.parametrize(
        "seed, num_nodes, num_edges",
        [(0, 1, 6), (1, 2, 9), (2, 7, 60), (3, 40, 900), (4, 3000, 20000)],
    )
    def test_random_arrays(self, seed, num_nodes, num_edges, dedup, drop_self_loops):
        sources, targets = random_edges(seed, num_nodes, num_edges)
        assert np.any(sources == targets)
        options = dict(num_nodes=num_nodes, dedup=dedup, drop_self_loops=drop_self_loops)
        assert_same_csr(
            from_edge_arrays(sources, targets, **options),
            reference_from_edge_arrays(sources, targets, **options),
        )

    @pytest.mark.parametrize("dedup", [True, False])
    @pytest.mark.parametrize("num_nodes", [None, 0, 1, 5])
    def test_empty_input(self, num_nodes, dedup):
        empty = np.empty(0, dtype=np.int64)
        assert_same_csr(
            from_edge_arrays(empty, empty, num_nodes=num_nodes, dedup=dedup),
            reference_from_edge_arrays(empty, empty, num_nodes=num_nodes, dedup=dedup),
        )

    @pytest.mark.parametrize("drop_self_loops", [True, False])
    def test_one_node(self, drop_self_loops):
        loops = np.zeros(3, dtype=np.int64)
        for dedup in (True, False):
            options = dict(dedup=dedup, drop_self_loops=drop_self_loops)
            assert_same_csr(
                from_edge_arrays(loops, loops, **options),
                reference_from_edge_arrays(loops, loops, **options),
            )

    def test_inferred_num_nodes(self):
        sources, targets = random_edges(5, 30, 200)
        assert_same_csr(
            from_edge_arrays(sources, targets),
            reference_from_edge_arrays(sources, targets),
        )


class TestFirstOccurrences:
    @pytest.mark.parametrize(
        "keys",
        [
            pytest.param([], id="empty"),
            pytest.param([7], id="one"),
            pytest.param([3, 3, 3, 3], id="all equal"),
            pytest.param([5, 1, 5, 2, 1, 9, 2], id="repeats"),
            pytest.param([2**62, -(2**62), 2**62, 0, -(2**62)], id="int64 extremes"),
        ],
    )
    def test_corners(self, keys):
        keys = np.array(keys, dtype=np.int64)
        assert first_occurrences(keys).tolist() == reference_first_occurrences(keys).tolist()

    @pytest.mark.parametrize("seed, size, distinct", [(0, 1000, 10), (1, 50000, 40000)])
    def test_random(self, seed, size, distinct):
        keys = np.random.default_rng(seed).integers(0, distinct, size) * 2**40
        got = first_occurrences(keys)
        np.testing.assert_array_equal(got, reference_first_occurrences(keys))
        # Each kept key is new at its position; the kept keys are all keys.
        assert np.unique(keys[got]).shape[0] == got.shape[0]
        assert set(keys[got].tolist()) == set(keys.tolist())


class TestFromAdjacency:
    def test_basic(self):
        graph = from_adjacency({0: [1, 2], 1: [0], 2: []})
        assert graph.num_nodes == 3
        assert graph.num_edges == 3
        assert graph.out_neighbors(0).tolist() == [1, 2]

    def test_isolated_trailing_node(self):
        graph = from_adjacency({0: [1], 1: [], 5: []})
        assert graph.num_nodes == 6


class TestCanonicalGraphs:
    def test_empty_graph(self):
        graph = empty_graph(4)
        assert graph.num_nodes == 4
        assert graph.num_edges == 0
        assert graph.dead_ends.tolist() == [0, 1, 2, 3]

    def test_complete_graph(self):
        graph = complete_graph(4)
        assert graph.num_nodes == 4
        assert graph.num_edges == 12
        assert not graph.has_edge(1, 1)

    def test_complete_graph_degenerate(self):
        assert complete_graph(1).num_edges == 0
        assert complete_graph(0).num_nodes == 0

    def test_cycle_graph(self):
        graph = cycle_graph(5)
        assert graph.num_edges == 5
        assert graph.has_edge(4, 0)
        assert graph.out_degree.tolist() == [1] * 5

    def test_cycle_graph_single_node(self):
        graph = cycle_graph(1)
        # single node with a self-loop retained (cycle onto itself)
        assert graph.num_nodes == 1
        assert graph.num_edges == 1

    def test_star_bidirectional(self):
        graph = star_graph(3)
        assert graph.num_nodes == 4
        assert graph.num_edges == 6
        assert not graph.has_dead_ends

    def test_star_out_only_has_dead_ends(self):
        graph = star_graph(3, bidirectional=False)
        assert graph.num_edges == 3
        assert graph.dead_ends.tolist() == [1, 2, 3]


class TestPaperExampleGraph:
    def test_shape(self):
        graph = paper_example_graph()
        assert graph.num_nodes == 5
        assert graph.num_edges == 13

    def test_edges_match_figure1(self):
        graph = paper_example_graph()
        expected = {
            0: [1, 2],
            1: [0, 2, 3, 4],
            2: [1, 3],
            3: [0, 1, 2],
            4: [1, 2],
        }
        for node, neighbors in expected.items():
            assert graph.out_neighbors(node).tolist() == neighbors
