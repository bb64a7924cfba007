"""DynamicGraph: delta overlay semantics, versioning, journal, compaction."""

from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import (
    GraphConstructionError,
    NodeNotFoundError,
    ParameterError,
)
from repro.generators.rmat import rmat_digraph
from repro.graph.build import (
    empty_graph,
    from_edge_arrays,
    from_edges,
    star_graph,
)
from repro.graph.digraph import DiGraph
from repro.graph.dynamic import (
    DynamicGraph,
    EdgeUpdate,
    _edge_keys,
    _row_positions,
    sample_edge_update,
)
from repro.serving.shm import SharedGraphImage

# Dependency floor: the snapshot merge against np.searchsorted over all edge keys.
pytestmark = pytest.mark.floor


@pytest.fixture
def dyn(paper_graph):
    return DynamicGraph(paper_graph)


class TestOverlaySemantics:
    def test_fresh_overlay_mirrors_base(self, dyn, paper_graph):
        assert dyn.version == 0
        assert dyn.num_nodes == paper_graph.num_nodes
        assert dyn.num_edges == paper_graph.num_edges
        assert dyn.pending_updates == 0
        assert dyn.snapshot() is paper_graph
        for v in range(paper_graph.num_nodes):
            assert dyn.out_degree_of(v) == int(paper_graph.out_degree[v])
            np.testing.assert_array_equal(
                dyn.out_neighbors(v), paper_graph.out_neighbors(v)
            )

    def test_add_edge(self, dyn):
        assert not dyn.has_edge(0, 4)
        version = dyn.add_edge(0, 4)
        assert version == dyn.version == 1
        assert dyn.has_edge(0, 4)
        assert dyn.out_degree_of(0) == 3
        assert dyn.num_edges == 14
        assert dyn.pending_updates == 1
        np.testing.assert_array_equal(dyn.out_neighbors(0), [1, 2, 4])

    def test_remove_edge(self, dyn):
        dyn.remove_edge(1, 3)
        assert not dyn.has_edge(1, 3)
        assert dyn.out_degree_of(1) == 3
        assert dyn.num_edges == 12
        np.testing.assert_array_equal(dyn.out_neighbors(1), [0, 2, 4])

    def test_reinsert_after_delete_cancels(self, dyn):
        dyn.remove_edge(1, 3)
        dyn.add_edge(1, 3)
        assert dyn.has_edge(1, 3)
        assert dyn.num_edges == 13
        assert dyn.pending_updates == 0  # the overlay cancelled out
        assert dyn.version == 2  # but history is monotone

    def test_delete_freshly_inserted_edge(self, dyn):
        dyn.add_edge(0, 4)
        dyn.remove_edge(0, 4)
        assert not dyn.has_edge(0, 4)
        assert dyn.pending_updates == 0
        assert dyn.num_edges == 13

    def test_duplicate_insert_rejected(self, dyn):
        with pytest.raises(GraphConstructionError):
            dyn.add_edge(0, 1)

    def test_missing_delete_rejected(self, dyn):
        with pytest.raises(GraphConstructionError):
            dyn.remove_edge(0, 4)

    def test_self_loop_rejected(self, dyn):
        with pytest.raises(ParameterError):
            dyn.add_edge(2, 2)

    def test_out_of_range_node_rejected(self, dyn):
        with pytest.raises(NodeNotFoundError):
            dyn.add_edge(0, 99)
        with pytest.raises(NodeNotFoundError):
            dyn.out_neighbors(5)

    def test_apply_updates_batch_and_spellings(self, dyn):
        version = dyn.apply_updates(
            [("insert", 0, 4), ("-", 1, 3), ("add", 3, 4), ("remove", 3, 4)]
        )
        assert version == dyn.version == 4
        assert dyn.has_edge(0, 4)
        assert not dyn.has_edge(1, 3)
        assert not dyn.has_edge(3, 4)

    def test_apply_updates_unknown_op(self, dyn):
        with pytest.raises(ParameterError, match="unknown edge-update op"):
            dyn.apply_updates([("toggle", 0, 4)])

    def test_dead_end_detection(self):
        graph = from_edges([(0, 1), (1, 0), (1, 2), (2, 0)])
        dyn = DynamicGraph(graph)
        assert not dyn.has_dead_ends
        dyn.remove_edge(2, 0)
        assert dyn.has_dead_ends
        dyn.add_edge(2, 1)
        assert not dyn.has_dead_ends

    def test_dead_end_detection_on_a_dead_end_heavy_base(self):
        # One-way star: every leaf is a base dead end, the hub is not.
        leaves = 50
        dyn = DynamicGraph(star_graph(leaves, bidirectional=False))

        def agrees():
            assert dyn.has_dead_ends == dyn.snapshot().has_dead_ends
            return dyn.has_dead_ends

        assert agrees()
        for leaf in range(1, leaves + 1):       # resurrect every leaf
            assert agrees()
            dyn.add_edge(leaf, 0)
        assert not agrees()
        dyn.add_edge(7, 8)
        dyn.remove_edge(7, 0)                   # still has (7, 8)
        assert not agrees()
        dyn.remove_edge(7, 8)                   # re-kill a resurrected leaf
        assert agrees()
        dyn.add_edge(7, 0)
        assert not agrees()
        dyn.compact()
        assert not agrees()
        for leaf in range(1, leaves):           # hub keeps one edge ...
            dyn.remove_edge(0, leaf)
        assert not agrees()
        dyn.remove_edge(0, leaves)              # ... then loses its last
        assert agrees()


class TestJournal:
    def test_journal_records_old_degree(self, dyn):
        dyn.add_edge(0, 4)       # degree of 0 was 2
        dyn.remove_edge(0, 1)    # degree of 0 was 3
        updates = dyn.updates_since(0)
        assert updates == [
            EdgeUpdate(1, "+", 0, 4, 2),
            EdgeUpdate(2, "-", 0, 1, 3),
        ]
        assert dyn.updates_since(1) == [EdgeUpdate(2, "-", 0, 1, 3)]
        assert dyn.updates_since(2) == []

    def test_updates_since_bad_version(self, dyn):
        with pytest.raises(ParameterError):
            dyn.updates_since(5)
        with pytest.raises(ParameterError):
            dyn.updates_since(-1)

    def test_journal_survives_compaction(self, dyn):
        dyn.add_edge(0, 4)
        dyn.compact()
        assert dyn.updates_since(0) == [EdgeUpdate(1, "+", 0, 4, 2)]

    def test_trim_journal(self, dyn):
        dyn.add_edge(0, 4)
        dyn.remove_edge(0, 1)
        dyn.add_edge(2, 0)
        assert dyn.trim_journal(2) == 2
        assert dyn.journal_floor == 2
        assert dyn.updates_since(2) == [EdgeUpdate(3, "+", 2, 0, 2)]
        with pytest.raises(ParameterError, match="trimmed"):
            dyn.updates_since(1)
        # Idempotent, and versions ahead of the graph are clamped.
        assert dyn.trim_journal(2) == 0
        assert dyn.trim_journal(99) == 1
        assert dyn.journal_floor == 3
        assert dyn.updates_since(3) == []


class TestSnapshotAndCompact:
    def test_snapshot_matches_rebuilt_graph(self, dyn, paper_graph):
        dyn.apply_updates([("+", 0, 4), ("-", 1, 3), ("+", 2, 0)])
        expected_edges = [
            (u, int(v))
            for u in range(paper_graph.num_nodes)
            for v in dyn.out_neighbors(u)
        ]
        expected = from_edges(
            expected_edges, num_nodes=paper_graph.num_nodes
        )
        snap = dyn.snapshot()
        assert snap == expected
        assert snap.num_edges == dyn.num_edges

    def test_snapshot_cached_per_version(self, dyn):
        dyn.add_edge(0, 4)
        first = dyn.snapshot()
        assert dyn.snapshot() is first
        dyn.add_edge(2, 0)
        assert dyn.snapshot() is not first

    def test_compact_preserves_logical_graph(self, dyn):
        dyn.apply_updates([("+", 0, 4), ("-", 1, 3)])
        version = dyn.version
        snap_before = dyn.snapshot()
        compacted = dyn.compact()
        assert compacted == snap_before
        assert dyn.base is compacted
        assert dyn.pending_updates == 0
        assert dyn.version == version  # compaction is representational
        assert dyn.num_edges == compacted.num_edges

    def test_mutations_resume_after_compact(self, dyn):
        dyn.add_edge(0, 4)
        dyn.compact()
        dyn.remove_edge(0, 4)
        assert not dyn.has_edge(0, 4)
        assert dyn.version == 2


def oracle(edges: Counter, num_nodes: int) -> DiGraph:
    """The CSR of a plain edge multiset, built without DynamicGraph."""
    pairs = sorted(edges.elements())
    return from_edge_arrays(
        [u for u, _ in pairs],
        [v for _, v in pairs],
        num_nodes=num_nodes,
        dedup=False,
        drop_self_loops=False,
    )


def assert_snapshot_is_rebuild(dyn: DynamicGraph, edges: Counter) -> None:
    snap = dyn.snapshot()
    expected = oracle(edges, dyn.num_nodes)
    for name in ("out_indptr", "out_indices"):
        got, want = getattr(snap, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
        assert not got.flags.writeable, name
    assert snap.name == dyn.name
    assert snap.undirected_origin == dyn.base.undirected_origin
    if dyn.pending_updates:
        assert not np.shares_memory(snap.out_indices, dyn.base.out_indices)
        assert not np.shares_memory(snap.out_indptr, dyn.base.out_indptr)
    assert dyn.num_edges == sum(edges.values())
    assert dyn.has_dead_ends == expected.has_dead_ends


def replay_and_check(base: DiGraph, steps) -> None:
    """Apply ``steps`` — ``"compact"`` or an edge ``(u, v)`` to toggle —
    and compare the snapshot with the oracle after every one."""
    dyn = DynamicGraph(base)
    edges = Counter(base.iter_edges())
    if base.has_canonical_order:  # an empty overlay returns the base as is
        assert_snapshot_is_rebuild(dyn, edges)
    for step in steps:
        if step == "compact":
            assert dyn.compact() is dyn.base
        elif edges[step]:
            dyn.remove_edge(*step)
            del edges[step]
        else:
            dyn.add_edge(*step)
            edges[step] = 1
        assert_snapshot_is_rebuild(dyn, edges)


@st.composite
def overlay_scripts(draw):
    n = draw(st.integers(2, 7))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]
    )
    base_edges = draw(st.lists(edge, unique=True, max_size=14))
    steps = draw(st.lists(st.one_of(st.just("compact"), edge), max_size=24))
    return n, base_edges, steps


#: a 6-node base used by the seeded corners: node 3 has out-degree 0
#: and node 0's row has a gap (1, _, _, 4) several inserts can land in.
CORNER_EDGES = [(0, 1), (0, 4), (1, 0), (2, 5), (4, 2), (5, 0), (5, 4)]

CORNERS = {
    "insert at node 0 and n-1": [(0, 2), (5, 1), (0, 5), (5, 3)],
    "insert into an out-degree-0 node": [(3, 0), (3, 5), "compact", (3, 2)],
    "delete a node's last out-edge": [(2, 5), (1, 0), "compact", (4, 2)],
    "delete then reinsert": [(0, 4), (0, 4), (5, 4), "compact", (5, 4)],
    "insert then delete": [(0, 3), (0, 3), (3, 1), (3, 1)],
    "inserts between the same two neighbours": [(0, 3), (0, 2), (1, 2)],
    "mixed, same row": [(0, 1), (0, 2), (0, 4), (0, 5), (0, 3)],
}


class TestSnapshotIsRebuild:
    """``snapshot()`` is byte-for-byte the builder's CSR of the edge set."""

    @given(overlay_scripts())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_scripts(self, script):
        n, base_edges, steps = script
        replay_and_check(from_edges(base_edges, num_nodes=n), steps)

    @pytest.mark.parametrize("corner", sorted(CORNERS))
    def test_corners(self, corner):
        base = from_edges(CORNER_EDGES, num_nodes=6, name="corner")
        assert base.has_canonical_order
        replay_and_check(base, CORNERS[corner])

    def test_empty_base(self):
        replay_and_check(
            empty_graph(4), [(0, 3), (3, 0), (1, 2), (0, 3), "compact", (2, 1)]
        )

    def test_undirected_origin_and_name_carry_over(self):
        base = from_edges(
            [(0, 1), (1, 0)], num_nodes=3, name="sym", undirected_origin=True
        )
        replay_and_check(base, [(1, 2), (2, 1)])

    @pytest.mark.parametrize(
        "indices", [pytest.param([2, 1, 3, 0, 1], id="unsorted row")]
    )
    def test_non_canonical_base_falls_back_and_still_matches(self, indices):
        # Hand-assembled: rows 0 -> indices[:3], 1 -> [3:4], 2 -> [4:5].
        base = DiGraph(np.array([0, 3, 4, 5, 5]), np.array(indices))
        assert not base.has_canonical_order
        # The first snapshot sorts everything, so the compacted base is
        # canonical.
        replay_and_check(base, [(3, 0), (1, 0), "compact", (0, 3), (3, 1)])

    @pytest.mark.parametrize(
        "base",
        [
            pytest.param(
                DiGraph(np.array([0, 3, 4, 5, 5]), np.array([1, 1, 2, 0, 1])),
                id="hand-assembled",
            ),
            pytest.param(
                from_edges([(0, 1), (0, 1), (0, 2), (1, 2), (2, 0)], dedup=False),
                id="builder without dedup",
            ),
        ],
    )
    def test_parallel_edge_base_is_refused(self, base):
        # The overlay counts an edge once, so a base holding one twice
        # would report other counts than its snapshot: refused at
        # construction, as inserting a parallel edge is.
        with pytest.raises(GraphConstructionError, match=r"\(0, 1\) more than once"):
            DynamicGraph(base)

    def test_canonical_order_scan(self):
        def scanned(indptr, indices):
            return DiGraph(
                np.array(indptr), np.array(indices, dtype=np.int32)
            ).has_canonical_order

        assert scanned([0], [])
        assert scanned([0, 0, 0], [])
        assert scanned([0, 1, 1], [1])
        assert scanned([0, 2, 2, 4], [1, 2, 0, 1])      # steps down across rows
        assert scanned([0, 0, 2, 2, 3], [2, 3, 2])      # empty rows between
        assert not scanned([0, 2, 2, 4], [2, 1, 0, 1])
        assert not scanned([0, 2, 2, 4], [1, 2, 0, 0])
        assert not scanned([0, 3], [0, 0, 0])


#: seeded corners of the per-row binary search on ``CORNER_EDGES``:
#: rows 0 = (1, 4), 1 = (0), 2 = (5), 3 = (), 4 = (2), 5 = (0, 4).
ROW_POSITION_CORNERS = {
    "insert at a row's first position": [(4, 0), (2, 1), (4, 1), (1, 2)],
    "insert at a row's last position": [(0, 5), (1, 5), (4, 5), (5, 3)],
    "insert into an empty row": [(3, 4), (0, 1), (3, 0), (3, 5)],
    "delete then reinsert the same edge": [(0, 1), (0, 1), (5, 4), (5, 4), (5, 0)],
    "delete and insert at one position": [(0, 4), (0, 3), (0, 1), (0, 2)],
}


class TestRowPositions:
    """The merge finds each overlay edge by a binary search of its row."""

    @pytest.mark.parametrize("corner", sorted(ROW_POSITION_CORNERS))
    def test_corners(self, corner):
        base = from_edges(CORNER_EDGES, num_nodes=6, name="corner")
        replay_and_check(base, ROW_POSITION_CORNERS[corner])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_a_search_of_all_edge_keys(self, seed):
        rng = np.random.default_rng(seed)
        base = rmat_digraph(9, 4000, rng=rng)
        n = base.num_nodes
        sources = rng.integers(0, n, 500)
        targets = rng.integers(0, n, 500)
        # Every row's first and last neighbour, and every empty row.
        first, last = base.out_indptr[:-1], base.out_indptr[1:] - 1
        rows = np.flatnonzero(base.out_degree)
        sources = np.concatenate([sources, rows, rows, np.arange(n)])
        targets = np.concatenate(
            [targets, base.out_indices[first[rows]], base.out_indices[last[rows]],
             np.zeros(n, dtype=np.int64)]
        )
        want = np.searchsorted(_edge_keys(base), sources * n + targets)
        got = _row_positions(base.out_indptr, base.out_indices, sources, targets)
        np.testing.assert_array_equal(got, want)


class TestSnapshotCost:
    """Exact-count gates: which path ran, not how long it took."""

    @pytest.fixture
    def no_sort(self, monkeypatch):
        """A context in which any ``np.sort`` call (the builder's sort
        over all ``m`` edge keys) fails the test."""

        def refuse(*args, **kwargs):
            raise AssertionError("np.sort called")

        @contextmanager
        def guard():
            with monkeypatch.context() as patch:
                patch.setattr(np, "sort", refuse)
                yield

        return guard

    def test_canonical_base_never_sorts(self, paper_graph, no_sort):
        dyn = DynamicGraph(paper_graph)
        dyn.apply_updates([("+", 0, 4), ("-", 1, 3), ("+", 4, 0)])
        with no_sort():
            assert dyn.snapshot().num_edges == 14
            compacted = dyn.compact()
            dyn.remove_edge(4, 0)
            assert dyn.snapshot().num_edges == 13
        assert compacted.has_canonical_order  # recorded by the merge

    def test_unsorted_base_sorts(self, no_sort):
        dyn = DynamicGraph(DiGraph(np.array([0, 2, 3, 3]), np.array([2, 1, 0])))
        dyn.add_edge(2, 0)
        with no_sort(), pytest.raises(AssertionError, match="np.sort"):
            dyn.snapshot()

    def test_shared_memory_base_merges_into_private_arrays(self, no_sort):
        rng = np.random.default_rng(3)
        base = rmat_digraph(7, 600, rng=rng, name="shm-merge")
        edges = Counter(base.iter_edges())
        with SharedGraphImage.export_graph(base) as image:
            attached = SharedGraphImage.attach(image.handle)
            dyn = DynamicGraph(attached.graph())
            assert not dyn.base.out_indices.flags.owndata
            for _ in range(20):
                op, u, v = sample_edge_update(dyn, rng)
                dyn.apply_updates([(op, u, v)])
                edges[(u, v)] += 1 if op == "+" else -1
            with no_sort():
                snap = dyn.snapshot()
            assert snap.out_indices.flags.owndata
            assert snap.out_indptr.flags.owndata
            del dyn  # drop the views that pin the mapping
            attached.close()
        expected = oracle(+edges, base.num_nodes)
        assert snap.out_indptr.tobytes() == expected.out_indptr.tobytes()
        assert snap.out_indices.tobytes() == expected.out_indices.tobytes()


class TestSampleEdgeUpdate:
    def test_sampled_updates_always_apply(self):
        rng = np.random.default_rng(5)
        graph = rmat_digraph(8, 1200, rng=rng, name="sample-test")
        dyn = DynamicGraph(graph)
        for _ in range(300):
            op, u, v = sample_edge_update(dyn, rng)
            assert op in ("+", "-")
            dyn.apply_updates([(op, u, v)])
        assert dyn.version == 300
        # The sampling rules keep the evolving graph dead-end-free.
        assert not dyn.has_dead_ends
        assert not dyn.snapshot().has_dead_ends

    def test_tiny_graph_rejected(self):
        dyn = DynamicGraph(from_edges([(0, 1), (1, 0)]))
        with pytest.raises(ParameterError):
            sample_edge_update(dyn, np.random.default_rng(0))
