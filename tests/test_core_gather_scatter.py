"""``gather_ranges`` + ``scatter_add``: the compiled pair under every local push.

What must hold: the pair does what a plain Python loop over the ranges
does, for every shape of input the callers produce (whole adjacency
lists, prefixes, empty ranges anywhere, duplicate targets, read-only and
shared-memory index arrays, either index dtype), through a workspace or
without one; ``frontier_push`` built on it is a *simultaneous* push —
equal to scalar pushes made on the residues at entry — under every
dead-end policy and across self-loops, and requests no buffer sized by
the graph; the int32 limit raises a typed error; and the
two private scipy entry points behave as the kernels assume at exactly
the dtypes they are called with.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_core_async_sweep import CORNER_GRAPHS, POLICIES, prepared

from repro.core import kernels
from repro.core.kernels import (
    frontier_propagate,
    frontier_push,
    gather_ranges,
    scatter_add,
)
from repro.core.residues import PushState
from repro.core.workspace import Workspace
from repro.errors import GraphConstructionError, ParameterError
from repro.generators.rmat import rmat_digraph
from repro.graph.build import from_edges, star_graph
from repro.serving.shm import SharedGraphImage

ALPHA = 0.2


# ----------------------------------------------------------------------
# The plain loops the pair must agree with
# ----------------------------------------------------------------------
def loop_gather(indices, starts, counts):
    pointers, gathered = [0], []
    for start, count in zip(starts.tolist(), counts.tolist()):
        gathered.extend(indices[start : start + count].tolist())
        pointers.append(len(gathered))
    return pointers, gathered


def loop_scatter(out, pointers, targets, values):
    out = out.copy()
    for j, value in enumerate(values.tolist()):
        for t in targets[pointers[j] : pointers[j + 1]]:
            out[t] += value
    return out


def check_pair(indices, starts, counts, size, workspace=None):
    """Gather then scatter, each against its loop; returns the pointers."""
    pointers, gathered = gather_ranges(
        indices, starts, counts, workspace=workspace
    )
    want_pointers, want_gathered = loop_gather(indices, starts, counts)
    assert pointers.tolist() == want_pointers
    assert gathered.tolist() == want_gathered
    assert pointers.dtype == gathered.dtype == indices.dtype

    values = np.linspace(-1.0, 2.0, starts.shape[0])
    base = np.linspace(0.5, 1.5, size)
    out = base.copy()
    scatter_add(out, pointers, gathered, values, workspace=workspace)
    want = loop_scatter(base, want_pointers, want_gathered, values)
    # Same additions in the same order: equal to the last bit.
    assert out.tobytes() == want.tobytes()
    return pointers


@st.composite
def ranges_of_an_index_array(draw):
    """``(indices, starts, counts, size)``: arbitrary in-bounds ranges."""
    size = draw(st.integers(1, 12))
    length = draw(st.integers(0, 40))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    indices = np.asarray(
        draw(st.lists(st.integers(0, size - 1), min_size=length, max_size=length)),
        dtype=dtype,
    )
    num = draw(st.integers(0, 10))
    starts, counts = [], []
    for _ in range(num):
        start = draw(st.integers(0, length))
        starts.append(start)
        counts.append(draw(st.integers(0, length - start)))
    id_dtype = draw(st.sampled_from([np.int32, np.int64]))
    return (
        indices,
        np.asarray(starts, dtype=id_dtype),
        np.asarray(counts, dtype=id_dtype),
        size,
    )


class TestGatherScatterPair:
    @settings(max_examples=200, deadline=None)
    @given(ranges_of_an_index_array(), st.booleans())
    def test_matches_a_plain_loop(self, case, pooled):
        indices, starts, counts, size = case
        check_pair(indices, starts, counts, size, Workspace() if pooled else None)

    @pytest.mark.parametrize(
        "counts",
        [[0, 2, 3], [2, 0, 3], [2, 3, 0], [0, 0, 0], [0, 3, 0]],
        ids=["first", "middle", "last", "all", "both-ends"],
    )
    def test_zero_length_ranges(self, counts):
        indices = np.arange(10, dtype=np.int32)[::-1].copy()
        starts = np.array([1, 4, 7])
        check_pair(indices, starts, np.array(counts), 10)

    def test_empty_input(self):
        workspace = Workspace()
        nothing = np.empty(0, dtype=np.int64)
        for dtype in (np.int32, np.int64):
            indices = np.arange(5, dtype=dtype)
            pointers = check_pair(indices, nothing, nothing, 5, workspace)
            assert pointers.tolist() == [0]
            assert not pointers.flags.writeable
        assert workspace.requests == 0

    def test_prefixes_shorter_than_the_row(self):
        # Rows of 4: read the first 1, 3, 0 and 4 entries of each.
        indices = np.arange(16, dtype=np.int32) % 7
        starts = np.array([0, 4, 8, 12])
        pointers, gathered = gather_ranges(
            indices, starts, np.array([1, 3, 0, 4])
        )
        assert gathered.tolist() == [0, 4, 5, 6, 5, 6, 0, 1]
        assert pointers.tolist() == [0, 1, 4, 4, 8]

    def test_duplicate_targets_accumulate(self):
        # Parallel edges: target 1 three times in one range, once in the next.
        out = np.zeros(3)
        scatter_add(
            out,
            np.array([0, 3, 5], dtype=np.int32),
            np.array([1, 1, 1, 1, 2], dtype=np.int32),
            np.array([0.25, 1.0]),
        )
        assert out.tolist() == [0.0, 1.75, 1.0]

    def test_pointers_of_another_dtype_are_converted(self):
        # cumsum pointers are int64 whatever the targets are.
        out = np.zeros(4)
        workspace = Workspace()
        scatter_add(
            out,
            np.array([0, 1, 3], dtype=np.int64),
            np.array([3, 0, 0], dtype=np.int32),
            np.array([1.0, 2.0]),
            workspace=workspace,
        )
        assert out.tolist() == [4.0, 0.0, 0.0, 1.0]
        assert workspace.requests == 1

    def test_read_only_and_shared_memory_indices(self):
        graph = rmat_digraph(7, 600, rng=np.random.default_rng(4))
        nodes = np.array([0, 3, 3, 50, graph.num_nodes - 1])  # repeats are legal
        starts = graph.out_indptr[nodes]
        counts = graph.out_indptr[nodes + 1] - starts
        assert not graph.out_indices.flags.writeable
        want = check_pair(graph.out_indices, starts, counts, graph.num_nodes)
        with SharedGraphImage.export_graph(graph) as image:
            attached = SharedGraphImage.attach(image.handle)
            try:
                shared = attached.graph().out_indices
                assert not shared.flags.writeable and not shared.flags.owndata
                got = check_pair(shared, starts, counts, graph.num_nodes)
                assert got.tolist() == want.tolist()
                del shared
            finally:
                attached.close()

    def test_second_call_through_a_workspace_allocates_nothing(self):
        graph = rmat_digraph(7, 600, rng=np.random.default_rng(4))
        workspace = Workspace()
        out = np.zeros(graph.num_nodes)
        for nodes in (np.arange(0, 40, 2), np.arange(1, 30, 3)):
            starts = graph.out_indptr[nodes]
            counts = graph.out_indptr[nodes + 1] - starts
            before = workspace.allocations
            pointers, targets = gather_ranges(
                graph.out_indices, starts, counts, workspace=workspace
            )
            scatter_add(
                out, pointers, targets, np.ones(nodes.shape[0]),
                workspace=workspace,
            )
        # The first round filled the pool; the (smaller) second reused it.
        assert before == 4 and workspace.allocations == before
        assert workspace.requests == 8

    def test_rejects_what_scipy_would_silently_convert(self):
        indices = np.arange(6, dtype=np.int32)
        one = np.array([1])
        with pytest.raises(ParameterError, match="int32 or int64"):
            gather_ranges(indices.astype(np.int16), one, one)
        with pytest.raises(ParameterError, match="C-contiguous"):
            gather_ranges(indices[::2], one, one)
        pointers, targets = gather_ranges(indices, one, one)
        for out in (
            np.zeros(6, dtype=np.float32),
            np.zeros(12)[::2],
            kernels._ONES(6),  # read-only
        ):
            with pytest.raises(ParameterError, match="in place"):
                scatter_add(out, pointers, targets, np.ones(1))
        with pytest.raises(ParameterError, match="in place"):
            scatter_add(np.zeros(6), pointers, targets, np.ones(1, dtype=np.int64))

    def test_int32_guard_raises_a_typed_error(self, monkeypatch):
        indices = np.arange(20, dtype=np.int32)
        starts, counts = np.array([0, 5]), np.array([3, 3])
        gather_ranges(indices, starts, counts)
        monkeypatch.setattr(kernels, "_INT32_MAX", 19)
        with pytest.raises(GraphConstructionError, match="int32 fences"):
            gather_ranges(indices, starts, counts)
        # ... by the gathered total as well as by the array's length,
        gather_ranges(indices[:19], starts, counts)
        with pytest.raises(GraphConstructionError, match="int32 fences"):
            gather_ranges(indices[:19], np.zeros(4, int), np.full(4, 5))
        # ... and only for int32: int64 fences address anything.
        gather_ranges(indices.astype(np.int64), starts, counts)

    def test_constants_grow_by_replacement(self):
        held = kernels._ONES(3)
        backing = held.base
        grown = kernels._ONES(backing.shape[0] + 1)
        assert grown.base is not backing and grown.base.shape[0] >= 2 * backing.shape[0]
        # The array handed out earlier is untouched and still read-only.
        assert held.base is backing and held.tolist() == [1.0, 1.0, 1.0]
        assert not held.flags.writeable and not grown.flags.writeable
        assert kernels._ONES(2).base is grown.base
        assert kernels._EVEN_ROWS(4).tolist() == [0, 2, 4, 6]
        assert not kernels._ZERO_TAGS(5).any()


# ----------------------------------------------------------------------
# frontier_push on the pair
# ----------------------------------------------------------------------
def scalar_pushes_on_entry_residues(state, nodes):
    """What a simultaneous push must equal: ``PushState.push`` per node,
    each fed the residue the node held at entry."""
    entry = state.residue[nodes].copy()
    state.residue[nodes] = 0.0
    arrived = np.zeros_like(state.residue)
    for v, r_v in zip(nodes.tolist(), entry.tolist()):
        # Pushing v alone from a clean slate isolates what v emits.
        before = state.residue.copy()
        state.residue[:] = 0.0
        state.residue[v] = r_v
        state.push(v)
        arrived += state.residue
        state.residue[:] = before
    state.residue += arrived
    state.refresh_r_sum()


class TestFrontierPush:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("name", sorted(CORNER_GRAPHS))
    def test_equals_scalar_pushes_on_the_entry_residues(self, name, policy):
        graph = prepared(CORNER_GRAPHS[name], policy)
        n = graph.num_nodes
        rng = np.random.default_rng(n)
        for id_dtype in (np.int32, np.int64):
            vector = PushState(graph, 0, ALPHA, dead_end_policy=policy)
            vector.residue[:] = rng.random(n)
            vector.residue /= vector.residue.sum()
            vector.refresh_r_sum()
            scalar = PushState(graph, 0, ALPHA, dead_end_policy=policy)
            scalar.residue[:] = vector.residue
            scalar.refresh_r_sum()
            nodes = np.flatnonzero(rng.random(n) < 0.6).astype(id_dtype)
            if nodes.shape[0] == 0:
                nodes = np.array([n - 1], dtype=id_dtype)

            frontier_push(vector, nodes, workspace=Workspace())
            scalar_pushes_on_entry_residues(scalar, nodes)

            np.testing.assert_allclose(vector.residue, scalar.residue, rtol=0, atol=1e-15)
            np.testing.assert_allclose(vector.reserve, scalar.reserve, rtol=0, atol=1e-15)
            assert vector.r_sum == pytest.approx(scalar.r_sum, abs=1e-15)
            assert vector.counters.pushes == scalar.counters.pushes
            assert vector.counters.residue_updates == scalar.counters.residue_updates
            vector.check_invariants(atol=1e-12)

    def test_simultaneous_not_sequential(self):
        # 0 -> 1 -> 2: pushing {0, 1} together must not forward what 0
        # just gave to 1.
        graph = from_edges([(0, 1), (1, 2), (2, 0)])
        state = PushState(graph, 0, ALPHA)
        state.residue[:] = [0.5, 0.25, 0.0]
        frontier_push(state, np.array([0, 1]))
        assert state.residue.tolist() == [0.0, 0.8 * 0.5, 0.8 * 0.25]

    def test_self_loop_re_deposits(self):
        graph = from_edges([(0, 0), (0, 1), (1, 0)], drop_self_loops=False)
        state = PushState(graph, 0, ALPHA)
        frontier_push(state, np.array([0]))
        assert state.residue.tolist() == [0.4, 0.4]
        assert state.reserve.tolist() == [0.2, 0.0]

    def test_no_buffer_sized_by_the_graph(self):
        graph = rmat_digraph(15, 80_000, rng=np.random.default_rng(8))
        assert graph.num_nodes >= 10_000
        state = PushState(graph, 0, ALPHA)
        state.residue[:] = 1.0 / graph.num_nodes
        state.refresh_r_sum()
        nodes = np.flatnonzero(graph.out_degree > 0)[:50]
        edges = int(graph.out_degree[nodes].sum())
        workspace = Workspace()
        frontier_push(state, nodes, workspace=workspace)
        longest = max(buf.shape[0] for buf in workspace._buffers.values())
        assert 0 < longest <= edges + nodes.shape[0] + 1 < graph.num_nodes
        assert state.counters.residue_updates == edges

    def test_propagate_takes_signed_residues(self):
        graph = CORNER_GRAPHS["parallel-edges"]
        residue = np.array([-0.5, 0.25, 0.125])
        pushed, counts, num_edges = frontier_propagate(
            graph, residue, np.array([0, 2]), ALPHA
        )
        assert pushed.tolist() == [-0.5, 0.125]
        assert counts.tolist() == [2, 1] and num_edges == 3
        # 0 -> 1 twice (parallel), 2 -> 0.
        assert residue.tolist() == [0.8 * 0.125, 0.25 + 2 * (0.8 * -0.5 / 2), 0.0]


def _graph(seed: int = 7, scale: int = 7, edges: int = 700):
    return rmat_digraph(scale, edges, rng=np.random.default_rng(seed))


class TestEmptyFrontierFastPath:
    """Empty frontiers must not touch the workspace (satellite fix)."""

    def test_frontier_push_empty_nodes(self):
        graph = _graph()
        state = PushState(graph, 0)
        workspace = Workspace()
        kernels.frontier_push(
            state, np.empty(0, dtype=np.int64), workspace=workspace
        )
        assert workspace.requests == 0
        assert state.r_sum == 1.0

    def test_gather_ranges_empty_nodes(self):
        graph = _graph()
        workspace = Workspace()
        nodes = np.empty(0, dtype=np.int64)
        pointers, targets = kernels.gather_ranges(
            graph.out_indices, nodes, nodes, workspace=workspace
        )
        assert targets.shape[0] == 0 and pointers.tolist() == [0]
        assert workspace.requests == 0

    def test_frontier_push_all_dead_frontier(self):
        graph = star_graph(4, bidirectional=False)  # leaves are dead ends
        state = PushState(graph, 0)
        state.residue[:] = 0.25
        state.refresh_r_sum()
        workspace = Workspace()
        # Pushing only dead ends gathers zero edges: no scatter, no
        # workspace traffic, yet reserves/dead-mass still settle.
        kernels.frontier_push(
            state,
            graph.dead_ends.astype(np.int64),
            workspace=workspace,
        )
        assert workspace.requests == 0
        assert state.counters.pushes == graph.dead_ends.shape[0]


# ----------------------------------------------------------------------
# The private scipy entry points, at exactly the dtypes used
# ----------------------------------------------------------------------
class TestScipyPin:
    """A scipy upgrade is the only thing that can break the pair silently."""

    # 0 -> 1, 2; 1 -> 2; 2 -> 0; 3 -> 0, 1, 2
    INDPTR = np.array([0, 2, 3, 4, 7], dtype=np.int32)
    INDICES = np.array([1, 2, 2, 0, 0, 1, 2], dtype=np.int32)

    def test_csr_row_index_copies_the_fenced_ranges(self):
        # Node 3's first two edges, nothing of node 1, all of node 0.
        fences = np.array([4, 6, 2, 2, 0, 2], dtype=np.int32)
        rows = np.array([0, 2, 4], dtype=np.int32)
        tags_in = np.zeros(7, dtype=np.int8)
        gathered = np.full(4, -1, dtype=np.int32)
        tags_out = np.full(4, 7, dtype=np.int8)
        kernels._csr_row_index(
            3, rows, fences, self.INDICES, tags_in, gathered, tags_out
        )
        assert gathered.tolist() == [0, 1, 1, 2]
        assert tags_out.tolist() == [0, 0, 0, 0]

    def test_csc_matvec_adds_in_place(self):
        out = np.array([10.0, 20.0, 30.0, 40.0])
        shares = np.array([1.0, 2.0, 4.0, 8.0])
        kernels._csc_matvec(
            4, 4, self.INDPTR, self.INDICES, np.ones(7), shares, out
        )
        assert out.tolist() == [10.0 + 4 + 8, 20.0 + 1 + 8, 30.0 + 1 + 2 + 8, 40.0]
