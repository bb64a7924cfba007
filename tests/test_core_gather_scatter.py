"""``scatter_ranges``: the C range scatter under every local push.

What must hold: the loop in ``repro/core/_kernels.c`` gives the bits of
a plain Python loop over the ranges, for every shape of input the
callers produce (whole adjacency lists, walk-index prefixes, empty
ranges anywhere, duplicate targets, read-only and shared-memory target
arrays, starts and counts of either integer dtype), and refuses a range
outside its targets before adding anything; ``frontier_push`` built on
it is a *simultaneous* push — equal to scalar pushes made on the
residues at entry — under every dead-end policy and across self-loops,
allocates nothing sized by the graph, takes residues of either sign,
and refuses node ids outside ``[0, n)`` and a residue of another length
with the state untouched.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_core_async_sweep import CORNER_GRAPHS, POLICIES, prepared

from repro.core import kernels
from repro.core.kernels import frontier_push, scatter_ranges
from repro.core.residues import PushState
from repro.errors import ParameterError
from repro.generators.rmat import rmat_digraph
from repro.graph.build import from_edges, star_graph
from repro.serving.shm import SharedGraphImage

# Dependency floor: the C range scatter against its pure-Python loop, on inputs the
# property test draws.
pytestmark = pytest.mark.floor

ALPHA = 0.2


# ----------------------------------------------------------------------
# The plain loop the C must agree with
# ----------------------------------------------------------------------
def reference_scatter(out, targets, starts, counts, values):
    """What ``scatter_ranges`` computes, one Python float add at a time."""
    result = out.tolist()
    targets = targets.tolist()
    for start, count, value in zip(
        starts.tolist(), counts.tolist(), values.tolist()
    ):
        for t in targets[start : start + count]:
            result[t] += value
    return np.array(result)


def check_scatter(targets, starts, counts, size):
    """The C scatter against the reference, to the last bit."""
    values = np.linspace(-1.0, 2.0, starts.shape[0])
    base = np.linspace(0.5, 1.5, size)
    out = base.copy()
    scatter_ranges(out, targets, starts, counts, values)
    want = reference_scatter(base, targets, starts, counts, values)
    assert out.tobytes() == want.tobytes()
    return out


@st.composite
def ranges_of_an_index_array(draw):
    """``(targets, starts, counts, size)``: arbitrary in-bounds ranges."""
    size = draw(st.integers(1, 12))
    length = draw(st.integers(0, 40))
    targets = np.asarray(
        draw(st.lists(st.integers(0, size - 1), min_size=length, max_size=length)),
        dtype=np.int32,
    )
    num = draw(st.integers(0, 10))
    starts, counts = [], []
    for _ in range(num):
        start = draw(st.integers(0, length))
        starts.append(start)
        counts.append(draw(st.integers(0, length - start)))
    id_dtype = draw(st.sampled_from([np.int32, np.int64]))
    return (
        targets,
        np.asarray(starts, dtype=id_dtype),
        np.asarray(counts, dtype=id_dtype),
        size,
    )


class TestGatherScatterPair:
    """``scatter_ranges`` — gather and scatter in one C pass — against the loop."""

    @settings(max_examples=200, deadline=None)
    @given(ranges_of_an_index_array(), st.booleans())
    def test_matches_a_plain_loop(self, case, read_only):
        targets, starts, counts, size = case
        targets.flags.writeable = not read_only
        check_scatter(targets, starts, counts, size)

    @pytest.mark.parametrize(
        "counts",
        [[0, 2, 3], [2, 0, 3], [2, 3, 0], [0, 0, 0], [0, 3, 0]],
        ids=["first", "middle", "last", "all", "both-ends"],
    )
    def test_zero_length_ranges(self, counts):
        targets = np.arange(10, dtype=np.int32)[::-1].copy()
        starts = np.array([1, 4, 7])
        check_scatter(targets, starts, np.array(counts), 10)

    def test_empty_input(self):
        nothing = np.empty(0, dtype=np.int64)
        targets = np.arange(5, dtype=np.int32)
        out = check_scatter(targets, nothing, nothing, 5)
        assert out.tolist() == np.linspace(0.5, 1.5, 5).tolist()

    def test_prefixes_shorter_than_the_row(self):
        # Rows of 4: read the first 1, 3, 0 and 4 entries of each.
        targets = np.arange(16, dtype=np.int32) % 7
        out = np.zeros(7)
        scatter_ranges(
            out,
            targets,
            np.array([0, 4, 8, 12]),
            np.array([1, 3, 0, 4]),
            np.array([1.0, 10.0, 100.0, 1000.0]),
        )
        # Targets read: [0], [4, 5, 6], [], [5, 6, 0, 1].
        assert out.tolist() == [1001.0, 1000.0, 0.0, 0.0, 10.0, 1010.0, 1010.0]

    def test_duplicate_targets_accumulate(self):
        # Parallel edges: target 1 three times in one range, once in the next.
        out = np.zeros(3)
        scatter_ranges(
            out,
            np.array([1, 1, 1, 1, 2], dtype=np.int32),
            np.array([0, 3]),
            np.array([3, 2]),
            np.array([0.25, 1.0]),
        )
        assert out.tolist() == [0.0, 1.75, 1.0]

    def test_starts_and_counts_of_another_dtype_are_converted(self):
        out = np.zeros(4)
        scatter_ranges(
            out,
            np.array([3, 0, 0], dtype=np.int32),
            np.array([0, 1], dtype=np.int32),
            np.array([1, 2], dtype=np.uint8),
            np.array([1.0, 2.0]),
        )
        assert out.tolist() == [4.0, 0.0, 0.0, 1.0]

    def test_read_only_and_shared_memory_indices(self):
        graph = rmat_digraph(7, 600, rng=np.random.default_rng(4))
        nodes = np.array([0, 3, 3, 50, graph.num_nodes - 1])  # repeats are legal
        starts = graph.out_indptr[nodes]
        counts = graph.out_indptr[nodes + 1] - starts
        assert not graph.out_indices.flags.writeable
        want = check_scatter(graph.out_indices, starts, counts, graph.num_nodes)
        with SharedGraphImage.export_graph(graph) as image:
            attached = SharedGraphImage.attach(image.handle)
            try:
                shared = attached.graph().out_indices
                assert not shared.flags.writeable and not shared.flags.owndata
                got = check_scatter(shared, starts, counts, graph.num_nodes)
                assert got.tobytes() == want.tobytes()
                del shared
            finally:
                attached.close()

    def test_rejects_what_the_c_loop_cannot_read(self):
        targets = np.arange(6, dtype=np.int32)
        one = np.array([1])
        for bad in (targets.astype(np.int64), targets[::2], targets.reshape(2, 3)):
            with pytest.raises(ParameterError, match="int32 vector"):
                scatter_ranges(np.zeros(6), bad, one, one, np.ones(1))
        read_only = np.zeros(6)
        read_only.flags.writeable = False
        for out in (np.zeros(6, dtype=np.float32), np.zeros(12)[::2], read_only):
            with pytest.raises(ParameterError, match="writable C-contiguous"):
                scatter_ranges(out, targets, one, one, np.ones(1))
        with pytest.raises(ParameterError, match="one entry per range"):
            scatter_ranges(np.zeros(6), targets, one, one, np.ones(2))

    @pytest.mark.parametrize(
        "start, count",
        [(-1, 1), (0, -1), (6, 1), (4, 3), (2**62, 2**62), (0, 2**63 - 1)],
    )
    def test_a_range_outside_the_targets_adds_nothing(self, start, count):
        targets = np.arange(6, dtype=np.int32)
        out = np.zeros(6)
        with pytest.raises(ParameterError, match="outside the 6 targets"):
            # The good first range is not added either.
            scatter_ranges(
                out,
                targets,
                np.array([0, start]),
                np.array([2, count]),
                np.ones(2),
            )
        assert not out.any()


# ----------------------------------------------------------------------
# frontier_push on the C scatter
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

            frontier_push(vector, nodes)
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
        tracemalloc.start()
        try:
            frontier_push(state, nodes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A few frontier-sized temporaries, nothing of n float64 entries.
        peak_entries = peak // 8
        assert 0 < peak_entries <= edges + nodes.shape[0] + 1 < graph.num_nodes
        assert state.counters.residue_updates == edges

    def test_takes_signed_residues(self):
        graph = CORNER_GRAPHS["parallel-edges"]
        state = PushState(graph, 0, ALPHA)
        state.residue[:] = [-0.5, 0.25, 0.125]
        frontier_push(state, np.array([0, 2]))
        assert state.reserve.tolist() == [ALPHA * -0.5, 0.0, ALPHA * 0.125]
        assert state.counters.pushes == 2
        assert state.counters.residue_updates == 3
        # 0 -> 1 twice (parallel), 2 -> 0.
        assert state.residue.tolist() == [
            0.8 * 0.125, 0.25 + 2 * (0.8 * -0.5 / 2), 0.0
        ]


def _graph(seed: int = 7, scale: int = 7, edges: int = 700):
    return rmat_digraph(scale, edges, rng=np.random.default_rng(seed))


class TestEmptyFrontierFastPath:
    """Empty frontiers and edgeless frontiers never reach the C loop."""

    @pytest.fixture
    def no_scatter(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("scatter_ranges was called")

        monkeypatch.setattr(kernels, "scatter_ranges", refuse)

    def test_frontier_push_empty_nodes(self, no_scatter):
        graph = _graph()
        state = PushState(graph, 0)
        kernels.frontier_push(state, np.empty(0, dtype=np.int64))
        assert state.r_sum == 1.0
        assert state.counters.pushes == 0

    def test_scatter_ranges_empty_ranges(self):
        graph = _graph()
        out = np.ones(graph.num_nodes)
        nodes = np.empty(0, dtype=np.int64)
        kernels.scatter_ranges(
            out, graph.out_indices, nodes, nodes, np.empty(0)
        )
        assert (out == 1.0).all()

    def test_frontier_push_all_dead_frontier(self, no_scatter):
        graph = star_graph(4, bidirectional=False)  # leaves are dead ends
        state = PushState(graph, 0)
        state.residue[:] = 0.25
        state.refresh_r_sum()
        # Pushing only dead ends scatters zero edges: no C call, yet
        # reserves/dead-mass still settle.
        kernels.frontier_push(state, graph.dead_ends.astype(np.int64))
        assert state.counters.pushes == graph.dead_ends.shape[0]


class TestFrontierIdsOutOfRange:
    """A bad id is refused before the state is touched."""

    @pytest.mark.parametrize("bad", [-1, "n"])
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_frontier_push_leaves_the_state_unchanged(self, bad, dtype):
        graph = _graph()
        n = graph.num_nodes
        state = PushState(graph, 0)
        state.residue[:] = 1.0 / n
        state.refresh_r_sum()
        residue, reserve, r_sum = (
            state.residue.copy(), state.reserve.copy(), state.r_sum
        )
        bad = n if bad == "n" else bad
        for nodes in ([1, bad], [bad]):
            with pytest.raises(ParameterError, match=r"ids in \[0, "):
                frontier_push(state, np.array(nodes, dtype=dtype))
            assert state.residue.tobytes() == residue.tobytes()
            assert state.reserve.tobytes() == reserve.tobytes()
            assert state.r_sum == r_sum and state.counters.pushes == 0

    def test_frontier_push_refuses_a_residue_of_another_length(self):
        """The scatter adds at every out-neighbour id: a residue shorter
        than ``n`` would be written past its end."""
        state = PushState(_graph(), 0)
        state.residue = np.zeros(state.graph.num_nodes - 1)
        with pytest.raises(ParameterError, match="residue"):
            frontier_push(state, np.array([0]))
        assert not state.reserve.any() and state.counters.pushes == 0
