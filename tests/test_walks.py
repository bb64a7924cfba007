"""Unit tests for the random-walk engine and walk indexes.

The engine's steps are two C loops (``walk_halt`` / ``walk_move`` in
``repro/core/_kernels.c``) fed by per-step NumPy draws.
:func:`reference_simulate_batch` is the NumPy lock-step they replaced;
the C steps must give its stops, its step count and its generator end
state, bit for bit.
"""

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.kernels import walk_halt, walk_move
from repro.errors import (
    ConvergenceError,
    IndexBuildError,
    IndexMismatchError,
    ParameterError,
)
from repro.graph.build import cycle_graph, from_edges
from repro.metrics.ground_truth import exact_ppr_dense
from repro.walks.engine import _MAX_STEPS, simulate_walk_stops, single_walk
from repro.walks.index import (
    WalkIndex,
    build_walk_index,
    fora_plus_walk_counts,
    speedppr_walk_counts,
)
from repro.walks.storage import load_walk_index, save_walk_index, stored_size_bytes

# Dependency floor: Generator.random and Generator.integers pin every walk: the C walk
# steps against the NumPy lock-step, RNG end state included.
pytestmark = pytest.mark.floor


def reference_simulate_batch(graph, starts, alpha, source, dead_end_policy, rng):
    """The NumPy lock-step: what one batch of the engine computes.

    Per step: ``rng.random(alive)`` for the stops, then
    ``rng.integers(0, n, stuck)`` for the survivors on a dead end under
    ``uniform-teleport``, then ``rng.random(movers)`` for the neighbour
    choices.
    """
    indptr = graph.out_indptr
    indices = graph.out_indices
    degree = graph.out_degree

    position = starts.copy()
    stops = np.empty(starts.shape[0], dtype=np.int64)
    alive = np.arange(starts.shape[0])
    total_steps = 0

    for _ in range(_MAX_STEPS):
        if alive.shape[0] == 0:
            return stops, total_steps
        halting = rng.random(alive.shape[0]) < alpha
        stopped = alive[halting]
        stops[stopped] = position[stopped]
        alive = alive[~halting]
        if alive.shape[0] == 0:
            return stops, total_steps

        current = position[alive]
        deg = degree[current]
        movers = deg > 0
        if not np.all(movers):
            stuck = alive[~movers]
            if dead_end_policy == "uniform-teleport":
                position[stuck] = rng.integers(
                    0, graph.num_nodes, size=stuck.shape[0]
                )
            else:
                position[stuck] = source
        live = alive[movers]
        live_current = current[movers]
        live_deg = deg[movers]
        offsets = (rng.random(live.shape[0]) * live_deg).astype(np.int64)
        position[live] = indices[indptr[live_current] + offsets]
        total_steps += alive.shape[0]
    raise ConvergenceError("reference walks did not stop")


def reference_walk_stops(graph, starts, alpha, source, policy, rng, batch_size):
    """``simulate_walk_stops`` over :func:`reference_simulate_batch`."""
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.empty(starts.shape[0], dtype=np.int64)
    total = 0
    for begin in range(0, starts.shape[0], batch_size):
        chunk = starts[begin : begin + batch_size]
        stops[begin : begin + chunk.shape[0]], steps = reference_simulate_batch(
            graph, chunk, alpha, source, policy, rng
        )
        total += steps
    return stops, total


@st.composite
def walk_graphs(draw):
    """Small CSR graphs with the corners the steps must handle: one
    node, self-loops, parallel edges, one hub holding every edge, dead
    ends."""
    n = draw(st.integers(1, 9))
    hub = draw(st.booleans())
    targets = st.integers(0, n - 1)
    edges = draw(
        st.lists(
            st.tuples(st.just(0) if hub else targets, targets), max_size=4 * n
        )
    )
    return from_edges(edges, num_nodes=n, dedup=False, drop_self_loops=False)


class TestCStepsMatchReference:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        graph=walk_graphs(),
        data=st.data(),
        alpha=st.sampled_from([0.01, 0.2, 0.999]),
        policy=st.sampled_from(["redirect-to-source", "uniform-teleport"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_equal_to_numpy_lock_step(self, graph, data, alpha, policy, seed):
        n = graph.num_nodes
        starts = np.array(
            data.draw(st.lists(st.integers(0, n - 1), max_size=40)), dtype=np.int64
        )
        batch_size = data.draw(st.integers(1, starts.shape[0] + 2))
        source = data.draw(st.integers(0, n - 1))
        if policy == "uniform-teleport" and data.draw(st.booleans()):
            source = None
        expected_rng = np.random.default_rng(seed)
        expected, expected_steps = reference_walk_stops(
            graph, starts, alpha, source, policy, expected_rng, batch_size
        )
        rng = np.random.default_rng(seed)
        stops, steps = simulate_walk_stops(
            graph,
            starts,
            alpha=alpha,
            source=source,
            dead_end_policy=policy,
            rng=rng,
            batch_size=batch_size,
        )
        assert stops.tobytes() == expected.tobytes()
        assert steps == expected_steps
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    def test_steps_refuse_arrays_the_loops_cannot_take(self, paper_graph):
        walks = np.arange(4, dtype=np.int64)
        positions = np.zeros(4, dtype=np.int64)
        stops = np.empty(4, dtype=np.int64)
        with pytest.raises(ParameterError, match="positions"):
            walk_halt(
                paper_graph, walks, positions[:2], np.zeros(4), 0.2, stops
            )
        with pytest.raises(ParameterError, match="walks"):
            walk_halt(
                paper_graph, walks.astype(np.int32), positions, np.zeros(4),
                0.2, stops,
            )
        with pytest.raises(ParameterError, match="uniforms"):
            walk_halt(
                paper_graph, walks, positions, np.zeros(4, dtype=np.float32),
                0.2, stops,
            )
        with pytest.raises(ParameterError, match="uniforms"):
            walk_move(paper_graph, positions, 4, 0, np.zeros(3), None, 0)
        with pytest.raises(ParameterError, match="jumps"):
            walk_move(
                paper_graph, positions, 4, 1, np.zeros(3),
                np.zeros(2, dtype=np.int64), 0,
            )
        with pytest.raises(ParameterError, match="jumps"):
            walk_move(
                paper_graph, positions, 4, 1, np.zeros(3),
                np.zeros(1, dtype=np.int32), 0,
            )
        with pytest.raises(ParameterError, match="source"):
            walk_move(paper_graph, positions, 4, 1, np.zeros(3), None, -1)


class TestEngineBasics:
    def test_stops_are_valid_nodes(self, paper_graph, rng):
        starts = np.zeros(500, dtype=np.int64)
        stops, steps = simulate_walk_stops(
            paper_graph, starts, alpha=0.2, rng=rng
        )
        assert stops.shape == (500,)
        assert stops.min() >= 0 and stops.max() < 5
        assert steps > 0

    def test_empty_batch(self, paper_graph, rng):
        stops, steps = simulate_walk_stops(
            paper_graph, np.array([], dtype=np.int64), rng=rng
        )
        assert stops.shape == (0,)
        assert steps == 0

    def test_high_alpha_stops_quickly(self, paper_graph, rng):
        starts = np.zeros(200, dtype=np.int64)
        _, steps = simulate_walk_stops(
            paper_graph, starts, alpha=0.95, rng=rng
        )
        # Expected length 1/0.95 - 1 moves; generous cap.
        assert steps < 100

    def test_expected_walk_length(self, paper_graph, rng):
        # E[moves] = (1 - alpha) / alpha = 4 for alpha = 0.2.
        starts = np.zeros(20_000, dtype=np.int64)
        _, steps = simulate_walk_stops(
            paper_graph, starts, alpha=0.2, rng=rng
        )
        assert steps / 20_000 == pytest.approx(4.0, rel=0.1)

    def test_rejects_bad_start(self, paper_graph, rng):
        with pytest.raises(ParameterError):
            simulate_walk_stops(
                paper_graph, np.array([99]), rng=rng
            )

    @pytest.mark.parametrize("batch_size", [-1, 0, 2.5, True, "8"])
    def test_rejects_bad_batch_size(self, paper_graph, batch_size):
        # A negative size once walked nothing and returned uninitialised
        # stops.
        with pytest.raises(ParameterError, match="batch_size"):
            simulate_walk_stops(
                paper_graph,
                np.arange(5),
                batch_size=batch_size,
                source=0,
                rng=np.random.default_rng(0),
            )

    def test_takes_numpy_integer_batch_size(self, paper_graph):
        a, _ = simulate_walk_stops(
            paper_graph, np.arange(5), batch_size=np.int64(2),
            rng=np.random.default_rng(0),
        )
        b, _ = simulate_walk_stops(
            paper_graph, np.arange(5), batch_size=2, rng=np.random.default_rng(0)
        )
        assert a.tobytes() == b.tobytes()

    def test_rejects_fractional_starts(self, paper_graph, rng):
        # Once truncated: these walked from nodes 0 and 1.
        with pytest.raises(ParameterError, match="integer"):
            simulate_walk_stops(paper_graph, [0.5, 1.9], rng=rng)

    def test_rejects_bool_starts(self, paper_graph, rng):
        with pytest.raises(ParameterError, match="integer"):
            simulate_walk_stops(paper_graph, np.array([True, False]), rng=rng)

    def test_dead_end_requires_source(self, dead_end_graph, rng):
        with pytest.raises(ParameterError):
            simulate_walk_stops(
                dead_end_graph, np.array([0]), rng=rng
            )

    def test_batching_equivalent(self, paper_graph):
        starts = np.zeros(100, dtype=np.int64)
        a, _ = simulate_walk_stops(
            paper_graph,
            starts,
            rng=np.random.default_rng(7),
            batch_size=8,
        )
        # Different batch split -> different RNG consumption order, so
        # compare distributions only.
        b, _ = simulate_walk_stops(
            paper_graph,
            starts,
            rng=np.random.default_rng(7),
            batch_size=100,
        )
        assert a.shape == b.shape


class TestEngineDistribution:
    """The vectorised engine samples the PPR distribution."""

    def test_matches_exact_ppr(self, paper_graph, rng):
        truth = exact_ppr_dense(paper_graph, 0)
        stops, _ = simulate_walk_stops(
            paper_graph, np.zeros(60_000, dtype=np.int64), alpha=0.2,
            source=0, rng=rng,
        )
        counts = np.bincount(stops, minlength=paper_graph.num_nodes)
        empirical = counts / counts.sum()
        np.testing.assert_allclose(empirical, truth, atol=0.01)

    def test_matches_scalar_reference(self, paper_graph):
        # Vectorised and scalar engines agree in distribution.
        rng = np.random.default_rng(99)
        scalar_counts = np.zeros(5)
        for _ in range(6000):
            scalar_counts[single_walk(paper_graph, 0, rng=rng)] += 1
        stops, _ = simulate_walk_stops(
            paper_graph, np.zeros(6000, dtype=np.int64), source=0,
            rng=np.random.default_rng(100),
        )
        vector_counts = np.bincount(stops, minlength=paper_graph.num_nodes)
        np.testing.assert_allclose(
            scalar_counts / 6000, vector_counts / 6000, atol=0.03
        )

    def test_dead_end_redirect_distribution(self, dead_end_graph, rng):
        truth = exact_ppr_dense(dead_end_graph, 0)
        stops, _ = simulate_walk_stops(
            dead_end_graph, np.zeros(40_000, dtype=np.int64), source=0, rng=rng
        )
        counts = np.bincount(stops, minlength=dead_end_graph.num_nodes)
        np.testing.assert_allclose(counts / 40_000, truth, atol=0.01)

    def test_walks_from_non_source_node(self, paper_graph, rng):
        # Walks from v2 sample pi_{v2}.
        truth = exact_ppr_dense(paper_graph, 1)
        stops, _ = simulate_walk_stops(
            paper_graph, np.ones(40_000, dtype=np.int64), source=1, rng=rng
        )
        counts = np.bincount(stops, minlength=paper_graph.num_nodes)
        np.testing.assert_allclose(counts / 40_000, truth, atol=0.01)


class TestDeadEndPolicies:
    """A walk at a dead end goes where PushState sends the mass."""

    def test_redirect_stream_is_pinned(self, dead_end_graph):
        # The redirect draws nothing extra: these bytes predate the
        # policy argument, and every golden walk vector rests on them.
        starts = np.arange(5).repeat(200)
        default, steps = simulate_walk_stops(
            dead_end_graph, starts, source=0, rng=np.random.default_rng(2024)
        )
        explicit, _ = simulate_walk_stops(
            dead_end_graph,
            starts,
            source=0,
            dead_end_policy="redirect-to-source",
            rng=np.random.default_rng(2024),
        )
        assert default.tobytes() == explicit.tobytes()
        assert steps == 3977
        assert hashlib.sha256(default.tobytes()).hexdigest() == (
            "e4e6ca7a832913ad3e8469953e4853bc73e28430bff775ee191c4fee7b0997cf"
        )

    def test_uniform_teleport_distribution(self, dead_end_graph, rng):
        truth = exact_ppr_dense(
            dead_end_graph, 0, dead_end_policy="uniform-teleport"
        )
        stops, _ = simulate_walk_stops(
            dead_end_graph,
            np.zeros(40_000, dtype=np.int64),
            source=0,
            dead_end_policy="uniform-teleport",
            rng=rng,
        )
        counts = np.bincount(stops, minlength=dead_end_graph.num_nodes)
        np.testing.assert_allclose(counts / 40_000, truth, atol=0.01)

    def test_uniform_teleport_matches_scalar_reference(self, dead_end_graph):
        rng = np.random.default_rng(5)
        scalar_counts = np.zeros(5)
        for _ in range(6000):
            stop = single_walk(
                dead_end_graph, 2, dead_end_policy="uniform-teleport", rng=rng
            )
            scalar_counts[stop] += 1
        stops, _ = simulate_walk_stops(
            dead_end_graph,
            np.full(6000, 2, dtype=np.int64),
            source=2,
            dead_end_policy="uniform-teleport",
            rng=np.random.default_rng(6),
        )
        vector_counts = np.bincount(stops, minlength=dead_end_graph.num_nodes)
        np.testing.assert_allclose(
            scalar_counts / 6000, vector_counts / 6000, atol=0.03
        )

    def test_uniform_teleport_needs_no_source(self, dead_end_graph, rng):
        stops, _ = simulate_walk_stops(
            dead_end_graph,
            np.full(2000, 1),
            dead_end_policy="uniform-teleport",
            rng=rng,
        )
        # From a leaf, a walk that moves lands anywhere, not at node 1.
        assert np.count_nonzero(stops != 1) > 1000

    def test_unknown_policy_rejected(self, paper_graph, rng):
        with pytest.raises(ParameterError, match="unknown dead-end policy"):
            simulate_walk_stops(
                paper_graph,
                np.array([0]),
                dead_end_policy="teleport-home",
                rng=rng,
            )

    def test_self_loop_needs_structural_loops(self, dead_end_graph, rng):
        with pytest.raises(ParameterError, match="self-loop"):
            simulate_walk_stops(
                dead_end_graph,
                np.array([0]),
                source=0,
                dead_end_policy="self-loop",
                rng=rng,
            )


class TestWalkIndex:
    def test_speedppr_sizing_is_degree(self, paper_graph):
        counts = speedppr_walk_counts(paper_graph)
        assert counts.tolist() == paper_graph.out_degree.tolist()

    def test_fora_plus_sizing_covers_needs(self, paper_graph):
        w = 1000.0
        counts = fora_plus_walk_counts(paper_graph, w)
        factor = np.sqrt(w / paper_graph.num_edges)
        needed = np.ceil(paper_graph.out_degree * factor)
        assert np.all(counts >= needed)

    def test_build_and_lookup(self, paper_graph, rng):
        index = build_walk_index(
            paper_graph, speedppr_walk_counts(paper_graph), rng=rng
        )
        assert index.num_walks == paper_graph.num_edges
        assert index.walks_available(1) == 4
        stops = index.stops_for(1, 3)
        assert stops.shape == (3,)

    def test_lookup_beyond_available_raises(self, paper_graph, rng):
        index = build_walk_index(
            paper_graph, speedppr_walk_counts(paper_graph), rng=rng
        )
        with pytest.raises(IndexMismatchError):
            index.stops_for(0, 10)

    def test_graph_mismatch_detected(self, paper_graph, rng):
        index = build_walk_index(
            paper_graph, speedppr_walk_counts(paper_graph), rng=rng
        )
        other = cycle_graph(9)
        with pytest.raises(IndexMismatchError):
            index.check_graph(other)

    def test_dead_ends_rejected(self, dead_end_graph, rng):
        with pytest.raises(IndexBuildError):
            build_walk_index(
                dead_end_graph,
                speedppr_walk_counts(dead_end_graph),
                rng=rng,
            )

    def test_bad_counts_rejected(self, paper_graph, rng):
        with pytest.raises(IndexBuildError):
            build_walk_index(paper_graph, np.array([1, 2]), rng=rng)
        with pytest.raises(IndexBuildError):
            build_walk_index(
                paper_graph, -np.ones(5, dtype=np.int64), rng=rng
            )

    def test_fractional_counts_rejected(self, paper_graph, rng):
        # Once truncated: 1.7 walks a node built one.
        with pytest.raises(IndexBuildError, match="integers"):
            build_walk_index(paper_graph, np.full(5, 1.7), rng=rng)

    def test_nan_counts_rejected_without_a_cast_warning(self, paper_graph, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IndexBuildError, match="integers"):
                build_walk_index(paper_graph, np.full(5, np.nan), rng=rng)

    def test_bool_counts_rejected(self, paper_graph, rng):
        with pytest.raises(IndexBuildError, match="integers"):
            build_walk_index(paper_graph, np.ones(5, dtype=bool), rng=rng)

    @pytest.mark.parametrize(
        "indptr, stops",
        [
            ([0, 1, 2, 3, 4], [0, 1, 2, 50_000_000]),
            ([0, 1, 2, 3, 4], [0, 1, -1, 3]),
            ([0, 1, 2, 3, 4], np.arange(4, dtype=np.int64)),
            ([0, 1, 2, 3, 4], np.arange(8, dtype=np.int32)[::2]),
            (np.array([0, 1, 2, 3, 4], dtype=np.int32), [0, 1, 2, 3]),
            ([0, 1, 2, 4], [0, 1, 2, 3]),
            ([1, 1, 2, 3, 4], [0, 1, 2, 3]),
            ([0, 2, 1, 3, 4], [0, 1, 2, 3]),
            ([0, 1, 2, 3, 3], [0, 1, 2, 3]),
            ([0, 1, 2, 3, 5], [0, 1, 2, 3]),
        ],
        ids=[
            "stop-past-n", "negative-stop", "int64-stops", "strided-stops",
            "int32-indptr", "short-indptr", "indptr-from-1", "falling-indptr",
            "indptr-short-of-stops", "indptr-past-stops",
        ],
    )
    def test_layout_checked_on_construction(self, indptr, stops):
        with pytest.raises(IndexBuildError):
            WalkIndex(
                indptr=np.asarray(indptr, dtype=getattr(indptr, "dtype", np.int64)),
                stops=np.asarray(stops, dtype=getattr(stops, "dtype", np.int32)),
                alpha=0.2,
                policy="custom",
                construction_seconds=0.0,
                graph_num_nodes=4,
                graph_num_edges=4,
            )

    def test_size_bytes_positive_and_consistent(self, paper_graph, rng):
        index = build_walk_index(
            paper_graph, speedppr_walk_counts(paper_graph), rng=rng
        )
        assert index.size_bytes == index.indptr.nbytes + index.stops.nbytes


class TestWalkIndexStorage:
    def test_round_trip(self, paper_graph, rng, tmp_path):
        index = build_walk_index(
            paper_graph,
            speedppr_walk_counts(paper_graph),
            rng=rng,
            policy="speedppr",
        )
        path = tmp_path / "walks.npz"
        save_walk_index(index, path)
        loaded = load_walk_index(path)
        np.testing.assert_array_equal(loaded.indptr, index.indptr)
        np.testing.assert_array_equal(loaded.stops, index.stops)
        assert loaded.policy == "speedppr"
        assert loaded.alpha == index.alpha
        assert stored_size_bytes(path) > 0

    def test_load_garbage_raises(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"nope")
        with pytest.raises(IndexBuildError):
            load_walk_index(path)

    def test_load_out_of_range_stop_raises(self, tmp_path):
        # A file no build would write: one stop far outside cycle_graph(4).
        graph = cycle_graph(4)
        path = tmp_path / "crafted.npz"
        np.savez_compressed(
            path,
            indptr=np.arange(5, dtype=np.int64),
            stops=np.array([0, 1, 2, 50_000_000], dtype=np.int32),
            alpha=np.array(0.2),
            policy=np.array("speedppr"),
            construction_seconds=np.array(0.0),
            graph_num_nodes=np.array(graph.num_nodes),
            graph_num_edges=np.array(graph.num_edges),
        )
        with pytest.raises(IndexBuildError, match=r"ids in \[0, 4\)"):
            load_walk_index(path)
