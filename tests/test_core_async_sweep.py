"""The asynchronous sweep, the refinement's scan and the epoch-end
extrapolation, in C.

``async_sweep`` (and its C loop on raw arrays, ``settle`` below),
``refine_passes`` and the epoch-end extrapolation of ``scan_epochs`` are
loops in ``repro/core/_kernels.c``.
The references below say what they compute, and the C must give their
bits: a pure-Python loop over the node ids for the sweep, the same loop
with the active-only threshold, pass after pass with dead-end routing in
between, for the refinement, and the NumPy body the extrapolation had
before it moved to C.  What must hold besides: one sweep conserves
``sum(reserve) + sum(residue)``, keeps the push invariant (checked
against ``exact_ppr_dense``) and bills what it pushed; mass that
reaches a later node is pushed in the same sweep; and an array the C
cannot take safely is refused before a pointer is passed.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.kernels import (
    _LIB,
    _call,
    async_sweep,
    frontier_push,
    queue_rounds,
    refine_passes,
    scan_epochs,
)
from repro.core.residues import PushState
from repro.errors import ParameterError
from repro.graph.build import cycle_graph, from_edges, star_graph
from repro.instrumentation.counters import PushCounters
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


def random_graph(n, edge_seed, density):
    rng = np.random.default_rng(edge_seed)
    count = int(density * n)
    edges = list(
        zip(rng.integers(0, n, count).tolist(), rng.integers(0, n, count).tolist())
    )
    graph = from_edges(edges, num_nodes=n, dedup=False, drop_self_loops=False)
    return graph, int(rng.integers(0, n))


# ---------------------------------------------------------------------------
# The references the C loops are checked against
# ---------------------------------------------------------------------------
def settle(graph, residue, reserve, settled, alpha):
    """``async_sweep``'s C loop over raw arrays, which may hold either
    sign: ``(pushes, residue_updates, dead_mass)``, the dead-end mass
    left unrouted."""
    counts = (ctypes.c_int64 * 2)()
    dead_mass = _call(
        "repro_async_sweep", graph.num_nodes, graph.out_indptr,
        graph.out_indices, alpha, residue, reserve, settled, counts,
    )
    return counts[0], counts[1], dead_mass


def reference_sweep(graph, residue, reserve, settled, alpha, threshold=None):
    """Algorithm 3's scan as a plain loop: what ``settle`` computes.

    Without ``threshold`` every node holding residue is pushed; with it,
    only a node whose residue exceeds ``threshold[v]`` when the loop
    reaches it (one pass of ``refine_passes``).  Python floats are IEEE doubles and every operation
    rounds on its own, as in the C compiled without fused multiply-add.
    """
    indptr, indices = graph.out_indptr.tolist(), graph.out_indices.tolist()
    r, p = residue.tolist(), reserve.tolist()
    t = None if threshold is None else threshold.tolist()
    s = [0.0] * len(r)
    pushes = edges = 0
    dead_mass = 0.0
    for v in range(len(r)):
        mass = r[v]
        if mass == 0.0 if t is None else not mass > t[v]:
            continue
        r[v] = 0.0
        s[v] = alpha * mass
        p[v] += s[v]
        lo, hi = indptr[v], indptr[v + 1]
        pushes += 1
        if lo == hi:
            dead_mass += (1.0 - alpha) * mass
            continue
        edges += hi - lo
        share = ((1.0 - alpha) * mass) / (hi - lo)
        for e in range(lo, hi):
            r[indices[e]] += share
    residue[:], reserve[:], settled[:] = r, p, s
    return pushes, edges, dead_mass


def reference_refine(
    graph, residue, reserve, threshold, max_passes, *, source, policy
):
    """Passes of the thresholded ``reference_sweep`` with the dead-end
    routing of ``_apply_dead_end_mass`` in between: what
    ``refine_passes`` computes.  Returns ``(passes, pushes, updates)``."""
    n = graph.num_nodes
    passes = pushes = updates = 0
    while True:
        pushed, edges, dead_mass = reference_sweep(
            graph, residue, reserve, np.empty(n), ALPHA, threshold
        )
        if pushed == 0:
            return passes, pushes, updates
        pushes += pushed
        updates += edges
        if dead_mass != 0.0:
            if policy == "redirect-to-source":
                residue[source] += dead_mass
            elif policy == "uniform-teleport":
                residue += dead_mass / n
            else:
                raise AssertionError("self-loop graphs have no dead end")
        passes += 1
        if passes >= max_passes:
            return passes, pushes, updates


def reference_extrapolate_window(reserve, residue, settled, r_before):
    """The NumPy body the extrapolation had before it moved to C."""
    fall = np.subtract(r_before, residue)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = residue / fall
    k = ratio.min(where=ratio >= 0.0, initial=np.inf)
    if k == np.inf:
        return False
    k = np.nextafter(k, 0.0)
    if not (k > 0.0 and (np.sign(residue) * fall).sum() > 0.0):
        return False
    fall *= k
    residue -= fall
    reserve += settled * k
    return True


def extrapolate(reserve, residue, settled, r_before):
    """The epoch-end extrapolation alone, in place: the C loop
    ``scan_epochs`` runs at the end of an epoch that swept the window
    ``(r_before, settled)``.  Returns whether the window was applied."""
    for array in (reserve, residue, settled, r_before):
        assert array.dtype == np.float64 and array.flags.c_contiguous
    return bool(
        _LIB.repro_extrapolate_window(
            residue.shape[0], reserve.ctypes.data, residue.ctypes.data,
            settled.ctypes.data, r_before.ctypes.data,
        )
    )


def assert_sweep_matches_reference(graph, residue, reserve):
    """Run C and reference on copies of the same arrays; same bits."""
    n = graph.num_nodes
    c_arrays = (residue.copy(), reserve.copy(), np.full(n, np.nan))
    py_arrays = (residue.copy(), reserve.copy(), np.full(n, np.nan))
    got = settle(graph, *c_arrays, ALPHA)
    expected = reference_sweep(graph, *py_arrays, ALPHA)
    assert got == expected
    for c, py in zip(c_arrays, py_arrays):
        assert c.tobytes() == py.tobytes()
    return c_arrays


def assert_scan_matches_reference(
    graph,
    residue,
    reserve,
    threshold,
    max_passes=1,
    *,
    source=0,
    policy="redirect-to-source",
):
    """``refine_passes`` and ``reference_refine`` on copies; same bits.
    Returns the C's ``(passes, pushes, updates)``, residue and reserve."""
    c_arrays = (residue.copy(), reserve.copy())
    py_arrays = (residue.copy(), reserve.copy())
    got = refine_passes(
        graph, *c_arrays, ALPHA, threshold, max_passes,
        source=source, dead_end_policy=policy,
    )
    expected = reference_refine(
        graph, *py_arrays, threshold, max_passes, source=source, policy=policy
    )
    assert got == expected
    for c, py in zip(c_arrays, py_arrays):
        assert c.tobytes() == py.tobytes()
    return (got, *c_arrays)


def assert_extrapolation_matches_reference(reserve, residue, settled, r_before):
    c = (reserve.copy(), residue.copy())
    py = (reserve.copy(), residue.copy())
    applied = extrapolate(*c, settled, r_before)
    assert applied == reference_extrapolate_window(
        *py, settled.copy(), r_before.copy()
    )
    for got, expected in zip(c, py):
        assert got.tobytes() == expected.tobytes()
    return applied, c


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
    assert_sweep_matches_reference(graph, state.residue, state.reserve)
    holders = state.residue > 0.0
    r_before = state.residue.copy()
    before = state.counters.as_dict()
    settled = async_sweep(state).copy()
    state.check_invariants(atol=1e-12)
    assert state.r_sum == float(state.residue.sum())
    assert invariant_gap(state) < 1e-12
    # Nodes reached during the sweep push too, so at least the holders
    # at entry were billed, and never more than every node and edge.
    pushes = state.counters.pushes - before["pushes"]
    updates = state.counters.residue_updates - before["residue_updates"]
    assert int(holders.sum()) <= pushes <= graph.num_nodes
    assert int(graph.out_degree[holders].sum()) <= updates <= graph.num_edges
    assert pushes == int(np.count_nonzero(settled))
    # The sweep is a window the extrapolation can repeat.
    assert_extrapolation_matches_reference(
        state.reserve, state.residue, settled, r_before
    )


class TestOneSweep:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("name", sorted(CORNER_GRAPHS))
    def test_corner_graphs(self, name, policy):
        graph = CORNER_GRAPHS[name]
        for source in (0, graph.num_nodes - 1):
            for warmup in (0, 2):
                check_one_sweep(graph, source, policy, warmup)

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
        graph, source = random_graph(n, edge_seed, density)
        check_one_sweep(graph, source, policy, warmup)

    def test_mass_reaching_a_later_node_is_pushed_in_this_sweep(self):
        """What "asynchronous" buys, node by node: down a chain one sweep
        carries the source's mass to the end; mass that reaches an
        earlier node waits for the next sweep."""
        graph = chain_graph(64)
        state = PushState(graph, 0, ALPHA)
        async_sweep(state)
        # Synchronously only the source would have settled anything.
        assert (state.reserve > 0.0).all()
        assert state.counters.pushes == 64
        # The dead end's mass went back to the source, already passed.
        assert np.flatnonzero(state.residue).tolist() == [0]

        ring = PushState(cycle_graph(3), 2, ALPHA)
        async_sweep(ring)
        assert np.flatnonzero(ring.reserve).tolist() == [2]
        assert ring.residue.tolist() == [1.0 - ALPHA, 0.0, 0.0]
        assert ring.counters.pushes == 1

    def test_a_wide_frontier_is_left_to_the_sweep(self, medium_graph):
        """FIFO-FwdPush's switch: the rounds stop before a frontier above
        ``n / 4``, touching nothing, and the sweep pushes every node."""
        n = medium_graph.num_nodes
        state = PushState(medium_graph, 0, ALPHA)
        state.residue[:] = 1.0 / n
        before = state.residue.copy()
        assert queue_rounds(state, 1e-9, -np.inf, 0.25 * n) == (0, True)
        assert state.residue.tobytes() == before.tobytes()
        assert state.counters.pushes == 0
        async_sweep(state)
        assert state.counters.pushes == n


class TestSignedAndThresholded:
    """Both loops as IncrementalPPR uses them: on signed residues."""

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
        for _ in range(2):
            residue, reserve, settled = assert_sweep_matches_reference(
                graph, residue, reserve
            )
            assert self._invariant_holds(graph, start, reserve, residue)
        assert (settled < 0.0).any() and (settled > 0.0).any()

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n=st.integers(1, 12),
        edge_seed=st.integers(0, 2**32 - 1),
        density=st.floats(0.0, 3.0),
        sweeps=st.integers(1, 4),
    )
    def test_signed_windows_match_and_keep_every_sign(
        self, n, edge_seed, density, sweeps
    ):
        graph, _ = random_graph(n, edge_seed, density)
        rng = np.random.default_rng(edge_seed)
        residue, reserve = rng.normal(size=n), np.zeros(n)
        for _ in range(sweeps):
            r_before = residue.copy()
            residue, reserve, settled = assert_sweep_matches_reference(
                graph, residue, reserve
            )
        applied, (_, extrapolated) = assert_extrapolation_matches_reference(
            reserve, residue, settled, r_before
        )
        assert (np.sign(extrapolated) * np.sign(residue) >= 0.0).all()
        if applied:
            assert np.abs(extrapolated).sum() <= np.abs(residue).sum()

    def test_rejects_non_contiguous_arrays(self, medium_graph):
        """A bad pointer would corrupt memory: each array the C loops
        read or write is checked first, and nothing is touched."""
        n = medium_graph.num_nodes
        read_only = np.zeros(n)
        read_only.flags.writeable = False
        bad = {
            "float32": np.zeros(n, dtype=np.float32),
            "non-contiguous": np.zeros((n, 2))[:, 0],
            "read-only": read_only,
            "wrong length": np.zeros(n - 1),
        }
        for label, array in bad.items():
            for slot in range(3):
                arrays = [np.full(n, 0.5) for _ in range(3)]
                arrays[slot] = array
                with pytest.raises(ParameterError, match="float64"):
                    settle(medium_graph, *arrays, ALPHA)
                assert all(
                    (a == 0.5).all() for i, a in enumerate(arrays) if i != slot
                ), label
            for slot in range(2):
                arrays = [np.full(n, 0.5) for _ in range(2)]
                arrays[slot] = array
                with pytest.raises(ParameterError, match="float64"):
                    scan_epochs(
                        medium_graph, *arrays, ALPHA, [0.0], PushCounters(),
                        l1_threshold=0.0,
                    )
                assert (arrays[1 - slot] == 0.5).all(), label


def check_active_only_scan(graph, source, policy, warmup_pushes, r_max):
    """The refinement's scan, one pass and up to 40, against the
    reference; every node active at entry is pushed in the first pass,
    and mass is kept."""
    graph = prepared(graph, policy)
    state = PushState(graph, source, ALPHA, dead_end_policy=policy)
    for _ in range(warmup_pushes):
        frontier_push(state, np.flatnonzero(state.residue > 0.0))
    threshold = state.threshold_vector(r_max)
    active = state.residue > threshold
    mass = state.mass_total()
    (passes, pushes, _), residue, reserve = assert_scan_matches_reference(
        graph, state.residue, state.reserve, threshold,
        source=source, policy=policy,
    )
    settled = np.empty(graph.num_nodes)
    assert reference_sweep(
        graph, state.residue.copy(), state.reserve.copy(), settled, ALPHA,
        threshold,
    )[0] == pushes
    assert passes == int(pushes > 0)
    # Residues only grow until the loop reaches a node, so a node active
    # at entry is still active there; a node never active pushes nothing.
    assert (settled[active] > 0.0).all()
    assert (settled[settled != 0.0] > 0.0).all()
    # The dead ends' mass is routed back into the residues.
    assert reserve.sum() + residue.sum() == pytest.approx(mass, abs=1e-12)
    assert_scan_matches_reference(
        graph, state.residue, state.reserve, threshold, 40,
        source=source, policy=policy,
    )


class TestActiveOnlySweep:
    """``refine_passes(..., threshold=t)`` pushes only ``r > t[v]``."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("name", sorted(CORNER_GRAPHS))
    def test_corner_graphs(self, name, policy):
        graph = CORNER_GRAPHS[name]
        for source in (0, graph.num_nodes - 1):
            for warmup in (0, 2):
                for r_max in (0.0, 1e-3, 0.05, 0.3):
                    check_active_only_scan(graph, source, policy, warmup, r_max)

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
        r_max=st.floats(0.0, 0.3),
    )
    def test_random_graphs(self, n, edge_seed, density, policy, warmup, r_max):
        graph, source = random_graph(n, edge_seed, density)
        check_active_only_scan(graph, source, policy, warmup, r_max)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n=st.integers(1, 12),
        edge_seed=st.integers(0, 2**32 - 1),
        density=st.floats(0.0, 3.0),
        max_passes=st.integers(1, 4),
    )
    def test_signed_residues_and_thresholds(
        self, n, edge_seed, density, max_passes
    ):
        """The comparison alone decides, for any signs: a negative
        threshold pushes a node holding nothing, which moves no bit."""
        graph, source = random_graph(n, edge_seed, density)
        rng = np.random.default_rng(edge_seed)
        residue = np.where(rng.random(n) < 0.3, 0.0, rng.normal(size=n))
        for policy in ("redirect-to-source", "uniform-teleport"):
            assert_scan_matches_reference(
                graph, residue, np.zeros(n), rng.normal(scale=0.5, size=n),
                max_passes, source=source, policy=policy,
            )

    def test_zero_threshold_is_the_full_sweep_on_non_negative_residues(
        self, medium_graph
    ):
        n = medium_graph.num_nodes
        residue = np.random.default_rng(3).random(n)
        residue[::3] = 0.0
        full = assert_sweep_matches_reference(medium_graph, residue, np.zeros(n))
        dead_mass = settle(
            medium_graph, residue.copy(), np.zeros(n), np.empty(n), ALPHA
        )[2]
        full[0][5] += dead_mass
        _, *zero = assert_scan_matches_reference(
            medium_graph, residue, np.zeros(n), np.zeros(n), source=5
        )
        for a, b in zip(full, zero):
            assert a.tobytes() == b.tobytes()

    def test_threshold_checked_and_read_only_accepted(self, medium_graph):
        n = medium_graph.num_nodes
        read_only = np.full(n, 1e-3)
        read_only.flags.writeable = False
        assert_scan_matches_reference(
            medium_graph, np.full(n, 2e-3), np.zeros(n), read_only
        )
        bad = {
            "float32": np.zeros(n, dtype=np.float32),
            "non-contiguous": np.zeros((n, 2))[:, 0],
            "wrong length": np.zeros(n - 1),
            "a list": [0.0] * n,
        }
        for label, array in bad.items():
            arrays = [np.full(n, 0.5) for _ in range(2)]
            with pytest.raises(ParameterError, match="threshold"):
                refine_passes(
                    medium_graph, *arrays, ALPHA, array, 1,
                    source=0, dead_end_policy="redirect-to-source",
                )
            assert all((a == 0.5).all() for a in arrays), label
        # What the scan writes must also be writable.
        bad["read-only"] = np.zeros(n)
        bad["read-only"].flags.writeable = False
        del bad["a list"]
        for label, array in bad.items():
            for slot in range(2):
                arrays = [np.full(n, 0.5) for _ in range(2)]
                arrays[slot] = array
                with pytest.raises(ParameterError, match="float64"):
                    refine_passes(
                        medium_graph, *arrays, ALPHA, np.zeros(n), 1,
                        source=0, dead_end_policy="redirect-to-source",
                    )
                assert (arrays[1 - slot] == 0.5).all(), label

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"max_passes": 0}, "max_passes"),
            ({"source": -1}, "source"),
            ({"source": 300}, "source"),
            ({"dead_end_policy": "teleport"}, "policy"),
        ],
    )
    def test_other_arguments_checked(self, medium_graph, change, match):
        n = medium_graph.num_nodes
        residue = np.full(n, 0.5)
        kwargs = {
            "max_passes": 1, "source": 0, "dead_end_policy": "uniform-teleport",
            **change,
        }
        with pytest.raises(ParameterError, match=match):
            refine_passes(
                medium_graph, residue, np.zeros(n), ALPHA, np.zeros(n), **kwargs
            )
        assert (residue == 0.5).all()

    def test_dead_end_mass_under_self_loop_is_an_error(self):
        graph = chain_graph(3)
        with pytest.raises(AssertionError, match="self-loop"):
            refine_passes(
                graph, np.array([0.0, 0.0, 1.0]), np.zeros(3), ALPHA,
                np.zeros(3), 5, source=0, dead_end_policy="self-loop",
            )


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
