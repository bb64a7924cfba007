"""PowItr's global sweep and preference PageRank read only the out-CSR.

Both step ``x -> x P`` with one range scatter over every node's
adjacency range (``repro.core.kernels._transition``).  The reference
here is the sparse mat-vec they ran before: ``P^T``, assembled in this
file from scipy alone (no library code builds it), dotted with
``(1 - alpha) * r``.  The scatter must give its bytes, not merely its
values — PowItr's goldens and SimFwdPush's Lemma 4.1 check rest on it —
on every corner graph and dead-end policy, on random multigraphs, and
on rows that are not sorted.  And no solver outside BePI may build
``P^T`` at all.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from test_core_async_sweep import CORNER_GRAPHS, POLICIES, prepared, random_graph
from test_golden_traces import (
    ATOL,
    CASES,
    SOURCES,
    VECTORS_FILE,
    compute_vector,
    load_golden_graph,
)

from repro.api import PPREngine, solver_specs
from repro.core.kernels import global_sweep
from repro.core.pagerank import pagerank, preference_pagerank
from repro.core.residues import PushState
from repro.graph.build import empty_graph
from repro.graph.digraph import DiGraph
from repro.graph.dynamic import DynamicGraph

ALPHA = 0.2

GRAPHS = {
    **CORNER_GRAPHS,
    "edgeless": empty_graph(4),
    # Rows 0 -> [2, 1, 3], 1 -> [0], 2 -> [1], 3 -> []: unsorted, one dead end.
    "unsorted-rows": DiGraph(np.array([0, 3, 4, 5, 5]), np.array([2, 1, 3, 0, 1])),
}


def reference_transition_t(graph):
    """``P^T`` from scipy, the way the library built it before."""
    degree = np.diff(graph.out_indptr)
    inverse = np.divide(1.0, degree, out=np.zeros(graph.num_nodes), where=degree > 0)
    p = csr_matrix(
        (np.repeat(inverse, degree), graph.out_indices, graph.out_indptr),
        shape=(graph.num_nodes, graph.num_nodes),
    )
    return p.T.tocsr()


def reference_global_sweep(graph, transition_t, residue, reserve, policy, source):
    """One PowItr step as a mat-vec; returns ``(residue, reserve)``."""
    reserve = reserve + ALPHA * residue
    moved = transition_t.dot((1.0 - ALPHA) * residue)
    dead = graph.dead_ends
    dead_mass = (1.0 - ALPHA) * float(residue[dead].sum()) if dead.shape[0] else 0.0
    if dead_mass:
        if policy == "redirect-to-source":
            moved[source] += dead_mass
        else:
            moved += dead_mass / graph.num_nodes
    return moved, reserve


def assert_sweeps_match(graph, policy, source, residue, sweeps=8):
    state = PushState(graph, source, ALPHA, dead_end_policy=policy)
    state.residue = residue.copy()
    state.refresh_r_sum()
    transition_t = reference_transition_t(graph)
    want_residue, want_reserve = residue.copy(), state.reserve.copy()
    for _ in range(sweeps):
        global_sweep(state)
        want_residue, want_reserve = reference_global_sweep(
            graph, transition_t, want_residue, want_reserve, policy, source
        )
        assert state.residue.tobytes() == want_residue.tobytes()
        assert state.reserve.tobytes() == want_reserve.tobytes()
        assert state.r_sum == float(want_residue.sum())


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_global_sweep_is_the_matvec(name, policy):
    graph = prepared(GRAPHS[name], policy)
    unit = np.zeros(graph.num_nodes)
    unit[0] = 1.0
    assert_sweeps_match(graph, policy, 0, unit)
    spread = np.random.default_rng(7).random(graph.num_nodes)
    assert_sweeps_match(graph, policy, graph.num_nodes - 1, spread)


@given(
    n=st.integers(1, 40),
    edge_seed=st.integers(0, 2**31 - 1),
    density=st.floats(0.0, 6.0),
    policy=st.sampled_from(POLICIES),
)
@settings(max_examples=60, deadline=None)
def test_global_sweep_is_the_matvec_on_random_multigraphs(n, edge_seed, density, policy):
    graph, source = random_graph(n, edge_seed, density)
    graph = prepared(graph, policy)
    residue = np.random.default_rng(edge_seed).random(graph.num_nodes)
    assert_sweeps_match(graph, policy, source, residue, sweeps=4)


def reference_preference_pagerank(graph, preference, l1_threshold):
    """The solver's loop over the reference mat-vec."""
    transition_t = reference_transition_t(graph)
    dead = graph.dead_ends
    preference = preference / float(preference.sum())
    reserve = np.zeros(graph.num_nodes)
    residue = preference.copy()
    r_sum, iterations = 1.0, 0
    while r_sum > l1_threshold:
        reserve += ALPHA * residue
        dead_mass = (1.0 - ALPHA) * float(residue[dead].sum()) if dead.shape[0] else 0.0
        residue = transition_t.dot((1.0 - ALPHA) * residue)
        if dead_mass:
            residue = residue + dead_mass * preference
        r_sum = float(residue.sum())
        iterations += 1
    return reserve, residue, iterations


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", sorted(CORNER_GRAPHS))
def test_preference_pagerank_is_the_matvec(name, policy):
    graph = prepared(CORNER_GRAPHS[name], policy)
    preference = np.random.default_rng(3).random(graph.num_nodes)
    got = preference_pagerank(graph, preference, alpha=ALPHA, l1_threshold=1e-10)
    reserve, residue, iterations = reference_preference_pagerank(
        graph, preference, 1e-10
    )
    assert got.estimate.tobytes() == reserve.tobytes()
    assert got.residue is not None
    assert got.residue.tobytes() == residue.tobytes()
    assert got.counters.iterations == iterations


def test_edgeless_preference_pagerank_returns_preference():
    """Every node a dead end: all mass teleports back to the preference."""
    preference = np.array([1.0, 2.0, 0.0, 5.0])
    threshold = 1e-9
    result = preference_pagerank(
        empty_graph(4), preference, alpha=ALPHA, l1_threshold=threshold
    )
    target = preference / preference.sum()
    assert np.abs(result.estimate - target).sum() <= threshold
    assert result.residue is not None and result.residue.sum() <= threshold


def test_no_solver_but_bepi_builds_the_transition_matrix(monkeypatch):
    """With ``P^T`` unavailable every other solver still answers its golden."""

    def refuse(self):
        raise AssertionError("transition_matrix_transpose called")

    monkeypatch.setattr(DiGraph, "transition_matrix_transpose", refuse)
    graph = load_golden_graph()
    answered = set()
    with np.load(VECTORS_FILE) as archive:
        for spec in solver_specs():
            if spec.tracked or spec.name in ("bepi", "bear"):
                continue
            for source in SOURCES:
                np.testing.assert_allclose(
                    compute_vector(graph, spec.name, source),
                    archive[f"{spec.name}__{source}"],
                    rtol=0,
                    atol=ATOL[spec.name],
                )
            answered.add(spec.name)
    assert answered == set(CASES) - {"bepi"}
    # The tracked solver answers through an engine over a DynamicGraph.
    engine = PPREngine(DynamicGraph(graph), alpha=ALPHA)
    tracked = engine.query(SOURCES[0], "incremental", l1_threshold=1e-8)
    assert tracked.residue is not None and tracked.residue.sum() <= 1e-8
    pagerank(graph)
