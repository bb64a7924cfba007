"""FIFO-FwdPush on PowerPush's queue rounds, against the loop it replaced.

``fifo_forward_push`` alternates ``queue_rounds`` (no ``r_sum`` target,
PowerPush's ``n / 4`` switch) with single ``async_sweep`` calls.  Before,
a Python loop called, per iteration, a kernel that built the active
mask, pushed the frontier through ``frontier_push`` when it held at most
a quarter of the nodes, and swept otherwise.  ``reference_fifo`` below is
that loop, and the solver must return its bytes: the estimate, the
residue, every counter, the trace's ``(residue_updates, r_sum)`` points
and, when ``max_sweeps`` runs out, the same ``ConvergenceError``.

``max_sweeps`` takes integers only, for FIFO-FwdPush and ResAcc alike,
directly or through ``solve`` and ``PPREngine``: anything else raises
``ParameterError`` before a push.
"""

from __future__ import annotations

import importlib
import math

import numpy as np
import pytest

from test_core_async_sweep import CORNER_GRAPHS, POLICIES, prepared
from test_golden_traces import load_golden_graph

from repro.api import PPREngine, solve
from repro.baselines.resacc import resacc
from repro.core.fifo_fwdpush import fifo_forward_push, r_max_for_l1_threshold
from repro.core.kernels import async_sweep, frontier_push
from repro.core.residues import PushState
from repro.errors import ConvergenceError, ParameterError
from repro.graph.build import from_edges, star_graph
from repro.instrumentation.tracing import ConvergenceTrace

ALPHA = 0.2
# The modules, not the functions their packages re-export under the
# same names.
fifo_module = importlib.import_module("repro.core.fifo_fwdpush")
resacc_module = importlib.import_module("repro.baselines.resacc")


def reference_fifo(
    graph, source, *, r_max, dead_end_policy, max_sweeps=None, trace=None
):
    """The FIFO-FwdPush loop the C queue rounds replaced: per iteration,
    push the active set as one frontier while it holds at most a quarter
    of the nodes, else sweep every node holding residue.  Returns the
    state."""
    if max_sweeps is None:
        lam = max(r_max * max(graph.num_edges, 1), 1e-300)
        max_sweeps = int(8.0 * (math.log(max(1.0 / lam, 2.0)) + 1.0) / ALPHA) + 64
    state = PushState(graph, source, ALPHA, dead_end_policy=dead_end_policy)
    if trace is not None:
        trace.restart_clock()
        trace.record(0, state.r_sum)
    threshold = state.threshold_vector(r_max)
    sweeps = 0
    while True:
        frontier = np.flatnonzero(state.residue > threshold)
        if frontier.shape[0] == 0:
            break
        if frontier.shape[0] <= 0.25 * graph.num_nodes:
            frontier_push(state, frontier)
        else:
            async_sweep(state)
        sweeps += 1
        state.counters.iterations = sweeps
        if sweeps > max_sweeps:
            raise ConvergenceError(
                f"FIFO-FwdPush exceeded {max_sweeps} sweeps "
                f"(r_sum={state.refresh_r_sum():.3e}, r_max={r_max:.3e})"
            )
        if trace is not None:
            trace.maybe_record(state.counters.residue_updates, state.r_sum)
    state.refresh_r_sum()
    if trace is not None:
        trace.record(state.counters.residue_updates, state.r_sum)
    return state


def dead_end_graph(n=60, seed=3):
    """A random digraph in which every fifth node is a dead end."""
    rng = np.random.default_rng(seed)
    edges = [
        (u, v)
        for u, v in rng.integers(0, n, (4 * n, 2)).tolist()
        if u % 5
    ]
    return from_edges(edges, num_nodes=n)


GRAPHS = {
    **{name: CORNER_GRAPHS[name] for name in ("star-both", "star-out", "chain",
                                              "parallel-edges", "self-loops")},
    "dead-ends": dead_end_graph(),
    "wide-star": star_graph(400),
}


def assert_same_run(graph, source, r_max, policy, stride):
    trace, expected_trace = ConvergenceTrace(stride), ConvergenceTrace(stride)
    got = fifo_forward_push(
        graph, source, r_max=r_max, dead_end_policy=policy, trace=trace
    )
    expected = reference_fifo(
        graph, source, r_max=r_max, dead_end_policy=policy,
        trace=expected_trace,
    )
    assert got.estimate.tobytes() == expected.reserve.tobytes()
    assert got.residue.tobytes() == expected.residue.tobytes()
    assert got.counters.as_dict() == expected.counters.as_dict()
    assert trace.series_vs_updates() == expected_trace.series_vs_updates()
    return got.counters.iterations


def assert_same_cap(graph, source, r_max, policy, needed):
    """At each cap both loops stop after the same iteration with the same
    message, or both finish."""
    for max_sweeps in (-1, 0, 1, needed - 1, needed):
        kwargs = {"r_max": r_max, "dead_end_policy": policy,
                  "max_sweeps": max_sweeps}
        if max_sweeps >= needed:
            fifo_forward_push(graph, source, **kwargs)
            continue
        with pytest.raises(ConvergenceError) as expected:
            reference_fifo(graph, source, **kwargs)
        with pytest.raises(ConvergenceError, match=r"exceeded .* sweeps") as got:
            fifo_forward_push(graph, source, **kwargs)
        assert str(got.value) == str(expected.value)


class TestReferenceFifo:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("l1_threshold", [1e-8, 1e-3])
    def test_golden_graph(self, policy, l1_threshold):
        graph = prepared(load_golden_graph(), policy)
        r_max = r_max_for_l1_threshold(graph, l1_threshold)
        for source in (0, 17):
            needed = assert_same_run(graph, source, r_max, policy, stride=0)
            assert_same_run(graph, source, r_max, policy, stride=500)
            assert_same_cap(graph, source, r_max, policy, needed)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_corner_graphs(self, name, policy):
        graph = prepared(GRAPHS[name], policy)
        for source in (0, graph.num_nodes - 1):
            for r_max in (1e-3, 1e-9):
                needed = assert_same_run(graph, source, r_max, policy, stride=0)
                assert_same_cap(graph, source, r_max, policy, needed)

    def test_both_sides_of_the_switch_run(self, monkeypatch):
        """The golden graph at lambda = 1e-8 takes rounds and sweeps, and
        no queue appends are billed: those are PowerPush's."""
        sweeps = []
        monkeypatch.setattr(
            fifo_module, "async_sweep",
            lambda state: sweeps.append(async_sweep(state)),
        )
        result = fifo_forward_push(load_golden_graph(), 0, l1_threshold=1e-8)
        assert 0 < len(sweeps) < result.counters.iterations
        assert result.counters.queue_appends == 0


SOLVERS = {
    "fifo-fwdpush": (fifo_module, fifo_forward_push, {"l1_threshold": 1e-6}),
    "resacc": (resacc_module, resacc, {"epsilon": 0.5, "seed": 3}),
}


def direct(name, graph, **params):
    _, function, base = SOLVERS[name]
    params = {**base, **params}
    if "seed" in params:
        params["rng"] = np.random.default_rng(params.pop("seed"))
    return function(graph, 0, **params)


class TestMaxSweepsIsAnInteger:
    @pytest.fixture
    def graph(self):
        return load_golden_graph()

    @pytest.mark.parametrize(
        "bad", ["x", "5", math.nan, math.inf, True, False, 2.5, 3.0, np.float64(4.0)]
    )
    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_refused_before_any_push(self, monkeypatch, graph, name, bad):
        module, _, base = SOLVERS[name]

        def no_push(*args, **kwargs):
            raise AssertionError("a push state was made")

        monkeypatch.setattr(module, "PushState", no_push)
        calls = (
            lambda: direct(name, graph, max_sweeps=bad),
            lambda: solve(graph, 0, name, max_sweeps=bad, **base),
            lambda: PPREngine(graph).query(0, name, max_sweeps=bad, **base),
        )
        for call in calls:
            with pytest.raises(ParameterError, match="max_sweeps"):
                call()

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_every_integer_keeps_its_meaning(self, graph, name):
        free = direct(name, graph)
        for big in (2**63, 10**30, np.int64(2**62)):
            capped = direct(name, graph, max_sweeps=big)
            assert capped.estimate.tobytes() == free.estimate.tobytes()
            assert capped.counters.as_dict() == free.counters.as_dict()
        for small in (0, -1, -(10**30), np.int32(0)):
            with pytest.raises(ConvergenceError, match="exceeded"):
                direct(name, graph, max_sweeps=small)
