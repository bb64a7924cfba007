"""Unit tests for PowerPush (Algorithm 3).

``reference_power_push`` below is Algorithm 3 line for line: a scalar
FIFO queue, then active-only scans under the dynamic thresholds, with
no epoch-end extrapolation.  ``power_push`` is checked against it and
against the exact vector; the Section 5 epoch claim is checked on it,
where accumulate-then-push is what the paper describes.

``reference_run`` is the loop ``power_push`` ran in Python before its
queue rounds and scan epochs moved into ``_kernels.c``, on the
pure-Python sweep and extrapolation references: the C must give its
bytes, its counters and its ``r_sum``, traced or not.
"""

from collections import deque

import numpy as np
import pytest
from test_core_async_sweep import (
    CORNER_GRAPHS,
    POLICIES,
    prepared,
    reference_extrapolate_window,
    reference_sweep,
)
from test_core_extrapolation import dead_end_fifth

from repro.api import PPREngine, solve
from repro.core.kernels import _apply_dead_end_mass, frontier_push
from repro.core.powerpush import (
    PowerPushConfig,
    _check_budget,
    _epoch_target,
    _push_budget,
    power_push,
)
from repro.core.residues import PushState
from repro.core.result import PPRResult
from repro.errors import ConvergenceError, ParameterError
from repro.graph.build import empty_graph, from_edges
from repro.instrumentation.tracing import ConvergenceTrace
from repro.metrics.errors import l1_error
from repro.metrics.ground_truth import exact_ppr_dense

# Dependency floor: PowerPush's C queue rounds and scan epochs against the Python loop
# they replaced.
pytestmark = pytest.mark.floor


def reference_power_push(
    graph,
    source,
    *,
    alpha=0.2,
    l1_threshold=1e-8,
    config=None,
    dead_end_policy="redirect-to-source",
    max_work_factor=64.0,
):
    """Algorithm 3 verbatim, one Python-level push at a time."""
    config = config or PowerPushConfig()
    state = PushState(graph, source, alpha, dead_end_policy=dead_end_policy)
    n, m = graph.num_nodes, graph.num_edges
    r_max = l1_threshold / m
    scan_threshold = config.scan_threshold(n)
    budget = _push_budget(alpha, l1_threshold, m, max_work_factor)

    # --- Queue phase (Lines 4-13) -------------------------------------
    queue = deque()
    in_queue = bytearray(n)
    if state.is_active(source, r_max):
        queue.append(source)
        in_queue[source] = 1
        state.counters.queue_appends += 1
    while queue and len(queue) <= scan_threshold and state.r_sum > l1_threshold:
        v = queue.popleft()
        in_queue[v] = 0
        state.push(v)
        _check_budget(state, budget)
        for u in graph.out_neighbors(v):
            if not in_queue[u] and state.is_active(u, r_max):
                queue.append(int(u))
                in_queue[u] = 1
                state.counters.queue_appends += 1

    # --- Sequential-scan phase with dynamic thresholds (Lines 14-24) --
    if state.refresh_r_sum() > l1_threshold:
        for epoch in range(1, config.epoch_num + 1):
            state.counters.bump("epochs")
            epoch_r_max = l1_threshold ** (epoch / config.epoch_num) / m
            while state.r_sum > m * epoch_r_max:
                progressed = False
                for v in range(n):
                    if state.is_active(v, epoch_r_max):
                        state.push(v)
                        progressed = True
                        _check_budget(state, budget)
                state.refresh_r_sum()
                if not progressed:
                    break

    state.refresh_r_sum()
    return PPRResult(
        estimate=state.reserve,
        residue=state.residue,
        source=source,
        alpha=alpha,
        counters=state.counters,
        method="PowerPush[reference]",
    )


def reference_run(state, l1_threshold, config, trace, max_work_factor):
    """PowerPush's ``_run`` as a Python loop: whole-frontier rounds, then
    epochs of sweeps, each epoch that swept ending in an extrapolation."""
    graph = state.graph
    n, m = graph.num_nodes, graph.num_edges
    r_max = l1_threshold / m
    scan_threshold = config.scan_threshold(n)
    budget = _push_budget(state.alpha, l1_threshold, m, max_work_factor)

    while state.r_sum > l1_threshold:
        frontier = state.active_nodes(r_max)
        if frontier.shape[0] == 0 or frontier.shape[0] > scan_threshold:
            break
        frontier_push(state, frontier)
        state.counters.queue_appends += frontier.shape[0]
        _check_budget(state, budget)
        if trace is not None:
            trace.maybe_record(state.counters.residue_updates, state.r_sum)

    if state.refresh_r_sum() > l1_threshold:
        r_before = np.empty(n)
        settled = np.empty(n)
        for epoch in range(1, config.epoch_num + 1):
            state.counters.bump("epochs")
            target = _epoch_target(l1_threshold, epoch, config.epoch_num)
            swept = False
            while state.r_sum > target:
                r_before[:] = state.residue
                pushes, updates, dead_mass = reference_sweep(
                    graph, state.residue, state.reserve, settled, state.alpha
                )
                state.counters.count_bulk_pushes(pushes, updates)
                _apply_dead_end_mass(state, dead_mass)
                state.refresh_r_sum()
                swept = True
                _check_budget(state, budget)
                if trace is not None:
                    trace.maybe_record(
                        state.counters.residue_updates, state.r_sum
                    )
            if (
                swept
                and state.r_sum > l1_threshold
                and reference_extrapolate_window(
                    state.reserve, state.residue, settled, r_before
                )
            ):
                state.counters.bump("extrapolations")
                state.refresh_r_sum()
                if trace is not None:
                    trace.maybe_record(
                        state.counters.residue_updates, state.r_sum
                    )


def reference_solve(
    graph,
    source,
    *,
    l1_threshold,
    dead_end_policy="redirect-to-source",
    config=None,
    max_work_factor=64.0,
):
    """``power_push`` on ``reference_run`` (graphs with at least one edge)."""
    state = PushState(graph, source, 0.2, dead_end_policy=dead_end_policy)
    reference_run(
        state, l1_threshold, config or PowerPushConfig(), None, max_work_factor
    )
    state.refresh_r_sum()
    return state


def assert_same_solve(result, state):
    assert result.estimate.tobytes() == state.reserve.tobytes()
    assert result.residue.tobytes() == state.residue.tobytes()
    assert result.counters.as_dict() == state.counters.as_dict()
    assert np.float64(result.r_sum).tobytes() == np.float64(state.r_sum).tobytes()


class TestTheLoopInC:
    """``power_push`` gives the bytes of the loop it ran in Python."""

    @pytest.mark.parametrize("l1", [1e-4, 1e-8])
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("name", sorted(CORNER_GRAPHS))
    def test_corner_graphs(self, name, policy, l1):
        graph = prepared(CORNER_GRAPHS[name], policy)
        for source in (0, graph.num_nodes - 1):
            result = power_push(
                graph, source, l1_threshold=l1, dead_end_policy=policy
            )
            assert_same_solve(
                result,
                reference_solve(
                    graph, source, l1_threshold=l1, dead_end_policy=policy
                ),
            )

    @pytest.mark.parametrize(
        "config",
        [
            PowerPushConfig(),
            PowerPushConfig(epoch_num=1),
            PowerPushConfig(epoch_num=3, scan_threshold_fraction=0.0),
            PowerPushConfig(scan_threshold_fraction=float("inf")),
        ],
        ids=["paper", "one-epoch", "scan-only", "queue-only"],
    )
    @pytest.mark.parametrize("policy", ["redirect-to-source", "uniform-teleport"])
    def test_configs_on_graphs_with_dead_ends(self, dead_end_graph, config, policy):
        # The last graph's rounds push many dead ends at once, so their
        # mass is a pairwise sum of unequal terms.
        for graph in (dead_end_graph, from_edges(
            [(0, 1), (1, 2), (2, 0), (2, 3), (3, 3), (4, 0)],
            drop_self_loops=False,
        ), dead_end_fifth()):
            for source in range(0, graph.num_nodes, 7):
                result = power_push(
                    graph, source, l1_threshold=1e-9, config=config,
                    dead_end_policy=policy,
                )
                assert_same_solve(
                    result,
                    reference_solve(
                        graph, source, l1_threshold=1e-9, config=config,
                        dead_end_policy=policy,
                    ),
                )

    def test_a_scale_free_graph(self, medium_graph):
        for source in (0, 7, 299):
            result = power_push(medium_graph, source, l1_threshold=1e-8)
            assert "extrapolations" in result.counters.extras
            assert_same_solve(
                result, reference_solve(medium_graph, source, l1_threshold=1e-8)
            )

    @pytest.mark.parametrize("policy", ["redirect-to-source", "uniform-teleport"])
    def test_a_traced_solve_is_an_untraced_one(self, medium_graph, policy):
        graph = from_edges(
            [(u, v) for u, v in medium_graph.iter_edges() if u % 7],
            num_nodes=medium_graph.num_nodes,
        )
        for source in (1, 50):
            trace = ConvergenceTrace()
            traced = power_push(
                graph, source, l1_threshold=1e-8, dead_end_policy=policy,
                trace=trace,
            )
            plain = power_push(
                graph, source, l1_threshold=1e-8, dead_end_policy=policy
            )
            assert traced.estimate.tobytes() == plain.estimate.tobytes()
            assert traced.residue.tobytes() == plain.residue.tobytes()
            assert traced.counters.as_dict() == plain.counters.as_dict()
            # One point per round, sweep and extrapolation, as the Python
            # loop recorded them, with real time.
            reference_trace = ConvergenceTrace()
            state = PushState(graph, source, 0.2, dead_end_policy=policy)
            reference_trace.record(0, state.r_sum)
            reference_run(
                state, 1e-8, PowerPushConfig(), reference_trace, 64.0
            )
            updates, r_sums = trace.series_vs_updates()
            assert (updates[:-1], r_sums[:-1]) == (
                reference_trace.series_vs_updates()
            )
            assert len(updates) > 10
            seconds, _ = trace.series_vs_time()
            assert seconds == sorted(seconds) and seconds[-1] > seconds[0]

    @pytest.mark.parametrize("l1", [1e-4, 1e-8])
    def test_an_exhausted_budget_raises(self, medium_graph, l1):
        """A tiny work factor leaves the 1024-update floor: the queue
        rounds or a sweep crosses it, and the solve raises."""
        with pytest.raises(ConvergenceError, match="work budget"):
            power_push(medium_graph, 0, l1_threshold=l1, max_work_factor=0.0)
        with pytest.raises(ConvergenceError, match="work budget"):
            reference_solve(medium_graph, 0, l1_threshold=l1, max_work_factor=0.0)

    def test_the_queue_rounds_can_exhaust_it(self):
        """A star whose hub pushes 2 000 edges in the first round, a
        frontier of one node: the queue phase raises, as the Python loop
        did."""
        from repro.graph.build import star_graph

        graph = star_graph(2_001)
        with pytest.raises(ConvergenceError, match="work budget"):
            power_push(graph, 0, l1_threshold=1e-8, max_work_factor=0.0)
        with pytest.raises(ConvergenceError, match="work budget"):
            reference_solve(graph, 0, l1_threshold=1e-8, max_work_factor=0.0)


#: The two implementations the bound tests run, under their old ids.
IMPLEMENTATIONS = pytest.mark.parametrize(
    "run", [reference_power_push, power_push], ids=["faithful", "vectorized"]
)


class TestCorrectness:
    @IMPLEMENTATIONS
    def test_error_bound_met(self, paper_graph, run):
        truth = exact_ppr_dense(paper_graph, 0)
        result = run(paper_graph, 0, l1_threshold=1e-9)
        assert l1_error(result.estimate, truth) <= 1e-9

    @IMPLEMENTATIONS
    def test_r_sum_below_lambda(self, paper_graph, run):
        result = run(paper_graph, 0, l1_threshold=1e-7)
        assert result.r_sum <= 1e-7

    def test_modes_agree(self, medium_graph):
        faithful = reference_power_push(medium_graph, 9, l1_threshold=1e-7)
        vectorized = power_push(medium_graph, 9, l1_threshold=1e-7)
        assert (
            np.abs(faithful.estimate - vectorized.estimate).sum() <= 2e-7
        )

    def test_all_sources_on_small_graph(self, paper_graph):
        for source in range(5):
            truth = exact_ppr_dense(paper_graph, source)
            result = power_push(paper_graph, source, l1_threshold=1e-10)
            assert l1_error(result.estimate, truth) <= 1e-10

    def test_dead_ends_redirect(self, dead_end_graph):
        truth = exact_ppr_dense(dead_end_graph, 0)
        result = power_push(dead_end_graph, 0, l1_threshold=1e-10)
        assert l1_error(result.estimate, truth) <= 1e-10

    def test_medium_graph_matches_ground_truth(self, medium_graph):
        from repro.metrics.ground_truth import ground_truth_ppr

        truth = ground_truth_ppr(medium_graph, 0, l1_threshold=1e-13)
        result = power_push(medium_graph, 0, l1_threshold=1e-8)
        assert l1_error(result.estimate, np.asarray(truth)) <= 1e-8

    def test_empty_graph(self):
        graph = empty_graph(3)
        result = power_push(graph, 1, l1_threshold=1e-8)
        np.testing.assert_allclose(result.estimate, [0, 1, 0])


class TestConfig:
    def test_rejects_bad_epochs(self):
        with pytest.raises(ParameterError):
            PowerPushConfig(epoch_num=0)

    @pytest.mark.parametrize("epoch_num", [2.7, True, "3", None])
    def test_rejects_non_integral_epochs(self, epoch_num):
        with pytest.raises(ParameterError, match="epoch_num"):
            PowerPushConfig(epoch_num=epoch_num)

    def test_rejects_negative_scan_fraction(self):
        with pytest.raises(ParameterError):
            PowerPushConfig(scan_threshold_fraction=-0.5)

    @pytest.mark.parametrize("fraction", [float("nan"), "0.25", None])
    def test_rejects_nan_or_non_numeric_scan_fraction(self, fraction):
        # NaN passed a ``< 0`` check and made PowerPush queue-only.
        with pytest.raises(ParameterError, match="scan_threshold_fraction"):
            PowerPushConfig(scan_threshold_fraction=fraction)

    def test_accepts_numpy_integer_epochs(self):
        assert PowerPushConfig(epoch_num=np.int64(3)).epoch_num == 3

    @pytest.mark.parametrize("config", [{"epoch_num": 2}, 8, "paper"])
    def test_config_must_be_a_powerpush_config(self, paper_graph, config):
        with pytest.raises(ParameterError, match="PowerPushConfig"):
            power_push(paper_graph, 0, config=config)
        with pytest.raises(ParameterError, match="PowerPushConfig"):
            solve(paper_graph, 0, "powerpush", config=config)
        with pytest.raises(ParameterError, match="PowerPushConfig"):
            PPREngine(paper_graph).query(0, "powerpush", config=config)

    def test_scan_threshold_scales_with_n(self):
        config = PowerPushConfig(scan_threshold_fraction=0.25)
        assert config.scan_threshold(400) == 100.0

    @pytest.mark.parametrize(
        "epoch_num,scan_fraction",
        [(1, 0.25), (8, 0.0), (8, float("inf")), (4, 0.5)],
    )
    def test_all_config_corners_converge(
        self, paper_graph, epoch_num, scan_fraction
    ):
        truth = exact_ppr_dense(paper_graph, 0)
        config = PowerPushConfig(
            epoch_num=epoch_num, scan_threshold_fraction=scan_fraction
        )
        result = power_push(
            paper_graph, 0, l1_threshold=1e-8, config=config
        )
        assert l1_error(result.estimate, truth) <= 1e-8

    def test_unknown_mode_rejected(self, paper_graph):
        # One path: there is no ``mode`` to choose.
        with pytest.raises(TypeError):
            power_push(paper_graph, 0, mode="vectorized")


class TestEfficiencyProperties:
    def test_fewer_updates_than_powitr(self, medium_graph):
        from repro.core.power_iteration import power_iteration

        pp = power_push(medium_graph, 4, l1_threshold=1e-8)
        pi = power_iteration(medium_graph, 4, l1_threshold=1e-8)
        assert (
            pp.counters.residue_updates <= pi.counters.residue_updates
        )

    def test_epochs_counter_recorded(self, medium_graph):
        result = power_push(medium_graph, 4, l1_threshold=1e-8)
        assert result.counters.extras.get("epochs", 0) >= 1

    def test_faithful_epochs_reduce_updates(self, medium_graph):
        # The Section-5 dynamic-threshold claim, on the asynchronous
        # scalar scan where accumulate-then-push pays off: 8 epochs
        # need substantially fewer residue updates than 1.
        with_epochs = reference_power_push(
            medium_graph,
            0,
            l1_threshold=1e-8,
            config=PowerPushConfig(epoch_num=8),
        )
        without_epochs = reference_power_push(
            medium_graph,
            0,
            l1_threshold=1e-8,
            config=PowerPushConfig(epoch_num=1),
        )
        assert (
            with_epochs.counters.residue_updates
            < 0.8 * without_epochs.counters.residue_updates
        )

    def test_trace_monotone_nonincreasing(self, medium_graph):
        trace = ConvergenceTrace(stride=0)
        power_push(medium_graph, 4, l1_threshold=1e-8, trace=trace)
        _, errors = trace.series_vs_time()
        assert errors[-1] <= 1e-8
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))

    def test_queue_phase_only_for_mild_threshold(self, paper_graph):
        # With a mild threshold the queue phase alone finishes the job.
        result = power_push(paper_graph, 0, l1_threshold=0.5)
        assert result.r_sum <= 0.5


class TestResultShape:
    def test_method_name(self, paper_graph):
        assert power_push(paper_graph, 0).method == "PowerPush"

    def test_top_k(self, paper_graph):
        result = power_push(paper_graph, 0, l1_threshold=1e-10)
        top = result.top_k(2)
        assert len(top) == 2
        # The source holds the largest PPR on this graph.
        assert top[0][0] == 0
        assert top[0][1] > top[1][1]
