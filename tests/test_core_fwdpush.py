"""Unit tests for Forward Push (Algorithm 1) and FIFO-FwdPush (Algorithm 2)."""

import numpy as np
import pytest

from repro.core.fifo_fwdpush import fifo_forward_push, r_max_for_l1_threshold
from repro.core.fwdpush import forward_push
from repro.errors import ConvergenceError, ParameterError
from repro.graph.build import from_edges
from repro.instrumentation.tracing import ConvergenceTrace
from repro.metrics.errors import l1_error
from repro.metrics.ground_truth import exact_ppr_dense


class TestTerminationGuarantee:
    @pytest.mark.parametrize("scheduler", ["fifo", "lifo", "max-residue"])
    def test_no_active_nodes_at_exit(self, paper_graph, scheduler):
        r_max = 0.01
        result = forward_push(
            paper_graph, 0, r_max=r_max, scheduler=scheduler
        )
        assert result.residue is not None
        assert np.all(
            result.residue <= paper_graph.out_degree * r_max + 1e-15
        )

    @pytest.mark.parametrize("scheduler", ["fifo", "lifo", "max-residue"])
    def test_l1_error_bounded_by_m_r_max(self, paper_graph, scheduler):
        r_max = 0.005
        truth = exact_ppr_dense(paper_graph, 0)
        result = forward_push(
            paper_graph, 0, r_max=r_max, scheduler=scheduler
        )
        assert (
            l1_error(result.estimate, truth)
            <= paper_graph.num_edges * r_max
        )

    def test_error_equals_r_sum_exactly(self, paper_graph):
        truth = exact_ppr_dense(paper_graph, 0)
        result = forward_push(paper_graph, 0, r_max=0.003)
        assert result.residue is not None
        assert l1_error(result.estimate, truth) == pytest.approx(
            result.residue.sum(), rel=1e-9
        )

    def test_dead_end_graph_terminates(self, dead_end_graph):
        truth = exact_ppr_dense(dead_end_graph, 0)
        result = forward_push(dead_end_graph, 0, r_max=1e-6)
        assert l1_error(result.estimate, truth) <= 1e-5

    def test_uniform_teleport_rescan_terminates(self, dead_end_graph):
        result = forward_push(
            dead_end_graph,
            0,
            r_max=1e-4,
            dead_end_policy="uniform-teleport",
        )
        assert result.residue is not None
        # Dead ends terminate at their conceptual degree (n here).
        effective = dead_end_graph.out_degree.copy()
        effective[dead_end_graph.dead_ends] = dead_end_graph.num_nodes
        assert np.all(result.residue <= effective * 1e-4 + 1e-15)


class TestValidation:
    def test_rejects_zero_r_max(self, paper_graph):
        with pytest.raises(ParameterError):
            forward_push(paper_graph, 0, r_max=0.0)

    def test_rejects_unknown_scheduler(self, paper_graph):
        with pytest.raises(ParameterError):
            forward_push(paper_graph, 0, r_max=0.1, scheduler="bogus")  # type: ignore[arg-type]

    def test_push_cap_raises(self, paper_graph):
        with pytest.raises(ConvergenceError):
            forward_push(paper_graph, 0, r_max=1e-9, max_pushes=3)


class TestSchedulerBehaviour:
    def test_all_schedulers_same_error_guarantee(self, medium_graph):
        r_max = 1e-5
        results = {
            s: forward_push(medium_graph, 5, r_max=r_max, scheduler=s)
            for s in ("fifo", "lifo", "max-residue")
        }
        for result in results.values():
            assert result.residue is not None
            assert result.residue.sum() <= medium_graph.num_edges * r_max

    def test_fifo_uses_fewer_or_equal_pushes_than_lifo(self, medium_graph):
        # Not a theorem, but holds robustly on scale-free graphs and
        # guards the implementation from silent scheduler regressions.
        r_max = 1e-5
        fifo = forward_push(medium_graph, 5, r_max=r_max, scheduler="fifo")
        lifo = forward_push(medium_graph, 5, r_max=r_max, scheduler="lifo")
        assert fifo.counters.pushes <= lifo.counters.pushes * 1.2


class TestFifoForwardPush:
    def test_requires_exactly_one_threshold(self, paper_graph):
        with pytest.raises(ParameterError):
            fifo_forward_push(paper_graph, 0)
        with pytest.raises(ParameterError):
            fifo_forward_push(
                paper_graph, 0, r_max=0.1, l1_threshold=1e-8
            )

    def test_r_max_derived_from_lambda(self, paper_graph):
        assert r_max_for_l1_threshold(paper_graph, 1.3e-7) == pytest.approx(
            1.3e-7 / 13
        )

    def test_faithful_and_frontier_agree(self, medium_graph):
        faithful = forward_push(
            medium_graph,
            3,
            r_max=r_max_for_l1_threshold(medium_graph, 1e-6),
            scheduler="fifo",
        )
        frontier = fifo_forward_push(medium_graph, 3, l1_threshold=1e-6)
        truth_gap = np.abs(faithful.estimate - frontier.estimate).sum()
        # Different push orders give different (but both valid) results
        # within the combined error budget.
        assert truth_gap <= 2e-6

    def test_frontier_mode_terminal_state(self, medium_graph):
        l1_threshold = 1e-7
        result = fifo_forward_push(
            medium_graph, 3, l1_threshold=l1_threshold
        )
        r_max = l1_threshold / medium_graph.num_edges
        assert result.residue is not None
        assert np.all(
            result.residue <= medium_graph.out_degree * r_max + 1e-15
        )

    def test_unknown_mode_rejected(self, paper_graph):
        # One path: there is no ``mode`` to choose.
        with pytest.raises(TypeError):
            fifo_forward_push(paper_graph, 0, r_max=0.01, mode="frontier")

    def test_trace_reaches_threshold(self, medium_graph):
        trace = ConvergenceTrace(stride=0)
        fifo_forward_push(
            medium_graph, 3, l1_threshold=1e-6, trace=trace
        )
        _, errors = trace.series_vs_time()
        assert errors[-1] <= 1e-6


class TestGeometricDecayTheorem43:
    """Empirical check of Lemma 4.4's geometric work/error relation."""

    def test_log_error_decreases_linearly_in_work(self, medium_graph):
        trace = ConvergenceTrace(stride=0)
        fifo_forward_push(
            medium_graph, 3, l1_threshold=1e-9, trace=trace
        )
        updates, errors = trace.series_vs_updates()
        # Fit log(error) ~ a * updates + b over the tail; slope must be
        # negative and the fit close to linear (R^2 > 0.9).
        mask = [e > 0 for e in errors]
        xs = np.array([u for u, keep in zip(updates, mask) if keep], float)
        ys = np.log(np.array([e for e, keep in zip(errors, mask) if keep]))
        if xs.shape[0] < 3:
            pytest.skip("trace too short")
        slope, intercept = np.polyfit(xs, ys, 1)
        predicted = slope * xs + intercept
        residual = ys - predicted
        r_squared = 1 - residual.var() / ys.var()
        assert slope < 0
        assert r_squared > 0.9
