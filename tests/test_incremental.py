"""IncrementalPPR: push-invariant corrections match from-scratch solves.

The load-bearing guarantee: after any stream of journalled edge
updates, ``refresh()`` produces an estimate certified to the same
``l1_threshold`` as a from-scratch PowerPush on the compacted graph —
so the two answers agree within the sum of the two certificates — and
(for realistic perturbations) pays measurably fewer residue updates.

``reference_certify`` is the loop ``IncrementalPPR`` ran in Python to
re-certify, before it became ``scan_epochs`` in ``_kernels.c``, on the
pure-Python sweep and extrapolation references: the C must give its
bytes and its counters.
"""

import numpy as np
import pytest
from test_core_async_sweep import (
    CORNER_GRAPHS,
    prepared,
    reference_extrapolate_window,
    reference_sweep,
)

import repro.core.incremental as incremental
from repro.core.incremental import IncrementalPPR
from repro.core.powerpush import PowerPushConfig, power_push
from repro.errors import ConvergenceError, ParameterError
from repro.instrumentation.counters import PushCounters
from repro.generators.rmat import rmat_digraph
from repro.graph.build import from_edges
from repro.graph.dynamic import DynamicGraph, sample_edge_update
from repro.instrumentation.tracing import ConvergenceTrace

# Dependency floor: the incremental certification's C loop against the Python loop it
# replaced.
pytestmark = pytest.mark.floor

ALPHA = 0.2
LAMBDA = 1e-8


def make_dynamic(scale: int, edges: int, seed: int) -> DynamicGraph:
    rng = np.random.default_rng(seed)
    return DynamicGraph(rmat_digraph(scale, edges, rng=rng, name="rmat-dyn"))


def scratch_solve(dyn: DynamicGraph, source: int):
    return power_push(
        dyn.snapshot(), source, alpha=ALPHA, l1_threshold=LAMBDA
    )


class TestSingleUpdate:
    @pytest.mark.parametrize("op", ["+", "-"])
    def test_one_update_matches_scratch(self, op):
        dyn = make_dynamic(9, 3000, seed=11)
        rng = np.random.default_rng(23)
        tracker = IncrementalPPR(
            dyn, 0, alpha=ALPHA, l1_threshold=LAMBDA
        )
        while True:
            candidate = sample_edge_update(dyn, rng)
            if candidate[0] == op:
                break
        dyn.apply_updates([candidate])
        result = tracker.refresh()
        scratch = scratch_solve(dyn, 0)
        gap = float(np.abs(result.estimate - scratch.estimate).sum())
        assert tracker.error_bound <= LAMBDA
        assert gap <= tracker.error_bound + scratch.r_sum + 1e-14
        assert result.counters.extras["residue_corrections"] == 1

    def test_estimate_sums_to_one_within_bound(self):
        dyn = make_dynamic(9, 3000, seed=11)
        rng = np.random.default_rng(23)
        tracker = IncrementalPPR(dyn, 0, alpha=ALPHA, l1_threshold=LAMBDA)
        for _ in range(10):
            dyn.apply_updates([sample_edge_update(dyn, rng)])
        result = tracker.refresh()
        assert abs(float(result.estimate.sum()) - 1.0) <= LAMBDA


class TestRandomizedEquivalence:
    """Seeded k-update streams: the PR's acceptance-criterion test."""

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_k_random_updates_match_scratch(self, seed):
        dyn = make_dynamic(10, 6000, seed=seed)
        rng = np.random.default_rng(seed + 1000)
        source = int(rng.integers(0, dyn.num_nodes))
        tracker = IncrementalPPR(
            dyn, source, alpha=ALPHA, l1_threshold=LAMBDA
        )
        for _ in range(60):
            dyn.apply_updates([sample_edge_update(dyn, rng)])
        result = tracker.refresh()
        scratch = scratch_solve(dyn, source)
        gap = float(np.abs(result.estimate - scratch.estimate).sum())
        assert tracker.error_bound <= LAMBDA
        assert scratch.r_sum <= LAMBDA
        assert gap <= tracker.error_bound + scratch.r_sum + 1e-14

    def test_100_updates_on_rmat_fewer_residue_updates(self):
        """Acceptance: same certified result, measurably fewer updates.

        Both cost counters come from ConvergenceTrace recordings, the
        same instrumentation Figure 6 uses.  Measured: 198 783 residue
        updates for the refresh against 275 316 from scratch (0.72x),
        both sides extrapolating their epoch ends; without that on
        either side it was 488 887 against 753 696, and with it from
        scratch only the refresh would lose, 488 887 against 275 316.
        """
        dyn = make_dynamic(11, 16_000, seed=3)
        rng = np.random.default_rng(99)
        source = 3
        tracker = IncrementalPPR(
            dyn, source, alpha=ALPHA, l1_threshold=LAMBDA
        )
        for _ in range(100):
            dyn.apply_updates([sample_edge_update(dyn, rng)])

        inc_trace = ConvergenceTrace()
        result = tracker.refresh(trace=inc_trace)
        scratch_trace = ConvergenceTrace()
        scratch = power_push(
            dyn.snapshot(),
            source,
            alpha=ALPHA,
            l1_threshold=LAMBDA,
            trace=scratch_trace,
        )

        # Same r_max-certified contract on the compacted graph ...
        assert tracker.error_bound <= LAMBDA
        assert scratch.r_sum <= LAMBDA
        gap = float(np.abs(result.estimate - scratch.estimate).sum())
        assert gap <= tracker.error_bound + scratch.r_sum + 1e-14
        # ... and both traces certify it (final r_sum sample <= lambda).
        assert inc_trace.points[-1].r_sum <= LAMBDA
        assert scratch_trace.points[-1].r_sum <= LAMBDA

        # Measurably fewer residue updates, per the traces' counters.
        inc_updates = inc_trace.points[-1].residue_updates
        scratch_updates = scratch_trace.points[-1].residue_updates
        assert inc_updates == result.counters.residue_updates
        assert scratch_updates == scratch.counters.residue_updates
        assert inc_updates < 0.8 * scratch_updates

    def test_interleaved_refreshes_stay_consistent(self):
        dyn = make_dynamic(9, 3000, seed=5)
        rng = np.random.default_rng(6)
        tracker = IncrementalPPR(dyn, 1, alpha=ALPHA, l1_threshold=LAMBDA)
        for _ in range(4):
            for _ in range(15):
                dyn.apply_updates([sample_edge_update(dyn, rng)])
            result = tracker.refresh()
            scratch = scratch_solve(dyn, 1)
            gap = float(np.abs(result.estimate - scratch.estimate).sum())
            assert gap <= tracker.error_bound + scratch.r_sum + 1e-14
            assert not tracker.stale


class TestLifecycle:
    def test_idle_refresh_is_free(self):
        dyn = make_dynamic(9, 3000, seed=2)
        tracker = IncrementalPPR(dyn, 0, alpha=ALPHA, l1_threshold=LAMBDA)
        result = tracker.refresh()
        assert result.counters.residue_updates == 0
        assert result.counters.pushes == 0

    def test_stale_flag_and_version(self):
        dyn = make_dynamic(9, 3000, seed=2)
        rng = np.random.default_rng(8)
        tracker = IncrementalPPR(dyn, 0, alpha=ALPHA, l1_threshold=LAMBDA)
        assert not tracker.stale and tracker.version == 0
        dyn.apply_updates([sample_edge_update(dyn, rng)])
        assert tracker.stale
        tracker.refresh()
        assert not tracker.stale and tracker.version == dyn.version

    def test_requires_dynamic_graph(self, paper_graph):
        with pytest.raises(ParameterError, match="DynamicGraph"):
            IncrementalPPR(paper_graph, 0)

    def test_dead_end_graph_rejected_at_init(self):
        base = from_edges([(0, 1), (1, 0), (1, 2)])  # 2 is a dead end
        with pytest.raises(ParameterError, match="dead-end-free"):
            IncrementalPPR(DynamicGraph(base), 0)

    def test_dead_end_created_by_update_rejected_at_refresh(self):
        base = from_edges([(0, 1), (1, 0), (1, 2), (2, 0)])
        dyn = DynamicGraph(base)
        tracker = IncrementalPPR(dyn, 0, alpha=ALPHA, l1_threshold=LAMBDA)
        dyn.remove_edge(2, 0)  # 2 becomes a dead end
        with pytest.raises(ParameterError, match="dead-end-free"):
            tracker.refresh()

    def test_trimmed_journal_falls_back_to_rebuild(self):
        dyn = make_dynamic(9, 3000, seed=4)
        rng = np.random.default_rng(12)
        tracker = IncrementalPPR(dyn, 0, alpha=ALPHA, l1_threshold=LAMBDA)
        for _ in range(5):
            dyn.apply_updates([sample_edge_update(dyn, rng)])
        dyn.trim_journal(dyn.version)  # tracker can no longer replay
        result = tracker.refresh()
        assert result.counters.extras.get("full_rebuilds") == 1
        scratch = scratch_solve(dyn, 0)
        gap = float(np.abs(result.estimate - scratch.estimate).sum())
        assert gap <= tracker.error_bound + scratch.r_sum + 1e-14
        assert not tracker.stale

    def test_degree_boundary_update_falls_back_to_rebuild(self):
        """Deleting a last-out-edge then re-inserting another has no
        local correction (the old transition row vanishes); the tracker
        must detect it and rebuild, still matching scratch."""
        base = from_edges(
            [(0, 1), (1, 0), (1, 2), (2, 0), (0, 2), (2, 1)]
        )
        dyn = DynamicGraph(base)
        tracker = IncrementalPPR(dyn, 0, alpha=ALPHA, l1_threshold=LAMBDA)
        dyn.remove_edge(2, 0)
        dyn.remove_edge(2, 1)   # degree 1 -> 0: no local correction
        dyn.add_edge(2, 1)      # degree 0 -> 1: no local correction
        result = tracker.refresh()
        assert result.counters.extras.get("full_rebuilds") == 1
        scratch = scratch_solve(dyn, 0)
        gap = float(np.abs(result.estimate - scratch.estimate).sum())
        assert gap <= tracker.error_bound + scratch.r_sum + 1e-14


def reference_certify(snapshot, p, r, alpha, l1_threshold, counters):
    """``IncrementalPPR._certify`` as a Python loop: signed sweeps under
    geometrically shrinking targets of ``sum(|r|)``, each epoch that
    swept ending in an extrapolation."""
    n = snapshot.num_nodes
    bound = float(np.abs(r).sum())
    if bound <= l1_threshold:
        return
    shrink = l1_threshold ** (1.0 / PowerPushConfig().epoch_num)
    targets = []
    target = bound
    while target > l1_threshold:
        target = max(target * shrink, l1_threshold)
        targets.append(target)
    r_before = np.empty(n)
    settled = np.empty(n)
    for target in targets:
        swept = False
        while float(np.abs(r).sum()) > target:
            r_before[:] = r
            pushes, updates, _ = reference_sweep(snapshot, r, p, settled, alpha)
            counters.count_bulk_pushes(pushes, updates)
            counters.iterations += 1
            swept = True
        if (
            swept
            and float(np.abs(r).sum()) > l1_threshold
            and reference_extrapolate_window(p, r, settled, r_before)
        ):
            counters.bump("extrapolations")


def perturbed_tracker(graph, source, l1_threshold, seed):
    """A certified tracker whose pair then took a signed perturbation,
    as a journal replay leaves it."""
    tracker = IncrementalPPR(
        DynamicGraph(graph), source, alpha=ALPHA, l1_threshold=l1_threshold
    )
    rng = np.random.default_rng(seed)
    n = graph.num_nodes
    tracker._r += rng.normal(scale=1e-3, size=n) * (rng.random(n) < 0.5)
    return tracker


class TestTheCertificationInC:
    """``_certify`` gives the bytes of the loop it ran in Python."""

    def assert_same_certification(self, tracker, l1_threshold):
        snapshot = tracker.graph.snapshot()
        p, r = tracker._p.copy(), tracker._r.copy()
        expected = PushCounters()
        reference_certify(snapshot, p, r, ALPHA, l1_threshold, expected)
        got = PushCounters()
        tracker._certify(snapshot, got, None)
        assert tracker._p.tobytes() == p.tobytes()
        assert tracker._r.tobytes() == r.tobytes()
        assert got.as_dict() == expected.as_dict()
        assert tracker.error_bound <= l1_threshold
        return got

    @pytest.mark.parametrize("l1", [1e-4, 1e-8])
    @pytest.mark.parametrize(
        # A DynamicGraph holds no parallel edges.
        "name", sorted(set(CORNER_GRAPHS) - {"parallel-edges"})
    )
    def test_corner_graphs(self, name, l1):
        # The certification runs on dead-end-free graphs only, so every
        # dead-end policy reaches it as the structural self-loop graph.
        graph = prepared(CORNER_GRAPHS[name], "self-loop")
        for source in (0, graph.num_nodes - 1):
            for seed in range(3):
                self.assert_same_certification(
                    perturbed_tracker(graph, source, l1, seed), l1
                )

    def test_a_journal_replay(self):
        dyn = make_dynamic(9, 3000, seed=11)
        rng = np.random.default_rng(23)
        tracker = IncrementalPPR(dyn, 0, alpha=ALPHA, l1_threshold=LAMBDA)
        for _ in range(30):
            dyn.apply_updates([sample_edge_update(dyn, rng)])
        for update in dyn.updates_since(tracker.version):
            tracker._apply_correction(update, PushCounters())
        counters = self.assert_same_certification(tracker, LAMBDA)
        assert counters.extras["extrapolations"] >= 1

    def test_a_traced_refresh_is_an_untraced_one(self):
        results = []
        for trace in (None, ConvergenceTrace()):
            dyn = make_dynamic(9, 3000, seed=11)
            rng = np.random.default_rng(23)
            tracker = IncrementalPPR(dyn, 0, alpha=ALPHA, l1_threshold=LAMBDA)
            for _ in range(30):
                dyn.apply_updates([sample_edge_update(dyn, rng)])
            results.append(tracker.refresh(trace=trace))
        plain, traced = results
        assert traced.estimate.tobytes() == plain.estimate.tobytes()
        assert traced.residue.tobytes() == plain.residue.tobytes()
        assert traced.counters.as_dict() == plain.counters.as_dict()
        updates, errors = traced.trace.series_vs_updates()
        assert len(updates) > 3 and updates == sorted(updates)
        assert errors[-1] <= LAMBDA

    def test_the_sweep_cap_raises(self, monkeypatch):
        monkeypatch.setattr(incremental, "_MAX_SWEEPS", 2)
        tracker = perturbed_tracker(
            prepared(CORNER_GRAPHS["star-both"], "self-loop"), 0, LAMBDA, 0
        )
        with pytest.raises(ConvergenceError, match="2 sweeps"):
            tracker._certify(tracker.graph.snapshot(), PushCounters(), None)
