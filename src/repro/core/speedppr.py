"""SpeedPPR — the paper's approximate SSPPR algorithm (Algorithm 4).

SpeedPPR keeps FORA's two-phase framework but replaces the first phase
with a push all the way to ``r_max = 1/W``: no node is left with
``r(s,v) > d_v / W``.  Consequences (Theorem 6.1 and Section 6.2):

* the first phase costs ``O(m log(W/m))`` instead of FORA's
  ``O(1/r_max) = O(sqrt(m W))``, giving overall
  ``O(n log n log(1/eps))`` on scale-free graphs — beating the
  ``O(n log n / eps)`` state of the art;
* after the push ``r(s,v) <= d_v / W``, so each node needs at most
  ``W_v = ceil(r(s,v) * W) <= d_v`` walks — at most ``m`` in total —
  which is why the SpeedPPR index (``K_v = d_v`` pre-computed walks)
  is bounded by the graph size and *independent of eps*.

How the first phase gets there depends on what a walk costs.  Live
(Lines 2-3): PowerPush to ``lambda = m/W``, then the ``O(m)``
post-refinement (:func:`~repro.core.refinement.refine_to_r_max`); the
global sweeps leave the least residue, and a live walk (~200 ns)
costs as much as ~50 residue updates.  With a walk index: the post-refinement
alone from ``e_s`` — Algorithm 3's active-only scan, which reaches the
same state in ``O(m log(W/m))`` by the FwdPush bound (Lemma 4.4/4.5).
An index walk is a ~10 ns read, so the residue the scan leaves is
nearly free, while PowerPush's full sweeps push every residue holder.
At ``eps = 0.5`` (median of 20 sources, shared 2-vCPU VM) the scan
alone took an indexed query from 12.1 to 9.6 ms on ``pokec-s`` x10
(4.25 M -> 1.66 M residue updates, 204 k -> 342 k walks) and from 13.6
to 12.3 ms on ``webst-s`` x20 (3.29 M -> 3.79 M, 227 k -> 214 k), but
a live query from 47.7 to 71.7 and from 54.1 to 62.7 ms, so the live
path keeps PowerPush.

An indexed query is then two C calls: the refinement's passes
(:func:`~repro.core.kernels.refine_passes`) and the index read
(:func:`~repro.core.kernels.index_read`), each one loop with the bytes
of the per-pass calls and the NumPy read they replaced.  On ``pokec-s``
x10 at ``eps = 0.5`` (30 sources, best of 5 each, one pinned CPU of a
shared 2-vCPU VM) the refinement went from 8.8-9.4 to 7.0-8.2 ms and
the read from 2.1-2.2 to 1.5-1.7 ms a query.

When ``m >= W`` the Monte-Carlo method alone is already cheaper
(Section 6's standing assumption is ``m < W``); like the paper, we
switch to it in that regime.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.mc_phase import check_walk_source, monte_carlo_refine
from repro.core.powerpush import power_push
from repro.core.refinement import refine_to_r_max
from repro.core.residues import DeadEndPolicy, PushState
from repro.core.result import PPRResult
from repro.core.validation import (
    check_alpha,
    check_epsilon,
    check_mu,
    check_source,
)
from repro.graph.digraph import DiGraph
from repro.montecarlo.chernoff import (
    chernoff_walk_count,
    default_failure_probability,
    default_mu,
)
from repro.montecarlo.mc import monte_carlo_ppr
from repro.walks.index import WalkIndex

__all__ = ["speed_ppr"]


def speed_ppr(
    graph: DiGraph,
    source: int,
    *,
    alpha: float = 0.2,
    epsilon: float = 0.5,
    mu: float | None = None,
    p_fail: float | None = None,
    rng: np.random.Generator | None = None,
    walk_index: WalkIndex | None = None,
    dead_end_policy: DeadEndPolicy = "redirect-to-source",
    allow_monte_carlo_shortcut: bool = True,
) -> PPRResult:
    """Answer an approximate SSPPR query with SpeedPPR (Algorithm 4).

    Parameters
    ----------
    epsilon, mu, p_fail:
        Approximation contract; ``mu`` and ``p_fail`` default to
        ``1/n``.
    rng:
        Random generator for the walk phase (required unless a
        ``walk_index`` is supplied).
    walk_index:
        Pre-computed walks — the SpeedPPR-Index variant.  Any index
        with ``K_v >= d_v`` works for *every* ``epsilon``.
    allow_monte_carlo_shortcut:
        Mirror the paper's ``m >= W`` fallback to plain Monte-Carlo.
    """
    check_alpha(alpha)
    check_source(graph, source)
    check_epsilon(epsilon)
    if mu is None:
        mu = default_mu(graph.num_nodes)
    check_mu(mu)
    if p_fail is None:
        p_fail = default_failure_probability(graph.num_nodes)

    num_walks_w = chernoff_walk_count(epsilon, mu, p_fail=p_fail)
    if (
        allow_monte_carlo_shortcut
        and graph.num_edges >= num_walks_w
        and rng is not None
    ):
        result = monte_carlo_ppr(
            graph,
            source,
            alpha=alpha,
            num_walks=num_walks_w,
            dead_end_policy=dead_end_policy,
            rng=rng,
        )
        result.method = "SpeedPPR[mc-shortcut]"
        return result

    if graph.num_edges == 0:
        # Every node is a dead end, so the policy alone fixes the walk
        # and PowerPush answers exactly, leaving no residue for walks
        # (lambda = m / W would be 0).
        result = power_push(
            graph,
            source,
            alpha=alpha,
            l1_threshold=1.0,
            dead_end_policy=dead_end_policy,
        )
        result.method = (
            "SpeedPPR-Index" if walk_index is not None else "SpeedPPR"
        )
        return result

    check_walk_source(rng, walk_index)
    started = time.perf_counter()
    if walk_index is None:
        # Phase 1, live: PowerPush to lambda = m / W, then refine so
        # that no node is active w.r.t. r_max = 1 / W (Algorithm 4,
        # Lines 2-3).  PowerPush leaves the least residue to walk off,
        # and live walks are the dear part of a query.
        push_result = power_push(
            graph,
            source,
            alpha=alpha,
            l1_threshold=min(graph.num_edges / num_walks_w, 1.0),
            dead_end_policy=dead_end_policy,
        )
        state = _state_from_result(
            graph, source, alpha, dead_end_policy, push_result
        )
    else:
        # Phase 1, indexed: the active-only scan alone from e_s reaches
        # the same r <= d_v / W (see the module docstring); index walks
        # are reads, so the residue it leaves costs next to nothing.
        state = PushState(graph, source, alpha, dead_end_policy=dead_end_policy)
    refine_to_r_max(state, 1.0 / num_walks_w)

    # Phase 2: Eq. 13-14 Monte-Carlo refinement.  After phase 1
    # W_v <= d_v, so an index with K_v = d_v always suffices (tiny
    # float slop at the boundary is capped, keeping unbiasedness).
    estimate = monte_carlo_refine(
        graph,
        source,
        alpha,
        state.reserve,
        state.residue,
        num_walks_w,
        rng=rng,
        walk_index=walk_index,
        counters=state.counters,
        on_insufficient="cap",
        dead_end_policy=dead_end_policy,
    )
    return PPRResult(
        estimate=estimate,
        residue=state.residue,
        source=source,
        alpha=alpha,
        counters=state.counters,
        seconds=time.perf_counter() - started,
        method="SpeedPPR-Index" if walk_index is not None else "SpeedPPR",
    )


def _state_from_result(
    graph: DiGraph,
    source: int,
    alpha: float,
    dead_end_policy: DeadEndPolicy,
    result: PPRResult,
) -> PushState:
    """Rewrap a PowerPush result as a live state for further pushing."""
    state = PushState(
        graph,
        source,
        alpha,
        dead_end_policy=dead_end_policy,
        counters=result.counters,
    )
    assert result.residue is not None
    state.reserve = result.estimate
    state.residue = result.residue
    state.refresh_r_sum()
    return state
