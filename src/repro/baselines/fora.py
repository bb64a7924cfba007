"""FORA and FORA+ — the state-of-the-art Approx-SSPPR baseline (§6.1).

FORA (Wang et al., KDD'17) combines Forward Push and Monte-Carlo:

* **Phase 1** runs FwdPush with ``r_max = 1 / sqrt(m * W)`` — the value
  that balances the ``O(1/r_max)`` push cost against the
  ``O(m * r_max * W)`` expected walk cost, minimising the total to
  ``O(sqrt(m * W))`` (``O(n log n / eps)`` on scale-free graphs).
* **Phase 2** is the Eq. 13-14 Monte-Carlo refinement.

**FORA+** pre-computes ``K_v = ceil(d_v * sqrt(W/m)) + 1 >= W_v`` walks
per node.  Because ``W`` (and hence the index) depends on ``eps``, an
index built for ``eps_1`` cannot serve a query with ``eps_2 < eps_1``
— the limitation SpeedPPR's eps-independent index removes (Table 2).
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core.fifo_fwdpush import fifo_forward_push
from repro.core.mc_phase import check_walk_source, monte_carlo_refine
from repro.core.residues import DeadEndPolicy
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

__all__ = ["fora", "fora_r_max"]


def fora_r_max(graph: DiGraph, num_walks_w: float) -> float:
    """FORA's balanced push threshold ``r_max = 1 / sqrt(m * W)``."""
    m = max(graph.num_edges, 1)
    return 1.0 / math.sqrt(m * num_walks_w)


def fora(
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
    """Answer an approximate SSPPR query with FORA (or FORA+).

    Parameters
    ----------
    walk_index:
        Supplying a pre-computed index turns this into FORA+.  The
        index must have been built with at least this query's ``W``
        (i.e. for an ``epsilon`` no larger than this query's);
        otherwise an :class:`~repro.errors.IndexMismatchError` is
        raised, reproducing the eps-dependence the paper criticises.
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
        result.method = "FORA[mc-shortcut]"
        return result

    check_walk_source(rng, walk_index)
    started = time.perf_counter()
    push_result = fifo_forward_push(
        graph,
        source,
        alpha=alpha,
        r_max=fora_r_max(graph, num_walks_w),
        dead_end_policy=dead_end_policy,
    )
    assert push_result.residue is not None
    estimate = monte_carlo_refine(
        graph,
        source,
        alpha,
        push_result.estimate,
        push_result.residue,
        num_walks_w,
        rng=rng,
        walk_index=walk_index,
        counters=push_result.counters,
        on_insufficient="error",
        dead_end_policy=dead_end_policy,
    )
    return PPRResult(
        estimate=estimate,
        residue=push_result.residue,
        source=source,
        alpha=alpha,
        counters=push_result.counters,
        seconds=time.perf_counter() - started,
        method="FORA-Index" if walk_index is not None else "FORA",
    )
