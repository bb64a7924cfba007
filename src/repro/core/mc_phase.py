"""The shared Monte-Carlo refinement phase (paper Eq. 13-14).

FORA, SpeedPPR and ResAcc all finish the same way: given the reserve
vector ``pi_hat`` and residue vector ``r`` left by a push phase, each
node ``v`` with ``r(s, v) > 0`` launches ``W_v = ceil(r(s, v) * W)``
alpha-walks, and every walk stopping at ``u`` adds ``r(s, v) / W_v`` to
``pi_hat(s, u)`` (Eq. 13).  The final estimate (Eq. 14) is unbiased
because ``pi_s = pi_hat + sum_v r(s, v) * pi_v`` (the linearity
invariant of forward push) and each walk from ``v`` is an unbiased
sample of ``pi_v``.

Walks either run live through the engine or come from a pre-computed
:class:`~repro.walks.index.WalkIndex` (the FORA+ / SpeedPPR-Index
variants).
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro.core.kernels import scatter_ranges
from repro.core.residues import DeadEndPolicy
from repro.errors import IndexMismatchError, ParameterError
from repro.graph.digraph import DiGraph
from repro.instrumentation.counters import PushCounters
from repro.walks.engine import simulate_walk_stops
from repro.walks.index import WalkIndex

__all__ = ["monte_carlo_refine", "required_walks"]

OnInsufficient = Literal["error", "cap"]


def required_walks(residue: np.ndarray, num_walks_w: float) -> np.ndarray:
    """Per-node walk budget ``W_v = ceil(r(s,v) * W)`` (0 where r = 0)."""
    if num_walks_w <= 0:
        raise ParameterError(f"W must be positive, got {num_walks_w}")
    return np.ceil(np.maximum(residue, 0.0) * num_walks_w).astype(np.int64)


def monte_carlo_refine(
    graph: DiGraph,
    source: int,
    alpha: float,
    reserve: np.ndarray,
    residue: np.ndarray,
    num_walks_w: float,
    *,
    rng: np.random.Generator | None = None,
    walk_index: WalkIndex | None = None,
    counters: PushCounters | None = None,
    on_insufficient: OnInsufficient = "error",
    dead_end_policy: DeadEndPolicy = "redirect-to-source",
) -> np.ndarray:
    """Run the Eq. 13-14 refinement and return the final estimate.

    Parameters
    ----------
    reserve, residue:
        The push phase's output, two ``(n,)`` arrays; neither is
        modified.
    num_walks_w:
        The Chernoff budget ``W`` (Eq. 12).
    rng:
        Required when ``walk_index`` is None (live walks).
    walk_index:
        Pre-computed walks; node ``v`` consumes its first ``W_v``
        entries.
    on_insufficient:
        With an index, what to do when ``W_v`` exceeds the
        pre-computed count ``K_v``: ``"error"`` raises
        :class:`IndexMismatchError`; ``"cap"`` silently uses ``K_v``
        walks (statistically safe — the estimator stays unbiased with
        any positive walk count — at slightly higher variance).
    dead_end_policy:
        Where a live walk goes from a dead end; pass the push phase's
        policy so that walks and residues agree (an index is built on
        a dead-end-free graph, so it never applies there).
    """
    if walk_index is None and rng is None:
        raise ParameterError("live Monte-Carlo phase requires an rng")
    n = graph.num_nodes
    if reserve.shape != (n,) or residue.shape != (n,):
        raise ParameterError(
            f"reserve and residue must have shape ({n},), got "
            f"{reserve.shape} and {residue.shape}"
        )
    if walk_index is not None:
        walk_index.check_graph(graph)
        if abs(walk_index.alpha - alpha) > 1e-12:
            raise IndexMismatchError(
                f"index built for alpha={walk_index.alpha}, query uses {alpha}"
            )

    estimate = reserve.astype(np.float64, copy=True)
    nodes = np.flatnonzero(residue > 0.0)
    if nodes.shape[0] == 0:
        return estimate

    walks_needed = required_walks(residue[nodes], num_walks_w)

    if walk_index is not None:
        first = walk_index.indptr[nodes]
        available = walk_index.indptr[nodes + 1] - first
        short = walks_needed > available
        if np.any(short):
            if on_insufficient == "error":
                worst = nodes[short][0]
                raise IndexMismatchError(
                    f"node {int(worst)} needs "
                    f"{int(walks_needed[short][0])} walks but the index "
                    f"holds {int(available[short][0])} "
                    f"(policy={walk_index.policy!r}); rebuild the index "
                    "or pass on_insufficient='cap'"
                )
            walks_needed = np.minimum(walks_needed, available)
            if counters is not None:
                counters.bump("index_capped_nodes", int(short.sum()))
        # Node v reads its first W_v pre-computed stops.
        stops = walk_index.stops
        steps = 0
    else:
        assert rng is not None
        stops, steps = simulate_walk_stops(
            graph,
            np.repeat(nodes, walks_needed),
            alpha=alpha,
            source=source,
            dead_end_policy=dead_end_policy,
            rng=rng,
        )
        stops = stops.astype(np.int32)
        first = np.cumsum(walks_needed) - walks_needed

    # Every walk from v adds r(s, v) / W_v where it stopped (Eq. 13); a
    # node capped to zero walks owns an empty range and adds nothing.
    weights = residue[nodes] / np.maximum(walks_needed, 1)
    scatter_ranges(estimate, stops, first, walks_needed, weights)
    if counters is not None:
        counters.random_walks += int(walks_needed.sum())
        counters.walk_steps += steps
    return estimate
