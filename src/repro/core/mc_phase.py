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

from repro.core.kernels import index_read, scatter_ranges
from repro.core.residues import DeadEndPolicy
from repro.errors import IndexMismatchError, ParameterError
from repro.graph.digraph import DiGraph
from repro.instrumentation.counters import PushCounters
from repro.walks.engine import simulate_walk_stops
from repro.walks.index import WalkIndex

__all__ = ["check_walk_source", "monte_carlo_refine", "required_walks"]

OnInsufficient = Literal["error", "cap"]


def check_walk_source(
    rng: np.random.Generator | None, walk_index: WalkIndex | None
) -> None:
    """Raise unless the walk phase has walks to read or an rng to run them.

    Solvers call it before their push phase, which a missing walk source
    would otherwise waste.
    """
    if walk_index is None and rng is None:
        raise ParameterError("live Monte-Carlo phase requires an rng")


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
    check_walk_source(rng, walk_index)
    n = graph.num_nodes
    if reserve.shape != (n,) or residue.shape != (n,):
        raise ParameterError(
            f"reserve and residue must have shape ({n},), got "
            f"{reserve.shape} and {residue.shape}"
        )
    if num_walks_w <= 0:
        raise ParameterError(f"W must be positive, got {num_walks_w}")
    if walk_index is not None:
        walk_index.check_graph(graph)
        if abs(walk_index.alpha - alpha) > 1e-12:
            raise IndexMismatchError(
                f"index built for alpha={walk_index.alpha}, query uses {alpha}"
            )

    estimate = reserve.astype(np.float64, copy=True)
    if walk_index is not None:
        return _read_index(
            estimate, residue, num_walks_w, walk_index, counters, on_insufficient
        )
    nodes = np.flatnonzero(residue > 0.0)
    if nodes.shape[0] == 0:
        return estimate

    walks_needed = required_walks(residue[nodes], num_walks_w)
    assert rng is not None
    stops, steps = simulate_walk_stops(
        graph,
        np.repeat(nodes, walks_needed),
        alpha=alpha,
        source=source,
        dead_end_policy=dead_end_policy,
        rng=rng,
    )
    # Every walk from v adds r(s, v) / W_v where it stopped (Eq. 13).
    weights = residue[nodes] / np.maximum(walks_needed, 1)
    first = np.cumsum(walks_needed) - walks_needed
    scatter_ranges(estimate, stops.astype(np.int32), first, walks_needed, weights)
    if counters is not None:
        counters.random_walks += int(walks_needed.sum())
        counters.walk_steps += steps
    return estimate


def _read_index(
    estimate: np.ndarray,
    residue: np.ndarray,
    num_walks_w: float,
    walk_index: WalkIndex,
    counters: PushCounters | None,
    on_insufficient: OnInsufficient,
) -> np.ndarray:
    """Eq. 13 from the index: node v reads its first W_v pre-computed
    stops, in one C call (:func:`~repro.core.kernels.index_read`)."""
    residue = np.ascontiguousarray(residue, dtype=np.float64)
    walks, capped, worst = index_read(
        estimate,
        residue,
        walk_index.indptr,
        walk_index.stops,
        num_walks_w,
        cap=on_insufficient != "error",
    )
    if capped and on_insufficient == "error":
        needed = required_walks(residue[worst : worst + 1], num_walks_w)[0]
        raise IndexMismatchError(
            f"node {worst} needs {int(needed)} walks but the index holds "
            f"{walk_index.walks_available(worst)} "
            f"(policy={walk_index.policy!r}); rebuild the index "
            "or pass on_insufficient='cap'"
        )
    if counters is not None:
        if capped:
            counters.bump("index_capped_nodes", capped)
        counters.random_walks += walks
    return estimate
