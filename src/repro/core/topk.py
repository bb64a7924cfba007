"""Certified top-k SSPPR queries on top of PowerPush.

Top-k PPR queries (the related-work line the paper cites [10, 12-15,
38, 39, 42]) ask only for the ``k`` nodes with the largest
``pi(s, v)``.  Forward-push state gives free deterministic bounds:
with non-negative residues,

    ``pi_hat(s, v) <= pi(s, v) <= pi_hat(s, v) + r_sum``

for every node.  So the estimated top-k is *provably* the true top-k
once the k-th largest reserve exceeds the (k+1)-th largest reserve by
more than ``r_sum``.  :func:`top_k_ppr` runs PowerPush with a
geometrically tightening threshold until that certificate holds (or a
floor threshold is reached — ties within machine precision can never
be separated), returning the ranking plus its certification status.

This is the lower/upper-bound refinement pattern of the local top-k
literature, driven by the paper's solver.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.powerpush import PowerPushConfig, power_push
from repro.core.residues import DeadEndPolicy
from repro.core.result import PPRResult
from repro.core.validation import check_alpha, check_source
from repro.errors import ParameterError
from repro.graph.digraph import DiGraph

__all__ = ["TopKResult", "top_k_ppr"]


@dataclass
class TopKResult:
    """The answer to a top-k query.

    Attributes
    ----------
    ranking:
        ``(node, estimate)`` pairs, descending; exactly ``k`` entries
        (fewer only if the graph has fewer nodes).
    certified:
        True when the separation certificate holds: the true top-k set
        equals the returned set (order within the set may still be
        ambiguous for near-ties closer than ``gap``).
    gap:
        Separation between the k-th and (k+1)-th reserve values.
    l1_threshold:
        The PowerPush threshold at which the run stopped.
    result:
        The underlying :class:`PPRResult` (estimates for *all* nodes).
    """

    ranking: list[tuple[int, float]]
    certified: bool
    gap: float
    l1_threshold: float
    result: PPRResult


def top_k_ppr(
    graph: DiGraph,
    source: int,
    k: int,
    *,
    alpha: float = 0.2,
    initial_l1_threshold: float = 1e-3,
    floor_l1_threshold: float = 1e-12,
    shrink_factor: float = 100.0,
    config: PowerPushConfig | None = None,
    dead_end_policy: DeadEndPolicy = "redirect-to-source",
) -> TopKResult:
    """Answer a top-k SSPPR query with a certified stopping rule.

    Parameters
    ----------
    k:
        Number of nodes requested (``1 <= k``).
    initial_l1_threshold, floor_l1_threshold, shrink_factor:
        The adaptive schedule: start loose, divide the threshold by
        ``shrink_factor`` until the certificate holds or the floor is
        hit.
    """
    check_alpha(alpha)
    check_source(graph, source)
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if not 0 < floor_l1_threshold <= initial_l1_threshold <= 1.0:
        raise ParameterError(
            "need 0 < floor_l1_threshold <= initial_l1_threshold <= 1"
        )
    if shrink_factor <= 1.0:
        raise ParameterError(
            f"shrink_factor must be > 1, got {shrink_factor}"
        )

    l1_threshold = initial_l1_threshold
    while True:
        result = power_push(
            graph,
            source,
            alpha=alpha,
            l1_threshold=l1_threshold,
            config=config,
            dead_end_policy=dead_end_policy,
        )
        ranking = result.top_k(min(k + 1, graph.num_nodes))
        if len(ranking) <= k:
            # The graph has at most k nodes: trivially certified.
            return TopKResult(
                ranking=ranking[:k],
                certified=True,
                gap=float("inf"),
                l1_threshold=l1_threshold,
                result=result,
            )
        gap = ranking[k - 1][1] - ranking[k][1]
        if gap > result.r_sum:
            return TopKResult(
                ranking=ranking[:k],
                certified=True,
                gap=gap,
                l1_threshold=l1_threshold,
                result=result,
            )
        if l1_threshold <= floor_l1_threshold:
            return TopKResult(
                ranking=ranking[:k],
                certified=False,
                gap=gap,
                l1_threshold=l1_threshold,
                result=result,
            )
        l1_threshold = max(
            l1_threshold / shrink_factor, floor_l1_threshold
        )
