"""Global and preference-vector PageRank on the PowerPush kernels.

The paper closes Section 5 noting that PowItr "is an important
fundamental method" and that PowerPush "would be of independent
interest in other applications beyond the SSPPR queries".  This module
is that extension: the same sweep kernels applied to

* **global PageRank** — the teleport distribution is uniform, and
* **preference-vector PPR** — teleport to an arbitrary distribution
  (e.g. a set of seed nodes), the generalisation used by topic-
  sensitive PageRank.

A single-node preference reduces exactly to the SSPPR definition; the
tests assert that equivalence against :func:`repro.core.powerpush`.

Dead ends redirect their mass to the preference distribution (the
natural generalisation of the paper's redirect-to-source rule).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.kernels import _transition
from repro.core.result import PPRResult
from repro.core.validation import check_alpha, check_l1_threshold
from repro.errors import ConvergenceError, ParameterError
from repro.graph.digraph import DiGraph
from repro.instrumentation.counters import PushCounters

__all__ = ["pagerank", "preference_pagerank"]


def pagerank(
    graph: DiGraph,
    *,
    alpha: float = 0.15,
    l1_threshold: float = 1e-10,
    max_iterations: int | None = None,
) -> PPRResult:
    """Global PageRank (uniform teleport), classic ``alpha = 0.15``."""
    if graph.num_nodes == 0:
        raise ParameterError("cannot rank an empty graph")
    preference = np.full(graph.num_nodes, 1.0 / graph.num_nodes)
    return preference_pagerank(
        graph,
        preference,
        alpha=alpha,
        l1_threshold=l1_threshold,
        max_iterations=max_iterations,
        method="PageRank",
    )


def preference_pagerank(
    graph: DiGraph,
    preference: np.ndarray,
    *,
    alpha: float = 0.2,
    l1_threshold: float = 1e-10,
    max_iterations: int | None = None,
    method: str = "PreferencePPR",
) -> PPRResult:
    """PPR with an arbitrary teleport distribution ``preference``.

    Solves ``pi = alpha * preference + (1 - alpha) * pi P`` by the
    sweep iteration; residue mass decays by ``(1 - alpha)`` per sweep
    exactly as in the single-source case, so the returned residue sum
    is the realised l1-error bound.
    """
    check_alpha(alpha)
    check_l1_threshold(l1_threshold)
    preference = np.asarray(preference, dtype=np.float64)
    if preference.shape != (graph.num_nodes,):
        raise ParameterError(
            f"preference must have shape ({graph.num_nodes},); "
            f"got {preference.shape}"
        )
    if np.any(preference < 0):
        raise ParameterError("preference entries must be non-negative")
    total = float(preference.sum())
    if not np.isfinite(total) or total <= 0:
        raise ParameterError("preference must have positive finite mass")
    preference = preference / total

    if max_iterations is None:
        import math

        max_iterations = (
            max(int(math.ceil(math.log(l1_threshold) / math.log(1.0 - alpha))), 1)
            + 8
        )

    started = time.perf_counter()
    counters = PushCounters()
    reserve = np.zeros(graph.num_nodes)
    residue = preference.copy()
    r_sum = 1.0
    dead = graph.dead_ends

    iterations = 0
    while r_sum > l1_threshold:
        if iterations >= max_iterations:
            raise ConvergenceError(
                f"preference_pagerank exceeded {max_iterations} iterations"
            )
        reserve += alpha * residue
        dead_mass = (
            (1.0 - alpha) * float(residue[dead].sum()) if dead.shape[0] else 0.0
        )
        residue = _transition(graph, (1.0 - alpha) * residue)
        if dead_mass:
            residue = residue + dead_mass * preference
        r_sum = float(residue.sum())
        iterations += 1
        counters.count_bulk_pushes(graph.num_nodes, graph.num_edges)
        counters.iterations = iterations

    return PPRResult(
        estimate=reserve,
        residue=residue,
        source=-1,
        alpha=alpha,
        counters=counters,
        seconds=time.perf_counter() - started,
        method=method,
    )
