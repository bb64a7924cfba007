"""The Monte-Carlo method for approximate SSPPR (paper Section 6.1).

Generate ``W`` independent alpha-walks from the source and estimate
``pi(s, v)`` by the fraction of walks that stop at ``v``.  With ``W``
chosen by the Chernoff bound (Eq. 12), every node with
``pi(s, v) >= mu`` is estimated within relative error ``eps`` with
probability at least ``1 - p_fail``.

Expected cost ``O(W / alpha)`` — the ``O(n log n / eps^2)`` baseline
that FORA improves by a ``1/eps`` factor and SpeedPPR by a further
``~1/eps`` (Table of Section 6).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.residues import DeadEndPolicy
from repro.core.result import PPRResult
from repro.core.validation import (
    check_alpha,
    check_positive_integer,
    check_source,
)
from repro.errors import ParameterError
from repro.graph.digraph import DiGraph
from repro.instrumentation.counters import PushCounters
from repro.montecarlo.chernoff import (
    chernoff_walk_count,
    default_failure_probability,
    default_mu,
)
from repro.walks.engine import simulate_walk_stops

__all__ = ["monte_carlo_ppr"]


def monte_carlo_ppr(
    graph: DiGraph,
    source: int,
    *,
    alpha: float = 0.2,
    epsilon: float = 0.5,
    mu: float | None = None,
    p_fail: float | None = None,
    num_walks: int | None = None,
    dead_end_policy: DeadEndPolicy = "redirect-to-source",
    rng: np.random.Generator,
) -> PPRResult:
    """Answer an approximate SSPPR query with plain Monte-Carlo.

    Parameters
    ----------
    epsilon, mu, p_fail:
        The approximation contract; ``mu`` and ``p_fail`` default to
        ``1/n`` as in the paper.  Ignored when ``num_walks`` is given.
    num_walks:
        Explicit override of ``W`` (used by tests and ablations): a
        positive integer; a float or a ``bool`` is refused.
    dead_end_policy:
        Where a walk goes from a dead end (see
        :func:`~repro.walks.engine.simulate_walk_stops`).
    """
    check_alpha(alpha)
    check_source(graph, source)
    if graph.num_nodes == 0:
        raise ParameterError("cannot query an empty graph")
    if num_walks is None:
        if mu is None:
            mu = default_mu(graph.num_nodes)
        if p_fail is None:
            p_fail = default_failure_probability(graph.num_nodes)
        num_walks = chernoff_walk_count(epsilon, mu, p_fail=p_fail)
    num_walks = check_positive_integer(num_walks, "num_walks")
    started = time.perf_counter()
    stops, steps = simulate_walk_stops(
        graph,
        np.full(num_walks, source, dtype=np.int64),
        alpha=alpha,
        source=source,
        dead_end_policy=dead_end_policy,
        rng=rng,
    )
    counts = np.bincount(stops, minlength=graph.num_nodes)
    return PPRResult(
        estimate=counts.astype(np.float64) / num_walks,
        residue=None,
        source=int(source),
        alpha=alpha,
        counters=PushCounters(random_walks=int(num_walks), walk_steps=steps),
        seconds=time.perf_counter() - started,
        method="MonteCarlo",
    )
