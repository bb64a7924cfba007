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
from typing import Sequence

import numpy as np

from repro.core.result import PPRResult
from repro.core.validation import check_alpha, check_source
from repro.errors import ParameterError
from repro.graph.digraph import DiGraph
from repro.instrumentation.counters import PushCounters
from repro.montecarlo.chernoff import (
    chernoff_walk_count,
    default_failure_probability,
    default_mu,
)
from repro.walks.engine import simulate_walk_stops

__all__ = ["monte_carlo_ppr", "monte_carlo_ppr_block"]

#: peak walks materialised at once by the multi-source simulation
_BATCH_WALK_BUDGET = 1 << 24


def monte_carlo_ppr(
    graph: DiGraph,
    source: int,
    *,
    alpha: float = 0.2,
    epsilon: float = 0.5,
    mu: float | None = None,
    p_fail: float | None = None,
    num_walks: int | None = None,
    rng: np.random.Generator,
) -> PPRResult:
    """Answer an approximate SSPPR query with plain Monte-Carlo.

    Parameters
    ----------
    epsilon, mu, p_fail:
        The approximation contract; ``mu`` and ``p_fail`` default to
        ``1/n`` as in the paper.  Ignored when ``num_walks`` is given.
    num_walks:
        Explicit override of ``W`` (used by tests and ablations).
    """
    return monte_carlo_ppr_block(
        graph,
        [source],
        alpha=alpha,
        epsilon=epsilon,
        mu=mu,
        p_fail=p_fail,
        num_walks=num_walks,
        rng=rng,
    )[0]


def monte_carlo_ppr_block(
    graph: DiGraph,
    sources: Sequence[int],
    *,
    alpha: float = 0.2,
    epsilon: float = 0.5,
    mu: float | None = None,
    p_fail: float | None = None,
    num_walks: int | None = None,
    rng: np.random.Generator,
) -> list[PPRResult]:
    """One query per source, all walks through one vectorised simulation.

    Every source's ``W`` walks advance in lock-step from the one stream
    ``rng`` — same contract and estimator as :func:`monte_carlo_ppr`,
    which is the one-source case.  Two or more sources need a graph
    without dead ends: their shared simulation has no single query
    source to redirect to.
    """
    if not sources:
        return []
    check_alpha(alpha)
    for source in sources:
        check_source(graph, source)
    if graph.num_nodes == 0:
        raise ParameterError("cannot query an empty graph")
    if num_walks is None:
        if mu is None:
            mu = default_mu(graph.num_nodes)
        if p_fail is None:
            p_fail = default_failure_probability(graph.num_nodes)
        num_walks = chernoff_walk_count(epsilon, mu, p_fail=p_fail)
    if num_walks <= 0:
        raise ParameterError(f"num_walks must be positive, got {num_walks}")
    redirect = sources[0] if len(sources) == 1 else None

    # Simulate in source groups and reduce each group's stops to
    # per-source histograms immediately, so peak memory stays bounded
    # by _BATCH_WALK_BUDGET walks (plus the n-length count vectors the
    # caller gets anyway), not len(sources) * num_walks.
    group_size = max(1, _BATCH_WALK_BUDGET // num_walks)
    started = time.perf_counter()
    estimates: list[np.ndarray] = []
    steps = 0
    for begin in range(0, len(sources), group_size):
        group = np.asarray(sources[begin : begin + group_size], dtype=np.int64)
        stops, group_steps = simulate_walk_stops(
            graph,
            np.repeat(group, num_walks),
            alpha=alpha,
            source=redirect,
            rng=rng,
        )
        steps += group_steps
        for segment in stops.reshape(group.shape[0], num_walks):
            counts = np.bincount(segment, minlength=graph.num_nodes)
            estimates.append(counts.astype(np.float64) / num_walks)
    # Wall time and walk steps are measured for the batch as a whole;
    # apportion them evenly (steps keep an exact total by spreading the
    # remainder) — the simulation has no per-source measurement.
    share = (time.perf_counter() - started) / len(sources)
    steps_base, steps_extra = divmod(steps, len(sources))
    return [
        PPRResult(
            estimate=estimate,
            residue=None,
            source=int(source),
            alpha=alpha,
            counters=PushCounters(
                random_walks=int(num_walks),
                walk_steps=steps_base + (1 if position < steps_extra else 0),
            ),
            seconds=share,
            method="MonteCarlo",
        )
        for position, (source, estimate) in enumerate(zip(sources, estimates))
    ]
