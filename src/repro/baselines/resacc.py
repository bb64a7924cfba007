"""ResAcc — residue-accumulation acceleration of FORA (Lin et al., ICDE'20).

ResAcc speeds up FORA's push phase by *accumulating* the residue that
flows back to the source instead of repeatedly re-pushing it.  The key
identity is forward push's linearity invariant

    ``pi_s = pi_hat + sum_v r(s, v) * pi_v``.

If the source is never re-pushed after its initial push, the residue
``a = r(s, s)`` it has re-accumulated satisfies

    ``pi_s = (pi_hat + sum_{v != s} r(s, v) * pi_v) / (1 - a)``,

so one final rescale by ``1 / (1 - a)`` replaces all the pushes that
mass would have caused — those pushes would only have replayed the
same distribution scaled down.  The Monte-Carlo phase then runs on the
non-source residues only.  (This reproduces the core "accumulate the
returned residue, distribute it for free" mechanism of the ResAcc
paper; its additional ``L``-hop propagation heuristic is subsumed here
by the vectorised frontier sweeps.)
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core.kernels import frontier_push
from repro.core.mc_phase import check_walk_source, monte_carlo_refine
from repro.core.residues import DeadEndPolicy, PushState
from repro.core.result import PPRResult
from repro.core.validation import (
    check_alpha,
    check_epsilon,
    check_integer,
    check_mu,
    check_source,
)
from repro.errors import ConvergenceError
from repro.graph.digraph import DiGraph
from repro.montecarlo.chernoff import (
    chernoff_walk_count,
    default_failure_probability,
    default_mu,
)
from repro.baselines.fora import fora_r_max
from repro.walks.index import WalkIndex

__all__ = ["resacc"]


def resacc(
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
    max_sweeps: int | None = None,
) -> PPRResult:
    """Answer an approximate SSPPR query with ResAcc.

    Same contract as :func:`repro.baselines.fora.fora`; see the module
    docstring for how the source-residue accumulation works.
    """
    check_alpha(alpha)
    check_source(graph, source)
    check_epsilon(epsilon)
    if mu is None:
        mu = default_mu(graph.num_nodes)
    check_mu(mu)
    if p_fail is None:
        p_fail = default_failure_probability(graph.num_nodes)

    check_walk_source(rng, walk_index)
    num_walks_w = chernoff_walk_count(epsilon, mu, p_fail=p_fail)
    r_max = fora_r_max(graph, num_walks_w)
    if max_sweeps is None:
        max_sweeps = int(16.0 * (math.log(1.0 / min(r_max, 0.5)) + 1.0) / alpha) + 64
    check_integer(max_sweeps, "max_sweeps")

    started = time.perf_counter()
    state = PushState(graph, source, alpha, dead_end_policy=dead_end_policy)

    # Initial push of the source, then sweeps that exclude the source so
    # its returned residue accumulates instead of being replayed.
    frontier_push(state, np.asarray([source], dtype=np.int64))
    sweeps = 0
    while True:
        active = state.active_mask(r_max)
        active[source] = False
        nodes = np.flatnonzero(active)
        if nodes.shape[0] == 0:
            break
        frontier_push(state, nodes)
        sweeps += 1
        if sweeps > max_sweeps:
            raise ConvergenceError(
                f"ResAcc push phase exceeded {max_sweeps} sweeps "
                f"(r_sum={state.refresh_r_sum():.3e})"
            )
    state.refresh_r_sum()

    accumulated = float(state.residue[source])
    # Guard: alpha-walk mass returning to the source is at most
    # (1 - alpha) < 1, so the rescale below is always well defined.
    scale = 1.0 / (1.0 - accumulated)
    residue_rest = state.residue.copy()
    residue_rest[source] = 0.0

    estimate = monte_carlo_refine(
        graph,
        source,
        alpha,
        state.reserve,
        residue_rest,
        num_walks_w,
        rng=rng,
        walk_index=walk_index,
        counters=state.counters,
        on_insufficient="cap",
        dead_end_policy=dead_end_policy,
    )
    estimate *= scale
    state.counters.bump("resacc_sweeps", sweeps)
    return PPRResult(
        estimate=estimate,
        residue=residue_rest,
        source=source,
        alpha=alpha,
        counters=state.counters,
        seconds=time.perf_counter() - started,
        method="ResAcc",
    )
