"""Power Iteration (PowItr) for high-precision SSPPR (paper Section 3.1).

PowItr maintains the alive-walk distribution ``gamma_s(j)`` and the
underestimate ``pi_hat`` such that after iteration ``j+1``:

* ``gamma_s(j+1) = (1 - alpha) * gamma_s(j) @ P``  (Eq. 3), and
* ``pi_hat = sum_{k<=j} alpha * gamma_s(k)``        (Eq. 5).

The l1-error after ``j+1`` iterations is exactly ``(1 - alpha)^(j+1)``
(Eq. 6), so ``O(log(1/lambda))`` iterations of ``O(m)`` work each give
the ``O(m log(1/lambda))`` bound the paper cites.

This is the *global* approach: every iteration costs ``O(m)`` no matter
how concentrated the remaining mass is.  The residue/reserve state is
shared with the push algorithms, which is what makes the SimFwdPush
equivalence (Lemma 4.1) a literal array comparison in our tests.
"""

from __future__ import annotations

import time

from repro.core.kernels import global_sweep
from repro.core.residues import DeadEndPolicy, PushState
from repro.core.result import PPRResult
from repro.core.validation import check_alpha, check_l1_threshold, check_source
from repro.errors import ConvergenceError
from repro.graph.digraph import DiGraph
from repro.instrumentation.tracing import ConvergenceTrace

__all__ = ["power_iteration"]


def power_iteration(
    graph: DiGraph,
    source: int,
    *,
    alpha: float = 0.2,
    l1_threshold: float = 1e-8,
    dead_end_policy: DeadEndPolicy = "redirect-to-source",
    max_iterations: int | None = None,
    trace: ConvergenceTrace | None = None,
) -> PPRResult:
    """Answer a high-precision SSPPR query with Power Iteration.

    Parameters
    ----------
    graph:
        The directed graph.
    source:
        Query source node id.
    alpha:
        Teleport probability (paper default 0.2).
    l1_threshold:
        The error bound ``lambda``: iteration stops once the exact
        remaining mass ``r_sum <= lambda``.
    max_iterations:
        Safety cap; defaults to the analytic bound
        ``ceil(ln(1/lambda) / ln(1/(1-alpha)))`` plus slack.

    Returns
    -------
    PPRResult
        ``estimate`` with ``||estimate - pi_s||_1 <= l1_threshold``.
    """
    check_alpha(alpha)
    check_source(graph, source)
    check_l1_threshold(l1_threshold)
    if max_iterations is None:
        max_iterations = _analytic_iteration_bound(alpha, l1_threshold) + 8

    started = time.perf_counter()
    state = PushState(
        graph, source, alpha, dead_end_policy=dead_end_policy
    )
    if trace is not None:
        trace.restart_clock()
        trace.record(0, state.r_sum)

    iterations = 0
    while state.r_sum > l1_threshold:
        if iterations >= max_iterations:
            raise ConvergenceError(
                f"PowItr exceeded {max_iterations} iterations "
                f"(r_sum={state.r_sum:.3e}, lambda={l1_threshold:.3e})"
            )
        global_sweep(state, count_all_edges=True)
        iterations += 1
        state.counters.iterations = iterations
        if trace is not None:
            trace.maybe_record(state.counters.residue_updates, state.r_sum)

    if trace is not None:
        trace.record(state.counters.residue_updates, state.r_sum)
    return PPRResult(
        estimate=state.reserve,
        residue=state.residue,
        source=source,
        alpha=alpha,
        counters=state.counters,
        trace=trace,
        seconds=time.perf_counter() - started,
        method="PowItr",
    )


def _analytic_iteration_bound(alpha: float, l1_threshold: float) -> int:
    """Iterations needed so that ``(1 - alpha)^j <= lambda``."""
    import math

    return max(int(math.ceil(math.log(l1_threshold) / math.log(1.0 - alpha))), 1)
