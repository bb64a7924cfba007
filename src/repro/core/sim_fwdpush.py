"""Simultaneous Forward Push (SimFwdPush, paper Section 4.1).

SimFwdPush is the special Forward-Push variant that proves the
equivalence connection to Power Iteration (Lemma 4.1):

* every node with a non-zero residue is active (``r_max = 0``),
* pushes happen in iterations — all active nodes push *simultaneously*
  based on their residues at the start of the iteration,
* the run stops when ``r_sum <= lambda``.

Lemma 4.1: after each iteration the residue vector equals PowItr's
``gamma_s(j)`` and the reserve vector equals ``pi_s(j)``, exactly.  Our
test-suite checks this against PowItr's iterates and a dense reference,
to rounding.  Both solvers push through the C range scatter, but the
check still compares two numeric paths: this module's frontier push
divides each share (``x_u / d_u``), while PowItr's global sweep
multiplies by ``1 / d_u`` and is pinned bit for bit to scipy's sparse
``P^T`` mat-vec (``tests/test_core_global_sweep.py``), which no solver
calls.

SimFwdPush is a proof device, not a method the paper measures, so it
is a plain function and not a registered solver.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.kernels import frontier_push
from repro.core.residues import DeadEndPolicy, PushState
from repro.core.result import PPRResult
from repro.core.validation import check_alpha, check_l1_threshold, check_source
from repro.errors import ConvergenceError
from repro.graph.digraph import DiGraph
from repro.instrumentation.tracing import ConvergenceTrace

__all__ = ["simultaneous_forward_push"]


def simultaneous_forward_push(
    graph: DiGraph,
    source: int,
    *,
    alpha: float = 0.2,
    l1_threshold: float = 1e-8,
    dead_end_policy: DeadEndPolicy = "redirect-to-source",
    max_iterations: int | None = None,
    trace: ConvergenceTrace | None = None,
    record_iterates: bool = False,
) -> PPRResult | tuple[PPRResult, list[dict[str, np.ndarray]]]:
    """Run SimFwdPush until the exact l1-error drops below ``lambda``.

    Parameters
    ----------
    record_iterates:
        When True, additionally return the per-iteration
        ``{"residue": ..., "reserve": ...}`` snapshots, which the
        equivalence tests compare against PowItr's iterates.
    """
    check_alpha(alpha)
    check_source(graph, source)
    check_l1_threshold(l1_threshold)
    if max_iterations is None:
        import math

        max_iterations = (
            max(int(math.ceil(math.log(l1_threshold) / math.log(1.0 - alpha))), 1)
            + 8
        )

    started = time.perf_counter()
    state = PushState(graph, source, alpha, dead_end_policy=dead_end_policy)
    iterates: list[dict[str, np.ndarray]] = []
    if trace is not None:
        trace.restart_clock()
        trace.record(0, state.r_sum)

    iterations = 0
    while state.r_sum > l1_threshold:
        if iterations >= max_iterations:
            raise ConvergenceError(
                f"SimFwdPush exceeded {max_iterations} iterations "
                f"(r_sum={state.r_sum:.3e}, lambda={l1_threshold:.3e})"
            )
        active = np.flatnonzero(state.residue > 0.0)
        frontier_push(state, active)
        state.refresh_r_sum()
        iterations += 1
        state.counters.iterations = iterations
        if record_iterates:
            iterates.append(
                {
                    "residue": state.residue.copy(),
                    "reserve": state.reserve.copy(),
                }
            )
        if trace is not None:
            trace.maybe_record(state.counters.residue_updates, state.r_sum)

    if trace is not None:
        trace.record(state.counters.residue_updates, state.r_sum)
    result = PPRResult(
        estimate=state.reserve,
        residue=state.residue,
        source=source,
        alpha=alpha,
        counters=state.counters,
        trace=trace,
        seconds=time.perf_counter() - started,
        method="SimFwdPush",
    )
    if record_iterates:
        return result, iterates
    return result
