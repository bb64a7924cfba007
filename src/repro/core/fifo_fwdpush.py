"""First-In-First-Out Forward Push (FIFO-FwdPush, paper Algorithm 2).

This is the "common implementation" whose running time Section 4.2
bounds by ``O(m log(1/lambda))`` (Theorem 4.3) — the positive answer to
the paper's open question.  It runs in the per-iteration form of that
analysis: iteration ``j+1`` simultaneously pushes the active set
``S(j)``, exactly the iteration structure Section 4.2 defines, and
exactly PowerPush's queue rounds (:func:`~repro.core.kernels.queue_rounds`),
which it runs in C at ``O(sum of frontier degrees)`` per round plus an
``O(n)`` frontier test, so the work tracks the paper's ``T(j+1)``
quantity (Eq. 11).  At PowerPush's queue-to-scan switch (a frontier of
more than ``n / 4`` nodes) an iteration is one asynchronous sweep of
every node holding residue instead
(:func:`~repro.core.kernels.async_sweep`), after which the rounds
resume.  The scalar queue loop of Algorithm 2 verbatim is
:func:`repro.core.fwdpush.forward_push` with ``scheduler="fifo"``.

It stops when no node is active w.r.t. ``r_max``, i.e. the guaranteed
l1-error is ``m * r_max`` (Eq. 7).
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core.kernels import _NO_CAP, async_sweep, queue_rounds
from repro.core.powerpush import PowerPushConfig
from repro.core.residues import DeadEndPolicy, PushState
from repro.core.result import PPRResult
from repro.core.validation import (
    check_alpha,
    check_integer,
    check_l1_threshold,
    check_r_max,
    check_source,
)
from repro.errors import ConvergenceError, ParameterError
from repro.graph.digraph import DiGraph
from repro.instrumentation.tracing import ConvergenceTrace

__all__ = ["fifo_forward_push", "r_max_for_l1_threshold"]


def r_max_for_l1_threshold(graph: DiGraph, l1_threshold: float) -> float:
    """The paper's setting ``r_max = lambda / m`` (Section 3.2)."""
    check_l1_threshold(l1_threshold)
    if graph.num_edges == 0:
        return l1_threshold
    return l1_threshold / graph.num_edges


def fifo_forward_push(
    graph: DiGraph,
    source: int,
    *,
    alpha: float = 0.2,
    r_max: float | None = None,
    l1_threshold: float | None = None,
    dead_end_policy: DeadEndPolicy = "redirect-to-source",
    max_sweeps: int | None = None,
    trace: ConvergenceTrace | None = None,
) -> PPRResult:
    """Run FIFO-FwdPush (Algorithm 2).

    Exactly one of ``r_max`` / ``l1_threshold`` must be given; the
    latter sets ``r_max = l1_threshold / m``.  More than ``max_sweeps``
    iterations (rounds and sweeps) raise
    :class:`~repro.errors.ConvergenceError`, the last of them run: any
    integer ``<= 0`` raises after the first.
    """
    if (r_max is None) == (l1_threshold is None):
        raise ParameterError(
            "specify exactly one of r_max or l1_threshold"
        )
    if r_max is None:
        assert l1_threshold is not None
        r_max = r_max_for_l1_threshold(graph, l1_threshold)
    check_r_max(r_max)
    if r_max == 0.0:
        raise ParameterError("r_max must be positive for FIFO-FwdPush")

    check_alpha(alpha)
    check_source(graph, source)
    if max_sweeps is None:
        # Lemma 4.4/4.5: O(log(1/(m r_max))/alpha + 1/alpha) sweeps
        # suffice; each sweep removes an alpha-fraction of removable
        # mass in the worst case.  Pad generously.
        lam = max(r_max * max(graph.num_edges, 1), 1e-300)
        max_sweeps = int(8.0 * (math.log(max(1.0 / lam, 2.0)) + 1.0) / alpha) + 64
    # Every cap <= 0 raises after the first iteration, and the C loop
    # counts in int64: past it there is no cap.
    cap = min(max(check_integer(max_sweeps, "max_sweeps"), 0), _NO_CAP)

    started = time.perf_counter()
    state = PushState(graph, source, alpha, dead_end_policy=dead_end_policy)
    if trace is not None:
        trace.restart_clock()
        trace.record(0, state.r_sum)

    threshold = state.threshold_vector(r_max)
    switch = PowerPushConfig().scan_threshold(graph.num_nodes)
    sweeps = 0
    while sweeps <= cap:
        # Counted here, so that a wide frontier goes straight to the
        # sweep: a call of the rounds that would push nothing costs a
        # scan and two n-long scratch arrays.
        active = np.count_nonzero(state.residue > threshold)
        if active == 0:
            break
        if active <= switch:
            # Rounds until no node is active or the frontier is wide; no
            # r_sum target stops them.
            rounds, _ = queue_rounds(
                state, r_max, -math.inf, switch, max_rounds=cap - sweeps,
                trace=trace,
            )
            sweeps += rounds
        else:
            async_sweep(state)
            sweeps += 1
            if trace is not None and sweeps <= cap:
                trace.maybe_record(state.counters.residue_updates, state.r_sum)
    state.counters.iterations = sweeps
    if sweeps > cap:
        raise ConvergenceError(
            f"FIFO-FwdPush exceeded {max_sweeps} sweeps "
            f"(r_sum={state.refresh_r_sum():.3e}, r_max={r_max:.3e})"
        )

    state.refresh_r_sum()
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
        method="FIFO-FwdPush",
    )
