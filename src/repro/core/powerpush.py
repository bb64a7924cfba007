"""PowerPush — Power Iteration with Forward Push (paper Algorithm 3).

PowerPush is the paper's first contribution: an implementation of
Power Iteration that unifies the *local* strength of Forward Push
(work proportional to the frontier while the mass is concentrated) with
the *global* strength of Power Iteration (cache-friendly sequential
scans once the frontier is wide).  Three ingredients (Section 5):

1. **Asynchronous pushes** — within a phase, pushes use the freshest
   residues, so one push can do the work of several synchronous ones.
2. **Queue-to-scan switch** — start with a FIFO queue; once the number
   of active nodes exceeds ``scan_threshold`` (default ``n / 4``),
   switch to sequential scans over the concatenated edge array.
3. **Dynamic l1-threshold epochs** — run ``epoch_num`` (default 8)
   epochs with geometrically shrinking error targets
   ``lambda^(i/epoch_num)``; the larger early thresholds mean early
   pushes all have high unit-cost benefit, letting residues accumulate
   before being pushed and cutting the total number of residue updates.

PowerPush has one execution path, two C loops
(:mod:`repro.core.kernels`) and one call to each per query.  Its queue
phase, :func:`~repro.core.kernels.queue_rounds`, pushes the whole
active set per round, the S(j) iteration structure of Section 4.2.  Its
scan phase, :func:`~repro.core.kernels.scan_epochs`, runs every epoch:
whole asynchronous sweeps, nodes in ascending id, each push reading the
residues every earlier push of the same sweep left — ingredient 1 at
node granularity, as in Algorithm 3 — with the dead-end mass routed and
``r_sum`` recounted after each.  Sweeps alone take a ``lj-s`` x10 query
at lambda = 1e-8 from 0.92x of PowItr's residue updates (synchronous
sweeps) to about 0.48x, the "roughly half" of the paper's Figure 6.
Algorithm 3's scan pushes only active nodes; a sweep pushes every node
holding residue, which is always legal and saves the masking passes.
The scan phase is whole sweeps only — once a query scans it never goes
back to a frontier push — and it sweeps until ``r_sum`` itself meets
the epoch's target: with dead ends "no node is active" does not imply
that.  Python computes the epoch targets and the work budget, raises
:class:`~repro.errors.ConvergenceError` when a loop reports the budget
spent, and, for a traced solve, lets each loop return after every round
or sweep to record a point, with the same bits.  Algorithm 3's scalar
loop, line for line, is the test reference ``reference_power_push`` in
``tests/test_core_powerpush.py``; ``reference_run`` there is the Python
loop the two C loops replaced.

PowerPush adds a fourth ingredient the paper does not have:

4. **Epoch-end extrapolation** — a few sweeps into the scan phase each
   sweep repeats the previous one scaled by a constant ``gamma`` (0.68
   on ``lj-s``), and the push invariant is linear, so that geometric
   tail can be summed instead of swept: when an epoch that swept ends
   above ``lambda``, its last sweep is applied
   ``k = min(r / (r_before - r))`` more times in one ``O(n)`` step at
   the end of the epoch, with no edge touched.  ``k`` is the largest
   factor that keeps every residue non-negative, so every contract
   below holds unchanged; it is
   ``gamma / (1 - gamma)`` in the geometric regime (95-99 % of the
   residue goes, and the next epochs' targets are already met) and 0
   while some residue still falls to zero within a sweep (nothing
   happens).  ``lj-s`` x10: 39 M residue updates a query down to 22 M.
   The scalar test reference is the paper verbatim, without it.
"""

from __future__ import annotations

import math
import numbers
import time

from repro.core.kernels import queue_rounds, scan_epochs
from repro.core.residues import DeadEndPolicy, PushState
from repro.core.result import PPRResult
from repro.core.validation import (
    check_alpha,
    check_l1_threshold,
    check_source,
)
from repro.errors import ConvergenceError, ParameterError
from repro.graph.digraph import DiGraph
from repro.instrumentation.tracing import ConvergenceTrace

__all__ = ["power_push", "power_push_block", "PowerPushConfig"]


class PowerPushConfig:
    """Tunable constants of Algorithm 3.

    Attributes
    ----------
    epoch_num:
        Number of dynamic-threshold epochs (paper default 8).
    scan_threshold_fraction:
        Queue-to-scan switch point as a fraction of ``n`` (paper uses
        ``n / 4``).  Set to 0 to disable the queue phase entirely
        (pure global scans) or to ``float('inf')`` to never switch
        (pure FIFO) — both used by the ablation benchmark.
    """

    __slots__ = ("epoch_num", "scan_threshold_fraction")

    def __init__(
        self,
        epoch_num: int = 8,
        scan_threshold_fraction: float = 0.25,
    ) -> None:
        if (
            not isinstance(epoch_num, numbers.Integral)
            or isinstance(epoch_num, bool)
            or epoch_num < 1
        ):
            raise ParameterError(
                f"epoch_num must be an integer >= 1, got {epoch_num!r}"
            )
        if (
            not isinstance(scan_threshold_fraction, numbers.Real)
            or not scan_threshold_fraction >= 0
        ):
            raise ParameterError(
                "scan_threshold_fraction must be a number >= 0, got "
                f"{scan_threshold_fraction!r}"
            )
        self.epoch_num = int(epoch_num)
        self.scan_threshold_fraction = float(scan_threshold_fraction)

    def scan_threshold(self, num_nodes: int) -> float:
        """Active-node count above which the scan phase takes over."""
        return self.scan_threshold_fraction * num_nodes


def power_push(
    graph: DiGraph,
    source: int,
    *,
    alpha: float = 0.2,
    l1_threshold: float = 1e-8,
    config: PowerPushConfig | None = None,
    dead_end_policy: DeadEndPolicy = "redirect-to-source",
    trace: ConvergenceTrace | None = None,
    max_work_factor: float = 64.0,
) -> PPRResult:
    """Answer a high-precision SSPPR query with PowerPush (Algorithm 3).

    Returns a :class:`PPRResult` whose ``estimate`` satisfies
    ``||estimate - pi_s||_1 = sum(residue) <= l1_threshold``.

    Parameters
    ----------
    config:
        Epoch count and scan threshold; defaults to the paper's
        constants (``epoch_num=8``, ``scan_threshold=n/4``).
    max_work_factor:
        Safety multiplier on the theoretical sweep budget before a
        :class:`ConvergenceError` is raised.
    """
    check_alpha(alpha)
    source = check_source(graph, source)
    check_l1_threshold(l1_threshold)
    if config is None:
        config = PowerPushConfig()
    elif not isinstance(config, PowerPushConfig):
        raise ParameterError(
            f"config must be a PowerPushConfig, got {type(config).__name__}"
        )

    started = time.perf_counter()
    state = PushState(graph, source, alpha, dead_end_policy=dead_end_policy)
    if trace is not None:
        trace.restart_clock()
        trace.record(0, state.r_sum)

    if graph.num_edges == 0:
        # Every node is a dead end, so the policy alone fixes the walk:
        # back to the source (pi = e_s) or uniformly anywhere.
        state.push(source)
        state.residue[:] = 0.0
        if dead_end_policy == "uniform-teleport":
            state.reserve[:] = (1.0 - alpha) / graph.num_nodes
            state.reserve[source] += alpha
        else:
            state.reserve[source] = 1.0
        state.refresh_r_sum()
    else:
        _run(state, l1_threshold, config, trace, max_work_factor)

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
        method="PowerPush",
    )


def _run(
    state: PushState,
    l1_threshold: float,
    config: PowerPushConfig,
    trace: ConvergenceTrace | None,
    max_work_factor: float,
) -> None:
    graph = state.graph
    n, m = graph.num_nodes, graph.num_edges
    budget = _push_budget(state.alpha, l1_threshold, m, max_work_factor)

    # Queue phase: rounds of the whole active set, the S(j) iteration
    # structure of Section 4.2, while the frontier is small; every node
    # a round pushes was appended to the queue.  A loop stopped by the
    # budget has billed past it, so _check_budget raises.
    pushes = state.counters.pushes
    _, within_budget = queue_rounds(
        state, l1_threshold / m, l1_threshold, config.scan_threshold(n),
        budget, trace=trace,
    )
    state.counters.queue_appends += state.counters.pushes - pushes
    if not within_budget:
        _check_budget(state, budget)

    # Scan phase: whole sweeps, extrapolated at every epoch end.
    if state.refresh_r_sum() > l1_threshold:
        state.counters.bump("epochs", config.epoch_num)
        targets = [
            _epoch_target(l1_threshold, epoch, config.epoch_num)
            for epoch in range(1, config.epoch_num + 1)
        ]
        _, state.r_sum, within_budget = scan_epochs(
            graph,
            state.residue,
            state.reserve,
            state.alpha,
            targets,
            state.counters,
            l1_threshold=l1_threshold,
            source=state.source,
            dead_end_policy=state.dead_end_policy,
            max_updates=budget,
            trace=trace,
        )
        if not within_budget:
            _check_budget(state, budget)


def power_push_block(graph: DiGraph, sources, **params) -> list[PPRResult]:
    """One :func:`power_push` per source, in order.

    PowerPush has no multi-source kernel: a per-source loop is the
    fastest measured way to answer a batch (README, "Why PowerPush has
    no block path").  The name survives only because the frozen
    ``benchmarks/e2e/layers.py`` imports it.
    """
    return [power_push(graph, int(source), **params) for source in sources]


def _epoch_target(l1_threshold: float, epoch: int, epoch_num: int) -> float:
    """The ``r_sum`` epoch ``epoch`` (1-based) of the scan phase sweeps down to."""
    return l1_threshold ** (epoch / epoch_num)


def _push_budget(
    alpha: float, l1_threshold: float, m: int, max_work_factor: float
) -> int:
    """Residue-update budget from the O(m log(1/lambda)) bound."""
    log_term = math.log(max(1.0 / l1_threshold, 2.0))
    return int(max_work_factor * (m * (log_term + 1.0) / alpha + m)) + 1024


def _check_budget(state: PushState, budget: int) -> None:
    if state.counters.residue_updates > budget:
        raise ConvergenceError(
            f"PowerPush exceeded its work budget ({budget} residue updates); "
            f"r_sum={state.refresh_r_sum():.3e}"
        )
