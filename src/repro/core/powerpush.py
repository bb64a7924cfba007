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

Like the other algorithms, PowerPush has a *faithful* scalar mode
matching Algorithm 3 line for line, and a *vectorised* mode with the
same queue phase and epoch structure whose scan pass is a chunked
asynchronous sweep (:func:`repro.core.kernels.async_sweep`): the node
range is walked in a fixed number of contiguous chunks, each chunk's
pushes are simultaneous, and every chunk pushes the residues as the
chunks before it left them.  That is ingredient 1 at chunk rather than
node granularity — a push uses mass that arrived earlier in the same
pass — and it is what brings a query from 0.92x of PowItr's residue
updates (synchronous sweeps; ``lj-s`` x10, lambda = 1e-8) down to
0.52x, the "roughly half" of the paper's Figure 6.
The scalar mode pushes only active nodes in a scan; a vectorised sweep
pushes every node holding residue, which is always legal and saves the
masking passes.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Literal

import numpy as np

from repro.backends import KernelBackend, active_backend
from repro.core.kernels import (
    DENSE_SWEEP_FRACTION,
    block_async_sweep,
    block_frontier_push,
    frontier_push,
    sweep_active,
)
from repro.core.residues import BlockPushState, DeadEndPolicy, PushState
from repro.core.result import PPRResult
from repro.core.validation import (
    check_alpha,
    check_l1_threshold,
    check_source,
)
from repro.core.workspace import Workspace
from repro.errors import ConvergenceError, ParameterError
from repro.graph.digraph import DiGraph
from repro.instrumentation.tracing import ConvergenceTrace

__all__ = ["power_push", "power_push_block", "PowerPushConfig"]

Mode = Literal["faithful", "vectorized", "auto"]


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
        if epoch_num < 1:
            raise ParameterError(f"epoch_num must be >= 1, got {epoch_num}")
        if scan_threshold_fraction < 0:
            raise ParameterError(
                "scan_threshold_fraction must be >= 0, got "
                f"{scan_threshold_fraction}"
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
    mode: Mode = "auto",
    dead_end_policy: DeadEndPolicy = "redirect-to-source",
    trace: ConvergenceTrace | None = None,
    max_work_factor: float = 64.0,
    backend: str | KernelBackend | None = None,
) -> PPRResult:
    """Answer a high-precision SSPPR query with PowerPush (Algorithm 3).

    Returns a :class:`PPRResult` whose ``estimate`` satisfies
    ``||estimate - pi_s||_1 = sum(residue) <= l1_threshold``.

    Parameters
    ----------
    config:
        Epoch count and scan threshold; defaults to the paper's
        constants (``epoch_num=8``, ``scan_threshold=n/4``).
    mode:
        ``"faithful"`` runs the scalar pseudo-code; ``"vectorized"``
        (chosen by ``"auto"``) runs the push kernels on the selected
        backend.
    max_work_factor:
        Safety multiplier on the theoretical sweep budget before a
        :class:`ConvergenceError` is raised.
    backend:
        Kernel backend name or instance for the vectorised mode
        (``None`` consults ``REPRO_PPR_BACKEND``, defaulting to the
        NumPy reference).  The faithful scalar mode always runs the
        pseudo-code verbatim and ignores it.
    """
    check_alpha(alpha)
    check_source(graph, source)
    check_l1_threshold(l1_threshold)
    kernel_backend = active_backend(backend)
    if config is None:
        config = PowerPushConfig()
    if mode == "auto":
        mode = "vectorized"
    if mode not in ("faithful", "vectorized"):
        raise ParameterError(f"unknown mode {mode!r}")

    started = time.perf_counter()
    state = PushState(graph, source, alpha, dead_end_policy=dead_end_policy)
    if trace is not None:
        trace.restart_clock()
        trace.record(0, state.r_sum)

    if graph.num_edges == 0:
        # Only teleport mass exists: the answer is e_s after one push.
        state.push(source)
        state.reserve[source] = 1.0
        state.residue[:] = 0.0
        state.refresh_r_sum()
    elif mode == "faithful":
        _run_faithful(state, l1_threshold, config, trace, max_work_factor)
    else:
        _run_vectorized(
            state,
            l1_threshold,
            config,
            trace,
            max_work_factor,
            backend=kernel_backend,
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
        method="PowerPush",
    )


# ----------------------------------------------------------------------
# Faithful scalar implementation (Algorithm 3 verbatim)
# ----------------------------------------------------------------------
def _run_faithful(
    state: PushState,
    l1_threshold: float,
    config: PowerPushConfig,
    trace: ConvergenceTrace | None,
    max_work_factor: float,
) -> None:
    graph = state.graph
    n, m = graph.num_nodes, graph.num_edges
    r_max = l1_threshold / m
    scan_threshold = config.scan_threshold(n)
    budget = _push_budget(state.alpha, l1_threshold, m, max_work_factor)

    # --- Queue phase (Lines 4-13) -------------------------------------
    queue: deque[int] = deque()
    in_queue = bytearray(n)
    if state.is_active(state.source, r_max):
        queue.append(state.source)
        in_queue[state.source] = 1
        state.counters.queue_appends += 1
    while queue and len(queue) <= scan_threshold and state.r_sum > l1_threshold:
        v = queue.popleft()
        in_queue[v] = 0
        state.push(v)
        _check_budget(state, budget)
        for u in graph.out_neighbors(v):
            if not in_queue[u] and state.is_active(u, r_max):
                queue.append(int(u))
                in_queue[u] = 1
                state.counters.queue_appends += 1
        if trace is not None:
            trace.maybe_record(state.counters.residue_updates, state.r_sum)

    # --- Sequential-scan phase with dynamic thresholds (Lines 14-24) --
    if state.refresh_r_sum() > l1_threshold:
        for epoch in range(1, config.epoch_num + 1):
            state.counters.bump("epochs")
            epoch_r_max = l1_threshold ** (epoch / config.epoch_num) / m
            while state.r_sum > m * epoch_r_max:
                progressed = False
                for v in range(n):
                    if state.is_active(v, epoch_r_max):
                        state.push(v)
                        progressed = True
                        _check_budget(state, budget)
                state.refresh_r_sum()
                if trace is not None:
                    trace.maybe_record(
                        state.counters.residue_updates, state.r_sum
                    )
                if not progressed:
                    break


# ----------------------------------------------------------------------
# Vectorised implementation
# ----------------------------------------------------------------------
def _run_vectorized(
    state: PushState,
    l1_threshold: float,
    config: PowerPushConfig,
    trace: ConvergenceTrace | None,
    max_work_factor: float,
    backend: KernelBackend | None = None,
) -> None:
    graph = state.graph
    n, m = graph.num_nodes, graph.num_edges
    r_max = l1_threshold / m
    scan_threshold = config.scan_threshold(n)
    budget = _push_budget(state.alpha, l1_threshold, m, max_work_factor)
    workspace = Workspace()

    # --- Queue phase: batched FIFO frontiers --------------------------
    # Each batch simultaneously pushes the current active set, which is
    # the S(j) iteration structure of Section 4.2; we stay in this
    # phase while the frontier is small.
    while state.r_sum > l1_threshold:
        frontier = state.active_nodes(r_max)
        if frontier.shape[0] == 0 or frontier.shape[0] > scan_threshold:
            break
        frontier_push(state, frontier, workspace=workspace, backend=backend)
        state.counters.queue_appends += frontier.shape[0]
        _check_budget(state, budget)
        if trace is not None:
            trace.maybe_record(state.counters.residue_updates, state.r_sum)

    # --- Scan phase with dynamic thresholds ---------------------------
    if state.refresh_r_sum() > l1_threshold:
        degree_f = state.effective_out_degree.astype(np.float64)
        for epoch in range(1, config.epoch_num + 1):
            state.counters.bump("epochs")
            epoch_r_max = l1_threshold ** (epoch / config.epoch_num) / m
            threshold_vec = degree_f * epoch_r_max
            while state.r_sum > m * epoch_r_max:
                pushed = sweep_active(
                    state,
                    epoch_r_max,
                    threshold_vec=threshold_vec,
                    workspace=workspace,
                    backend=backend,
                )
                if pushed == 0:
                    state.refresh_r_sum()
                    break
                _check_budget(state, budget)
                if trace is not None:
                    trace.maybe_record(
                        state.counters.residue_updates, state.r_sum
                    )


# ----------------------------------------------------------------------
# Block (multi-source) driver
# ----------------------------------------------------------------------
#: Row phases of the block schedule (mirrors _run_vectorized's control
#: flow: FIFO-frontier queue phase, dynamic-threshold scan epochs, done).
_QUEUE, _SCAN, _DONE = 0, 1, 2


def power_push_block(
    graph: DiGraph,
    sources,
    *,
    alpha: float = 0.2,
    l1_threshold: float = 1e-8,
    config: PowerPushConfig | None = None,
    dead_end_policy: DeadEndPolicy = "redirect-to-source",
    max_work_factor: float = 64.0,
    workspace: Workspace | None = None,
    backend: str | KernelBackend | None = None,
) -> list[PPRResult]:
    """Answer many high-precision SSPPR queries in one block solve.

    Runs the vectorised PowerPush schedule over a
    :class:`~repro.core.residues.BlockPushState` holding all sources'
    residue rows: per round, every unfinished row evaluates its own
    phase (queue / scan epoch) against its own ``r_sum`` and frontier,
    then all rows wanting a local push share one union gather/scatter
    and all rows wanting a global sweep share one block asynchronous
    sweep (one scan of the edge array for all of them).
    Finished rows retire from the active block, so a batch of mixed
    difficulty never pays for its slowest member on every round.

    Each row's float-operation sequence is *identical* to an
    independent :func:`power_push` run with the same parameters, so
    ``results[i].estimate`` and ``.residue`` are bitwise-equal to the
    single-source answers — the property the serving layer's
    byte-identity contract relies on (and the equivalence/golden tests
    pin down).  Traces are not supported on the block path; per-row
    :class:`~repro.instrumentation.counters.PushCounters` are.

    Returns one :class:`PPRResult` per source, in order; wall time is
    apportioned evenly across rows and ``batch_size`` records the
    block width.
    """
    check_alpha(alpha)
    check_l1_threshold(l1_threshold)
    kernel_backend = active_backend(backend)
    sources = [check_source(graph, int(s)) for s in sources]
    if not sources:
        return []
    if config is None:
        config = PowerPushConfig()
    if graph.num_edges == 0:
        # Only teleport mass exists; the per-source special case is
        # already O(1), so delegate instead of duplicating it.
        return [
            power_push(
                graph,
                source,
                alpha=alpha,
                l1_threshold=l1_threshold,
                config=config,
                dead_end_policy=dead_end_policy,
                max_work_factor=max_work_factor,
            )
            for source in sources
        ]

    started = time.perf_counter()
    state = BlockPushState(
        graph, sources, alpha, dead_end_policy=dead_end_policy
    )
    if workspace is None:
        workspace = Workspace()
    _run_block(
        state,
        l1_threshold,
        config,
        max_work_factor,
        workspace,
        backend=kernel_backend,
    )

    elapsed = time.perf_counter() - started
    num_rows = state.num_rows
    share = elapsed / num_rows
    results = []
    for row in range(num_rows):
        state.refresh_r_sum(row)
        results.append(
            PPRResult(
                estimate=state.reserve[row].copy(),
                residue=state.residue[row].copy(),
                source=int(state.sources[row]),
                alpha=alpha,
                counters=state.row_counters(row),
                seconds=share,
                method="PowerPush",
                batch_size=num_rows,
            )
        )
    return results


def _run_block(
    state: BlockPushState,
    l1_threshold: float,
    config: PowerPushConfig,
    max_work_factor: float,
    workspace: Workspace,
    backend: KernelBackend | None = None,
) -> None:
    """Round-based block schedule; see :func:`power_push_block`.

    Every round each live row settles its push-free transitions (queue
    exit, epoch advances) and either requests one push — local or
    global, decided by its own frontier density — or retires.  The
    requested pushes execute as two shared block kernels.  Because
    rows never exchange mass, running their individual op sequences in
    lockstep rounds leaves each row's arithmetic exactly as in its
    independent run.
    """
    graph = state.graph
    n, m = graph.num_nodes, graph.num_edges
    queue_r_max = l1_threshold / m
    scan_threshold = config.scan_threshold(n)
    epoch_num = config.epoch_num
    budget = _push_budget(state.alpha, l1_threshold, m, max_work_factor)
    degree_f = state.effective_out_degree.astype(np.float64)
    # Threshold vectors are constant per (phase, epoch): build each
    # lazily, once, and share it across all rows sitting in that stage.
    threshold_vecs: dict[int, np.ndarray] = {
        _QUEUE: degree_f * queue_r_max
    }
    epoch_r_maxes = [
        l1_threshold ** (epoch / epoch_num) / m
        for epoch in range(1, epoch_num + 1)
    ]
    epoch_r_max_arr = np.asarray(epoch_r_maxes)

    num_rows = state.num_rows
    dense_threshold = DENSE_SWEEP_FRACTION * n
    phase = np.full(num_rows, _QUEUE, dtype=np.int8)
    # 1-based once scanning; 0 while queueing, which doubles as the
    # stage key (epoch thresholds are 1-based, the queue threshold 0).
    epoch = np.zeros(num_rows, dtype=np.int64)
    #: python-side tallies so steady-state rounds (everyone scanning,
    #: nobody retiring) skip the transition machinery entirely
    status = {"queue": num_rows, "done": 0}

    def retire(row: int) -> None:
        phase[row] = _DONE
        status["done"] += 1

    def enter_scan(row: int) -> None:
        """Queue exit: refresh, then scan from epoch 1 or retire."""
        status["queue"] -= 1
        if state.refresh_r_sum(row) > l1_threshold:
            phase[row] = _SCAN
            epoch[row] = 1
            state.epochs[row] += 1
            advance_epochs(row)
        else:
            retire(row)

    def advance_epochs(row: int) -> None:
        """Skip epochs whose target is already met (each still bumps)."""
        while (
            phase[row] == _SCAN
            and state.r_sum[row] <= m * epoch_r_maxes[epoch[row] - 1]
        ):
            if epoch[row] == epoch_num:
                retire(row)
                return
            epoch[row] += 1
            state.epochs[row] += 1

    def stage_vec(stage: int) -> np.ndarray:
        vec = threshold_vecs.get(stage)
        if vec is None:
            vec = degree_f * epoch_r_maxes[stage - 1]
            threshold_vecs[stage] = vec
        return vec

    live = np.arange(num_rows)
    live_done = 0
    while True:
        if status["done"] != live_done:
            live = np.flatnonzero(phase != _DONE)
            live_done = status["done"]
            if live.shape[0] == 0:
                return

        # Settle push-free queue exits so every surviving row has a
        # well-defined threshold for this round's mask computation.
        if status["queue"]:
            queue_done = (phase[live] == _QUEUE) & (
                state.r_sum[live] <= l1_threshold
            )
            if queue_done.any():
                for row in live[queue_done]:
                    enter_scan(int(row))
                if status["done"] != live_done:
                    live = np.flatnonzero(phase != _DONE)
                    live_done = status["done"]
                    if live.shape[0] == 0:
                        return

        # One broadcast compare per stage shared by all its rows; the
        # common case — every live row in the same stage — compares the
        # whole sub-block in one shot with no mask staging buffer.
        stages = epoch[live]
        first_stage = int(stages[0])
        same_stage = (stages == first_stage).all()
        if same_stage:
            masks = state.active_masks(live, stage_vec(first_stage))
        else:
            masks = np.empty((live.shape[0], n), dtype=bool)
            for stage in np.unique(stages):
                stage = int(stage)
                members = stages == stage
                masks[members] = state.active_masks(
                    live[members], stage_vec(stage)
                )
        num_active = np.count_nonzero(masks, axis=1)

        # Per-row decision, vectorised over the block: a row either
        # pushes this round (local or global, by its own frontier
        # density) or takes a push-free transition and retries.
        nonempty = num_active > 0
        if status["queue"]:
            in_queue = stages == 0
            push_local = np.where(
                in_queue,
                nonempty & (num_active <= scan_threshold),
                nonempty & (num_active <= dense_threshold),
            )
            push_global = ~in_queue & (num_active > dense_threshold)
            queue_exit = in_queue & ~push_local
            scan_stall = ~in_queue & ~nonempty
            for row in live[queue_exit]:
                enter_scan(int(row))
        else:
            in_queue = None
            push_local = nonempty & (num_active <= dense_threshold)
            push_global = num_active > dense_threshold
            scan_stall = ~nonempty
        if scan_stall.any():
            for row in live[scan_stall]:
                # "pushed == 0": refresh, leave the while loop, and
                # step into the next epoch (which always bumps).
                row = int(row)
                state.refresh_r_sum(row)
                if epoch[row] == epoch_num:
                    retire(row)
                else:
                    epoch[row] += 1
                    state.epochs[row] += 1
                    advance_epochs(row)

        if push_local.any():
            block_frontier_push(
                state, live[push_local], masks[push_local],
                workspace=workspace, backend=backend,
            )
        if push_global.any():
            block_async_sweep(
                state, live[push_global],
                workspace=workspace, backend=backend,
            )

        # Post-push bookkeeping, in the same order the single-source
        # loops apply it: queue appends, budget check, loop re-entry.
        if in_queue is not None:
            queue_pushed = push_local & in_queue
            if queue_pushed.any():
                state.queue_appends[live[queue_pushed]] += num_active[
                    queue_pushed
                ]
            pushed = push_local | push_global
            scan_pushed = pushed & ~in_queue
        else:
            pushed = push_local | push_global
            scan_pushed = pushed
        over_budget = pushed & (state.residue_updates[live] > budget)
        if over_budget.any():
            row = int(live[np.flatnonzero(over_budget)[0]])
            raise ConvergenceError(
                f"PowerPush exceeded its work budget ({budget} residue "
                f"updates) on source {int(state.sources[row])}; "
                f"r_sum={state.refresh_r_sum(row):.3e}"
            )
        # The epoch-loop while condition re-check for scan rows that
        # pushed; rows still above their target simply sweep again next
        # round, the rest advance (each advance bumps its epoch).
        if scan_pushed.any():
            targets = m * epoch_r_max_arr[epoch[live] - 1]
            met = scan_pushed & (state.r_sum[live] <= targets)
            if met.any():
                for row in live[met]:
                    advance_epochs(int(row))


def _push_budget(
    alpha: float, l1_threshold: float, m: int, max_work_factor: float
) -> int:
    """Residue-update budget from the O(m log(1/lambda)) bound."""
    import math

    log_term = math.log(max(1.0 / l1_threshold, 2.0))
    return int(max_work_factor * (m * (log_term + 1.0) / alpha + m)) + 1024


def _check_budget(state: PushState, budget: int) -> None:
    if state.counters.residue_updates > budget:
        raise ConvergenceError(
            f"PowerPush exceeded its work budget ({budget} residue updates); "
            f"r_sum={state.refresh_r_sum():.3e}"
        )
