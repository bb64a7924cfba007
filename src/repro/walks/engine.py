"""Batched alpha-random-walk simulation.

An *alpha-random walk* (paper Section 2) stops at the current node with
probability ``alpha`` and otherwise moves to a uniformly random
out-neighbour.  From a dead end it follows the dead-end policy that
:class:`~repro.core.residues.PushState` applies to residue mass: under
``redirect-to-source`` it jumps back to the *query source* ``s`` (the
paper's conceptual dead-end edge points at the source, not at the
walk's own start — this matters for the walks FORA/SpeedPPR launch
from intermediate nodes); under ``uniform-teleport`` it jumps to a
uniformly random node of ``[0, n)``.

The engine advances *all* walks in lock-step, one step at a time: per
step NumPy draws the uniforms and two C loops consume them
(:func:`~repro.core.kernels.walk_halt` records the walks that stop and
compacts the rest, :func:`~repro.core.kernels.walk_move` moves every
survivor).  The draws are, in this order, ``rng.random(live)`` for the
stops, ``rng.integers(0, n, stuck)`` for the survivors on a dead end
under ``uniform-teleport`` (none under ``redirect-to-source``), and
``rng.random(movers)`` for the neighbour choices; so the stops, the
step count and the generator's end state depend on the seed and the
batch split alone.  The expected walk length is ``1/alpha``, so the
expected cost is ``O(num_walks / alpha)`` with tiny constants.

A scalar reference implementation (:func:`single_walk`) backs the
property tests that check the vectorised engine's distribution.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import walk_halt, walk_move
from repro.core.residues import DeadEndPolicy, check_dead_end_policy
from repro.core.validation import (
    check_alpha,
    check_positive_integer,
    check_source,
)
from repro.errors import ConvergenceError, ParameterError
from repro.graph.digraph import DiGraph

__all__ = ["simulate_walk_stops", "single_walk"]

_MAX_STEPS = 100_000


def simulate_walk_stops(
    graph: DiGraph,
    starts: np.ndarray,
    *,
    alpha: float = 0.2,
    source: int | None = None,
    dead_end_policy: DeadEndPolicy = "redirect-to-source",
    rng: np.random.Generator,
    batch_size: int = 1 << 20,
) -> tuple[np.ndarray, int]:
    """Simulate one alpha-walk per entry of ``starts``.

    Parameters
    ----------
    starts:
        Start node of each walk: a vector of an integer dtype (not
        ``bool``), any length.
    source:
        The query source used as the dead-end redirect target.  Dead
        ends raise :class:`ParameterError` when it is omitted and the
        graph has any (under ``redirect-to-source``).
    dead_end_policy:
        Where a walk goes from a dead end: the query ``source``
        (``redirect-to-source``) or a uniform node of ``[0, n)``
        (``uniform-teleport``).  ``self-loop`` needs structural
        self-loops, as in :class:`~repro.core.residues.PushState`.
    batch_size:
        Walks are processed in chunks of this size to bound memory; an
        integer of at least 1.

    Returns
    -------
    (stops, steps):
        ``stops[i]`` is the node where walk ``i`` stopped; ``steps`` is
        the total number of moves taken across all walks (for the
        instrumentation counters).
    """
    check_alpha(alpha)
    check_dead_end_policy(dead_end_policy)
    batch_size = check_positive_integer(batch_size, "batch_size")
    starts = np.asarray(starts)
    if starts.ndim != 1 or (starts.size and starts.dtype.kind not in "iu"):
        raise ParameterError(
            f"walk starts must be a vector of integer node ids, got "
            f"{starts.dtype} of shape {starts.shape}"
        )
    starts = np.ascontiguousarray(starts, dtype=np.int64)
    if starts.size and (starts.min() < 0 or starts.max() >= graph.num_nodes):
        raise ParameterError("walk start outside [0, n)")
    if graph.has_dead_ends:
        if dead_end_policy == "self-loop":
            raise ParameterError(
                "self-loop dead-end policy requires structural self-loops; "
                "apply repro.graph.apply_dead_end_rule(graph, 'self-loop') first"
            )
        if dead_end_policy == "redirect-to-source" and source is None:
            raise ParameterError(
                "graph has dead ends: pass the query source for the redirect"
            )
    if source is not None:
        check_source(graph, source)

    stops = np.empty(starts.shape[0], dtype=np.int64)
    total_steps = 0
    for begin in range(0, starts.shape[0], batch_size):
        chunk = starts[begin : begin + batch_size]
        stops[begin : begin + chunk.shape[0]], steps = _simulate_batch(
            graph, chunk, alpha, source, dead_end_policy, rng
        )
        total_steps += steps
    return stops, total_steps


def _simulate_batch(
    graph: DiGraph,
    starts: np.ndarray,
    alpha: float,
    source: int | None,
    dead_end_policy: DeadEndPolicy,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    # The live walks' ids and the nodes they stand on, compacted in walk
    # order by every halt step.
    walks = np.arange(starts.shape[0], dtype=np.int64)
    positions = starts.copy()
    stops = np.empty(starts.shape[0], dtype=np.int64)
    live = starts.shape[0]
    total_steps = 0

    for _ in range(_MAX_STEPS):
        if live == 0:
            return stops, total_steps
        live, stuck = walk_halt(
            graph, walks, positions, rng.random(live), alpha, stops
        )
        if live == 0:
            return stops, total_steps

        # The conceptual dead-end edge points at the policy's target, so
        # a move from a dead end *is* the jump (one step, not
        # jump-then-step).  Under redirect-to-source the target is the
        # source, which simulate_walk_stops required of a graph with
        # dead ends.
        jumps = None
        if stuck and dead_end_policy == "uniform-teleport":
            jumps = rng.integers(0, graph.num_nodes, size=stuck)
        walk_move(
            graph,
            positions,
            live,
            stuck,
            rng.random(live - stuck),
            jumps,
            -1 if source is None else source,
        )
        total_steps += live

    raise ConvergenceError(
        f"random walks exceeded {_MAX_STEPS} steps; alpha={alpha} too small?"
    )


def single_walk(
    graph: DiGraph,
    start: int,
    *,
    alpha: float = 0.2,
    source: int | None = None,
    dead_end_policy: DeadEndPolicy = "redirect-to-source",
    rng: np.random.Generator,
) -> int:
    """Scalar reference walk (used to validate the vectorised engine)."""
    check_alpha(alpha)
    check_source(graph, start)
    redirect = start if source is None else source
    v = start
    for _ in range(_MAX_STEPS):
        if rng.random() < alpha:
            return v
        neighbors = graph.out_neighbors(v)
        if neighbors.shape[0] == 0:
            if dead_end_policy == "uniform-teleport":
                v = int(rng.integers(0, graph.num_nodes))
            else:
                v = redirect
            continue
        v = int(neighbors[rng.integers(0, neighbors.shape[0])])
    raise ConvergenceError(f"single walk exceeded {_MAX_STEPS} steps")
