"""Pre-computed random-walk indexes (FORA+ and SpeedPPR-Index).

Both index-based algorithms pre-generate, for every node ``v``, the
stop nodes of ``K_v`` alpha-random walks from ``v``, so the Monte-Carlo
phase of a query becomes an array lookup.  The two sizing policies
differ in exactly the way Section 6 emphasises:

* **FORA+** needs ``K_v = ceil(d_v * sqrt(W / m)) + 1`` walks, where
  ``W`` depends on the query's relative error ``eps`` — so the index is
  built *for a specific eps* and is insufficient for any smaller one.
  Total size ``sqrt(m * W) + n`` walks (``O(n log n / eps)`` on
  scale-free graphs).

* **SpeedPPR-Index** needs only ``K_v = d_v`` walks thanks to the
  PowerPush + refinement first phase (``W_v = ceil(r_v * W) <= d_v``),
  so the index holds at most ``m`` walks, *independent of eps* — the
  property Table 2 quantifies.

A :class:`WalkIndex` stores the pre-computed stops in CSR-like layout
(``indptr`` over nodes, flat ``stops`` array) and records construction
time and byte size for the Table 2 harness.

Because the conceptual dead-end edge points at the *query source*, the
pre-computed walks of a graph with dead ends would be source-dependent;
both papers sidestep this by using cleaned graphs.  We therefore build
indexes only on dead-end-free graphs and raise otherwise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.validation import check_alpha
from repro.errors import IndexBuildError, IndexMismatchError, ParameterError
from repro.graph.digraph import DiGraph
from repro.walks.engine import simulate_walk_stops

__all__ = [
    "WalkIndex",
    "build_walk_index",
    "fora_plus_walk_counts",
    "speedppr_walk_counts",
]


@dataclass
class WalkIndex:
    """Pre-computed walk stops for every node.

    ``stops[indptr[v]:indptr[v+1]]`` are the stop nodes of the
    pre-computed walks from ``v``.  Construction checks the layout the
    Monte-Carlo phase's C scatter relies on and raises
    :class:`~repro.errors.IndexBuildError` otherwise: ``indptr`` is
    ``int64`` of length ``graph_num_nodes + 1``, starts at 0, never
    decreases and ends at ``len(stops)``; ``stops`` is a C-contiguous
    ``int32`` vector of node ids in ``[0, graph_num_nodes)``.
    """

    indptr: np.ndarray
    stops: np.ndarray
    alpha: float
    policy: str
    construction_seconds: float
    graph_num_nodes: int
    graph_num_edges: int

    def __post_init__(self) -> None:
        n = self.graph_num_nodes
        indptr, stops = self.indptr, self.stops
        if not (
            isinstance(indptr, np.ndarray)
            and indptr.dtype == np.int64
            and indptr.shape == (n + 1,)
            and isinstance(stops, np.ndarray)
            and stops.dtype == np.int32
            and stops.ndim == 1
            and stops.flags.c_contiguous
        ):
            raise IndexBuildError(
                f"a walk index of {n} nodes needs an int64 indptr of length "
                f"{n + 1} and a C-contiguous int32 stops vector"
            )
        if indptr[0] != 0 or indptr[-1] != stops.shape[0] or np.any(
            np.diff(indptr) < 0
        ):
            raise IndexBuildError(
                f"walk index indptr must rise from 0 to {stops.shape[0]}"
            )
        if stops.shape[0] and (stops.min() < 0 or stops.max() >= n):
            raise IndexBuildError(f"walk index stops must be ids in [0, {n})")

    @property
    def num_walks(self) -> int:
        """Total number of pre-computed walks."""
        return int(self.stops.shape[0])

    @property
    def size_bytes(self) -> int:
        """Bytes occupied by the index arrays (Table 2's index size)."""
        return int(self.indptr.nbytes + self.stops.nbytes)

    def walks_available(self, v: int) -> int:
        """Number of pre-computed walks for node ``v`` (``K_v``)."""
        return int(self.indptr[v + 1] - self.indptr[v])

    def stops_for(self, v: int, k: int) -> np.ndarray:
        """First ``k`` pre-computed stop nodes of walks from ``v``."""
        available = self.walks_available(v)
        if k > available:
            raise IndexMismatchError(
                f"node {v}: {k} walks requested but only {available} "
                f"pre-computed (policy={self.policy!r})"
            )
        begin = int(self.indptr[v])
        return self.stops[begin : begin + k]

    def check_graph(self, graph: DiGraph) -> None:
        """Raise unless the index was built for (a twin of) ``graph``."""
        if (
            graph.num_nodes != self.graph_num_nodes
            or graph.num_edges != self.graph_num_edges
        ):
            raise IndexMismatchError(
                f"index built for n={self.graph_num_nodes}, "
                f"m={self.graph_num_edges}; got n={graph.num_nodes}, "
                f"m={graph.num_edges}"
            )


def fora_plus_walk_counts(graph: DiGraph, num_walks_w: float) -> np.ndarray:
    """FORA+'s per-node walk budget ``K_v = ceil(d_v sqrt(W/m)) + 1``."""
    if num_walks_w <= 0:
        raise ParameterError(f"W must be positive, got {num_walks_w}")
    m = max(graph.num_edges, 1)
    factor = np.sqrt(num_walks_w / m)
    return np.ceil(graph.out_degree * factor).astype(np.int64) + 1


def speedppr_walk_counts(graph: DiGraph) -> np.ndarray:
    """SpeedPPR-Index's eps-independent budget ``K_v = d_v``."""
    return graph.out_degree.astype(np.int64)


def build_walk_index(
    graph: DiGraph,
    walk_counts: np.ndarray,
    *,
    alpha: float = 0.2,
    policy: str = "custom",
    rng: np.random.Generator,
) -> WalkIndex:
    """Pre-compute ``walk_counts[v]`` alpha-walks from every node ``v``.

    ``walk_counts`` holds one non-negative count per node, of an integer
    dtype (not ``bool``); anything else raises
    :class:`~repro.errors.IndexBuildError`.
    """
    check_alpha(alpha)
    walk_counts = np.asarray(walk_counts)
    if walk_counts.dtype.kind not in "iu":
        raise IndexBuildError(
            f"walk_counts must be integers, got dtype {walk_counts.dtype}"
        )
    walk_counts = walk_counts.astype(np.int64, copy=False)
    if walk_counts.shape != (graph.num_nodes,):
        raise IndexBuildError(
            f"walk_counts has shape {walk_counts.shape}, "
            f"expected ({graph.num_nodes},)"
        )
    if np.any(walk_counts < 0):
        raise IndexBuildError("walk_counts must be non-negative")
    if graph.has_dead_ends:
        raise IndexBuildError(
            "walk indexes require a dead-end-free graph (the dead-end "
            "redirect is query-source-dependent); apply a structural "
            "dead-end rule first"
        )

    started = time.perf_counter()
    indptr = np.zeros(graph.num_nodes + 1, dtype=np.int64)
    np.cumsum(walk_counts, out=indptr[1:])
    starts = np.repeat(
        np.arange(graph.num_nodes, dtype=np.int64), walk_counts
    )
    stops, _ = simulate_walk_stops(graph, starts, alpha=alpha, rng=rng)
    return WalkIndex(
        indptr=indptr,
        stops=stops.astype(np.int32),
        alpha=alpha,
        policy=policy,
        construction_seconds=time.perf_counter() - started,
        graph_num_nodes=graph.num_nodes,
        graph_num_edges=graph.num_edges,
    )
