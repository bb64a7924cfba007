"""Builders that assemble :class:`~repro.graph.digraph.DiGraph` objects.

The canonical entry point is :func:`from_edges`, which takes any
``(source, target)`` edge collection, sorts it into CSR order, optionally
deduplicates parallel edges and strips self-loops, and returns an
immutable graph.  :func:`from_adjacency` accepts a ready-made
``{node: [neighbors]}`` mapping, and :func:`empty_graph` /
:func:`complete_graph` / :func:`cycle_graph` / :func:`star_graph` supply
tiny canonical topologies used heavily by the test-suite.

Every builder goes through :func:`from_edge_arrays`, which sorts one
``int64`` key ``u * n + v`` per edge instead of a two-key lexicographic
sort of the endpoint arrays: the key order is the CSR order (rows by
source, each row by target), a parallel edge is a repeated key, and the
endpoints come back as ``key // n`` and ``key - (key // n) * n``.
:func:`first_occurrences` is the generators' duplicate filter: the
position of each distinct key's first occurrence, in sample order.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.digraph import DiGraph

__all__ = [
    "from_edges",
    "from_edge_arrays",
    "first_occurrences",
    "from_adjacency",
    "empty_graph",
    "complete_graph",
    "cycle_graph",
    "star_graph",
    "paper_example_graph",
]


def from_edges(
    edges: Iterable[tuple[int, int]] | Sequence[tuple[int, int]],
    *,
    num_nodes: int | None = None,
    name: str = "",
    dedup: bool = True,
    drop_self_loops: bool = True,
    undirected_origin: bool = False,
) -> DiGraph:
    """Build a graph from an iterable of ``(source, target)`` pairs.

    Parameters
    ----------
    edges:
        Directed edges.  Node ids must be non-negative integers.
    num_nodes:
        Total node count.  Defaults to ``max(node id) + 1``; pass it
        explicitly to include trailing isolated nodes.
    dedup:
        Remove parallel (duplicate) edges, matching the cleaning step
        in the paper's Section 8.
    drop_self_loops:
        Remove ``(v, v)`` edges.  The paper's random-walk semantics make
        self-loops legal, so this is optional; the cleaning pipeline
        drops them by default for parity with SNAP preprocessing.
    """
    edge_list = list(edges)
    if not edge_list:
        return empty_graph(num_nodes or 0, name=name)
    arr = np.asarray(edge_list, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphFormatError(
            f"edges must be (source, target) pairs; got array shape {arr.shape}"
        )
    return from_edge_arrays(
        arr[:, 0],
        arr[:, 1],
        num_nodes=num_nodes,
        name=name,
        dedup=dedup,
        drop_self_loops=drop_self_loops,
        undirected_origin=undirected_origin,
    )


def from_edge_arrays(
    sources: np.ndarray,
    targets: np.ndarray,
    *,
    num_nodes: int | None = None,
    name: str = "",
    dedup: bool = True,
    drop_self_loops: bool = True,
    undirected_origin: bool = False,
) -> DiGraph:
    """Vectorised counterpart of :func:`from_edges` for NumPy arrays."""
    sources = np.asarray(sources, dtype=np.int64).ravel()
    targets = np.asarray(targets, dtype=np.int64).ravel()
    if sources.shape[0] != targets.shape[0]:
        raise GraphFormatError(
            f"sources ({sources.shape[0]}) and targets ({targets.shape[0]}) "
            "must have the same length"
        )
    if sources.shape[0] and (sources.min() < 0 or targets.min() < 0):
        raise GraphFormatError("node ids must be non-negative")

    if num_nodes is None:
        num_nodes = int(max(sources.max(initial=-1), targets.max(initial=-1)) + 1)
    elif sources.shape[0] and max(sources.max(), targets.max()) >= num_nodes:
        raise GraphFormatError(
            f"edge endpoint exceeds num_nodes={num_nodes}"
        )

    if drop_self_loops:
        keep = sources != targets
        sources, targets = sources[keep], targets[keep]

    # Sort into CSR order by the one key u * n + v (it fits in int64, as
    # node ids fit in int32): primary order source, secondary target, so
    # each adjacency list comes out sorted (binary-searchable), and a
    # parallel edge is a repeated key.
    keys = np.sort(sources * num_nodes + targets)
    if dedup and keys.shape[0]:
        keep = np.empty(keys.shape[0], dtype=bool)
        keep[0] = True
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        keys = keys[keep]
    sources = keys // num_nodes
    targets = keys - sources * num_nodes

    degree = np.bincount(sources, minlength=num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(degree, out=indptr[1:])
    graph = DiGraph(
        indptr,
        targets.astype(np.int32),
        name=name,
        undirected_origin=undirected_origin,
        validate=False,
    )
    if dedup:
        # Sorted and deduplicated: spare DynamicGraph the order scan.
        graph._canonical_order = True
    return graph


def first_occurrences(keys: np.ndarray) -> np.ndarray:
    """Ascending positions of the first occurrence of each distinct key.

    ``keys[first_occurrences(keys)]`` is ``keys`` with every repeat of an
    earlier key removed and the order kept.  An unstable argsort groups
    equal keys, and the smallest position in each group is its first
    occurrence, so the result is exact at every size without a stable
    (slower) sort or a composite ``key * size + position`` key, which
    could overflow ``int64``.
    """
    keys = np.asarray(keys)
    if keys.shape[0] == 0:
        return np.empty(0, dtype=np.intp)
    order = np.argsort(keys)
    grouped = keys[order]
    starts = np.empty(grouped.shape[0], dtype=bool)
    starts[0] = True
    np.not_equal(grouped[1:], grouped[:-1], out=starts[1:])
    first = np.minimum.reduceat(order, np.flatnonzero(starts))
    first.sort()
    return first


def from_adjacency(
    adjacency: Mapping[int, Sequence[int]],
    *,
    num_nodes: int | None = None,
    name: str = "",
) -> DiGraph:
    """Build a graph from a ``{node: [out-neighbors]}`` mapping."""
    edges: list[tuple[int, int]] = []
    for source, neighbors in adjacency.items():
        for target in neighbors:
            edges.append((int(source), int(target)))
    if num_nodes is None and adjacency:
        num_nodes = max(
            max(adjacency, default=-1),
            max((t for _, t in edges), default=-1),
        ) + 1
    return from_edges(edges, num_nodes=num_nodes, name=name, dedup=False)


def empty_graph(num_nodes: int, *, name: str = "") -> DiGraph:
    """A graph with ``num_nodes`` nodes and no edges."""
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    return DiGraph(indptr, np.empty(0, dtype=np.int32), name=name, validate=False)


def complete_graph(num_nodes: int, *, name: str = "complete") -> DiGraph:
    """The complete directed graph without self-loops."""
    if num_nodes <= 0:
        return empty_graph(0, name=name)
    sources = np.repeat(np.arange(num_nodes), num_nodes - 1)
    targets = np.concatenate(
        [np.delete(np.arange(num_nodes), v) for v in range(num_nodes)]
    ) if num_nodes > 1 else np.empty(0, dtype=np.int64)
    return from_edge_arrays(sources, targets, num_nodes=num_nodes, name=name)


def cycle_graph(num_nodes: int, *, name: str = "cycle") -> DiGraph:
    """The directed cycle ``0 -> 1 -> ... -> n-1 -> 0``."""
    if num_nodes <= 0:
        return empty_graph(0, name=name)
    nodes = np.arange(num_nodes)
    return from_edge_arrays(
        nodes, np.roll(nodes, -1), num_nodes=num_nodes, name=name,
        drop_self_loops=num_nodes > 1,
    )


def star_graph(num_leaves: int, *, bidirectional: bool = True, name: str = "star") -> DiGraph:
    """A hub (node 0) connected to ``num_leaves`` leaves.

    With ``bidirectional=False`` the leaves are dead ends, which makes
    this the canonical fixture for dead-end-policy tests.
    """
    hub = np.zeros(num_leaves, dtype=np.int64)
    leaves = np.arange(1, num_leaves + 1, dtype=np.int64)
    if bidirectional:
        sources = np.concatenate([hub, leaves])
        targets = np.concatenate([leaves, hub])
    else:
        sources, targets = hub, leaves
    return from_edge_arrays(
        sources, targets, num_nodes=num_leaves + 1, name=name
    )


def paper_example_graph() -> DiGraph:
    """The 5-node example of the paper's Figure 1.

    Nodes are ``v1..v5`` mapped to ids ``0..4``.  Its transition matrix
    is printed in Figure 1 and its Forward-Push traces in Figures 2-3;
    the unit tests replay those traces number for number.
    """
    adjacency = {
        0: [1, 2],          # v1 -> v2, v3
        1: [0, 2, 3, 4],    # v2 -> v1, v3, v4, v5
        2: [1, 3],          # v3 -> v2, v4
        3: [0, 1, 2],       # v4 -> v1, v2, v3
        4: [1, 2],          # v5 -> v2, v3
    }
    return from_adjacency(adjacency, num_nodes=5, name="paper-example")
