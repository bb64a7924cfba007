"""Dataset-cleaning pipeline mirroring the paper's Section 8.

The paper prepares each SNAP dataset as follows:

1. undirected graphs (DBLP, Orkut) are symmetrised — every undirected
   edge becomes two directed edges;
2. isolated nodes (no in- nor out-edges) are removed;
3. remaining nodes are relabelled with consecutive integers from 0.

:func:`clean` performs the full pipeline and returns both the cleaned
graph and a :class:`CleaningReport` recording what was removed, so the
experiment harness can print Table-1-style statistics about the final
graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.build import first_occurrences, from_edge_arrays
from repro.graph.digraph import DiGraph

__all__ = ["CleaningReport", "clean", "remove_isolated_nodes", "relabel_nodes"]


@dataclass(frozen=True)
class CleaningReport:
    """What the cleaning pipeline did to a raw edge list."""

    nodes_before: int
    nodes_after: int
    edges_before: int
    edges_after: int
    isolated_removed: int
    self_loops_removed: int
    duplicates_removed: int

    def summary(self) -> str:
        """One-line human-readable description."""
        return (
            f"nodes {self.nodes_before} -> {self.nodes_after} "
            f"(-{self.isolated_removed} isolated), "
            f"edges {self.edges_before} -> {self.edges_after} "
            f"(-{self.self_loops_removed} self-loops, "
            f"-{self.duplicates_removed} duplicates)"
        )


def clean(
    sources: np.ndarray,
    targets: np.ndarray,
    *,
    symmetrize: bool = False,
    name: str = "",
) -> tuple[DiGraph, CleaningReport]:
    """Run the full Section-8 cleaning pipeline on raw edge arrays.

    Parameters
    ----------
    sources, targets:
        Raw edge endpoint arrays; ids may be sparse and non-contiguous.
    symmetrize:
        Treat the input as undirected and add both directions, as the
        paper does for DBLP and Orkut.

    Returns
    -------
    (graph, report):
        The cleaned :class:`DiGraph` with dense ids, plus statistics.
    """
    sources = np.asarray(sources, dtype=np.int64).ravel()
    targets = np.asarray(targets, dtype=np.int64).ravel()
    edges_before = int(sources.shape[0])
    nodes_before = int(
        np.union1d(sources, targets).shape[0]
    ) if edges_before else 0

    if symmetrize:
        sources, targets = (
            np.concatenate([sources, targets]),
            np.concatenate([targets, sources]),
        )

    # Drop self-loops.
    not_loop = sources != targets
    self_loops_removed = int(sources.shape[0] - not_loop.sum())
    if symmetrize:
        # Each undirected self-loop was doubled above; count the original.
        self_loops_removed //= 2
    sources, targets = sources[not_loop], targets[not_loop]

    # Deduplicate.
    if sources.shape[0]:
        stacked = sources * (max(int(targets.max()), int(sources.max())) + 1) + targets
        first = first_occurrences(stacked)
        duplicates_removed = int(sources.shape[0] - first.shape[0])
        sources, targets = sources[first], targets[first]
    else:
        duplicates_removed = 0

    # Relabel: every endpoint that appears keeps existence; isolated
    # nodes simply never appear in the arrays, so compaction removes
    # them implicitly.
    node_ids = np.union1d(sources, targets)
    sources = np.searchsorted(node_ids, sources)
    targets = np.searchsorted(node_ids, targets)
    nodes_after = int(node_ids.shape[0])

    graph = from_edge_arrays(
        sources,
        targets,
        num_nodes=nodes_after,
        name=name,
        dedup=False,
        drop_self_loops=False,
        undirected_origin=symmetrize,
    )
    report = CleaningReport(
        nodes_before=nodes_before,
        nodes_after=nodes_after,
        edges_before=edges_before,
        edges_after=graph.num_edges,
        isolated_removed=max(nodes_before - nodes_after, 0),
        self_loops_removed=self_loops_removed,
        duplicates_removed=duplicates_removed,
    )
    return graph, report


def remove_isolated_nodes(graph: DiGraph) -> tuple[DiGraph, np.ndarray]:
    """Drop nodes with neither in- nor out-edges.

    Returns the compacted graph and the array mapping new ids to the
    original ids (``old_id = mapping[new_id]``).
    """
    connected = (graph.out_degree > 0) | (graph.in_degree > 0)
    keep_ids = np.flatnonzero(connected)
    if keep_ids.shape[0] == graph.num_nodes:
        return graph, np.arange(graph.num_nodes)
    return relabel_nodes(graph, keep_ids), keep_ids


def relabel_nodes(graph: DiGraph, keep_ids: np.ndarray) -> DiGraph:
    """Induce the subgraph on ``keep_ids`` with compacted node ids.

    Edges with an endpoint outside ``keep_ids`` are dropped.
    """
    keep_ids = np.asarray(keep_ids, dtype=np.int64)
    new_id = np.full(graph.num_nodes, -1, dtype=np.int64)
    new_id[keep_ids] = np.arange(keep_ids.shape[0])
    sources, targets = graph.edge_array()
    mask = (new_id[sources] >= 0) & (new_id[targets] >= 0)
    return from_edge_arrays(
        new_id[sources[mask]],
        new_id[targets[mask]],
        num_nodes=keep_ids.shape[0],
        name=graph.name,
        dedup=False,
        drop_self_loops=False,
        undirected_origin=graph.undirected_origin,
    )
