"""Graph transformations: symmetrisation, dead-end policies, reordering.

The paper assumes (Section 2) that every node has out-degree at least 1,
justified by a conceptual edge from each dead-end node back to the
*source* of the walk.  That redirect is query-dependent, so most of our
algorithms implement it at push/walk time; this module additionally
offers *structural* policies that modify the graph once, which is what
matrix-based methods (BePI) need because their precomputation cannot
depend on the query source.

Policies
--------
``redirect-to-source``
    The paper's semantics.  Not a structural transform — returned
    unchanged here; algorithms honour it through
    :class:`repro.core.residues.DeadEndPolicy`.
``self-loop``
    Add ``(v, v)`` for each dead end.  A walk at ``v`` then loops until
    it stops, which gives the same stationary behaviour as stopping at
    ``v`` immediately (the walk can never leave), so PPR mass is
    preserved node-for-node.
``uniform-teleport``
    Connect each dead end to every node.  This matches the classic
    PageRank patch; it *changes* PPR values and is provided for
    completeness and for stress tests only.

Cache-aware reordering
----------------------
:func:`reorder_for_locality` relabels the nodes so the CSR arrays the
push kernels stream become cache-friendlier: hot (high-degree) rows
cluster at the front of ``out_indices`` under the ``"degree"``
strategy, and SlashBurn's hub-and-spoke layout groups each community's
adjacency ranges contiguously under ``"slashburn"``.  PPR values are
equivariant under relabelling — ``pi_new(inverse[s]) = pi_old(s)``
permuted — so a caller (e.g. :class:`~repro.api.PPREngine` with
``reorder=...``) can solve on the reordered graph and permute the
answer back, which is exactly what the returned
:class:`ReorderResult` packages up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.errors import ParameterError
from repro.graph.build import from_edge_arrays
from repro.graph.digraph import DiGraph

__all__ = [
    "DeadEndRule",
    "ReorderResult",
    "ReorderStrategy",
    "symmetrize",
    "apply_dead_end_rule",
    "reorder_for_locality",
]

ReorderStrategy = Literal["degree", "slashburn"]

_VALID_STRATEGIES: tuple[str, ...] = ("degree", "slashburn")

DeadEndRule = Literal["redirect-to-source", "self-loop", "uniform-teleport"]

_VALID_RULES: tuple[str, ...] = (
    "redirect-to-source",
    "self-loop",
    "uniform-teleport",
)


def symmetrize(graph: DiGraph) -> DiGraph:
    """Return the undirected closure: every edge gains its reverse."""
    sources, targets = graph.edge_array()
    return from_edge_arrays(
        np.concatenate([sources, targets]),
        np.concatenate([targets, sources]),
        num_nodes=graph.num_nodes,
        name=graph.name,
        dedup=True,
        drop_self_loops=False,
        undirected_origin=True,
    )


def apply_dead_end_rule(graph: DiGraph, rule: DeadEndRule) -> DiGraph:
    """Structurally fix dead ends according to ``rule``.

    ``redirect-to-source`` is query-dependent and therefore a no-op at
    the graph level; it is listed so that callers can funnel every rule
    through one function.
    """
    if rule not in _VALID_RULES:
        raise ParameterError(
            f"unknown dead-end rule {rule!r}; expected one of {_VALID_RULES}"
        )
    if rule == "redirect-to-source" or not graph.has_dead_ends:
        return graph

    dead = graph.dead_ends.astype(np.int64)
    sources, targets = graph.edge_array()
    if rule == "self-loop":
        extra_sources, extra_targets = dead, dead
    else:  # uniform-teleport
        extra_sources = np.repeat(dead, graph.num_nodes)
        extra_targets = np.tile(np.arange(graph.num_nodes), dead.shape[0])
    return from_edge_arrays(
        np.concatenate([sources, extra_sources]),
        np.concatenate([targets, extra_targets]),
        num_nodes=graph.num_nodes,
        name=graph.name,
        dedup=False,
        drop_self_loops=False,
        undirected_origin=graph.undirected_origin,
    )


@dataclass(frozen=True)
class ReorderResult:
    """A locality-reordered graph plus the permutation to undo it.

    Attributes
    ----------
    graph:
        The relabelled :class:`DiGraph` (same node/edge counts; node
        ``inverse[v]`` of this graph is node ``v`` of the original).
    order:
        ``order[new_id] = old_id`` — the layout permutation.
    inverse:
        ``inverse[old_id] = new_id`` — the relabelling map.
    strategy:
        Which ordering produced the layout.
    """

    graph: DiGraph
    order: np.ndarray
    inverse: np.ndarray
    strategy: str

    def to_internal(self, node: int) -> int:
        """Map an original node id into the reordered graph."""
        return int(self.inverse[int(node)])

    def to_external(self, node: int) -> int:
        """Map a reordered node id back to the original labelling."""
        return int(self.order[int(node)])

    def restore_vector(self, values: np.ndarray) -> np.ndarray:
        """Re-index a per-node vector of the reordered graph to original ids.

        ``restore_vector(v)[old_id] == v[inverse[old_id]]`` — the
        inverse of solving on the reordered graph, applied along the
        last axis so ``(B, n)`` blocks restore too.
        """
        return np.asarray(values)[..., self.inverse]


def reorder_for_locality(
    graph: DiGraph, *, strategy: ReorderStrategy = "degree"
) -> ReorderResult:
    """Relabel ``graph`` so the push kernels walk a cache-friendly CSR.

    Strategies
    ----------
    ``"degree"``
        Nodes sorted by descending total (in + out) degree, ties by
        node id.  Scale-free graphs concentrate most edges on few
        hubs; giving those hubs the smallest ids packs the hot rows of
        ``out_indices`` into a contiguous prefix, so frontier gathers
        and sweeps touch far fewer cache lines.  Cheap (one sort) and
        usually most of the win.
    ``"slashburn"``
        The hub-and-spoke ordering of :func:`repro.bepi.slashburn`:
        spoke communities become contiguous id ranges (their
        intra-community edges land in dense diagonal blocks) with the
        hubs at the end.  Costlier to compute, better locality on
        graphs with strong community structure.

    Returns a :class:`ReorderResult`; the relabelled graph preserves
    edge multiplicity, self-loops, and the ``undirected_origin`` flag,
    and its adjacency lists are sorted like any built graph.  PPR on
    the reordered graph equals the original's permuted — solve there,
    then :meth:`ReorderResult.restore_vector` the answer back.
    """
    if strategy not in _VALID_STRATEGIES:
        raise ParameterError(
            f"unknown reorder strategy {strategy!r}; expected one of "
            f"{_VALID_STRATEGIES}"
        )
    n = graph.num_nodes
    if strategy == "degree":
        total_degree = graph.out_degree + graph.in_degree
        # Stable sort on the negated degree: descending degree, ties in
        # ascending node id — deterministic across runs and platforms.
        order = np.argsort(-total_degree, kind="stable").astype(np.int64)
    else:
        from repro.bepi.slashburn import slashburn

        order = slashburn(graph).order.astype(np.int64)

    inverse = np.empty_like(order)
    inverse[order] = np.arange(n, dtype=np.int64)

    sources, targets = graph.edge_array()
    relabelled = from_edge_arrays(
        inverse[sources],
        inverse[targets],
        num_nodes=n,
        name=f"{graph.name}@{strategy}" if graph.name else "",
        dedup=False,
        drop_self_loops=False,
        undirected_origin=graph.undirected_origin,
    )
    order.flags.writeable = False
    inverse.flags.writeable = False
    return ReorderResult(
        graph=relabelled, order=order, inverse=inverse, strategy=strategy
    )
