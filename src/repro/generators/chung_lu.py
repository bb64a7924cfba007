"""Directed Chung–Lu random graphs with prescribed degree sequences.

The Chung–Lu model draws each edge ``(u, v)`` independently with
probability proportional to ``out_weight[u] * in_weight[v]``, which in
expectation realises the prescribed out-/in-degree sequences.  Drawing
all ``n^2`` Bernoulli trials is infeasible, so we use the standard
"edge-skipping" equivalent: sample ``m`` endpoint pairs where sources
are drawn proportional to out-weights and targets proportional to
in-weights.  For heavy-tailed weights this reproduces the degree
correlations that make forward push's frontier explode after a few hops
— the behaviour the paper's experiments exercise.

The generator guarantees no dead ends by construction when
``ensure_min_out_degree`` is set: after sampling, any node that ended up
with out-degree zero receives one edge to a weight-proportional target.
A floor above ``n - 1`` cannot be met without self-loops and is refused.

Sampling is vectorised over each round's batch of endpoint pairs.  An
edge is the ``int64`` key ``u * n + v``; the keys accepted so far are
one sorted array.  A round draws both endpoint arrays by inverse-CDF
search (queries in ascending order, indices scattered back), keeps, in
sample order, the first occurrence of each key that is not a self-loop
and not yet accepted (:func:`~repro.graph.build.first_occurrences` plus
a binary search of the accepted keys), truncates at the number still
needed, and merges the new keys into the sorted array.  The result is
byte for byte that of a loop drawing pair by pair into a set of keys.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.graph.build import first_occurrences, from_edge_arrays
from repro.graph.digraph import DiGraph
from repro.generators.powerlaw import sample_power_law_degrees, scale_degrees_to_total

__all__ = ["chung_lu_digraph", "power_law_digraph"]


def chung_lu_digraph(
    out_weights: np.ndarray,
    in_weights: np.ndarray,
    num_edges: int,
    *,
    rng: np.random.Generator,
    name: str = "chung-lu",
    ensure_min_out_degree: int = 1,
    max_resample_rounds: int = 64,
) -> DiGraph:
    """Sample a directed Chung–Lu graph.

    Parameters
    ----------
    out_weights, in_weights:
        Non-negative per-node weights; expected out-degree of ``u`` is
        ``num_edges * out_weights[u] / sum(out_weights)`` (and dually
        for in-degrees).
    num_edges:
        Number of distinct directed edges to aim for.  Duplicate
        samples are resampled (up to ``max_resample_rounds``), so the
        result has exactly ``num_edges`` edges unless the weight
        structure makes that impossible, in which case slightly fewer.
    ensure_min_out_degree:
        After sampling, nodes below this out-degree receive extra
        weight-proportional edges.  ``1`` (default) removes dead ends.
    """
    out_weights = np.asarray(out_weights, dtype=np.float64)
    in_weights = np.asarray(in_weights, dtype=np.float64)
    if out_weights.shape != in_weights.shape:
        raise ParameterError("out_weights and in_weights must have equal length")
    num_nodes = out_weights.shape[0]
    if num_nodes == 0:
        raise ParameterError("cannot generate a graph with zero nodes")
    if num_edges < 0:
        raise ParameterError(f"num_edges must be >= 0, got {num_edges}")
    if np.any(out_weights < 0) or np.any(in_weights < 0):
        raise ParameterError("weights must be non-negative")
    if out_weights.sum() <= 0 or in_weights.sum() <= 0:
        raise ParameterError("weights must not be all zero")

    if ensure_min_out_degree > num_nodes - 1:
        raise ParameterError(
            f"ensure_min_out_degree={ensure_min_out_degree} cannot be met "
            f"without self-loops on {num_nodes} node(s)"
        )

    out_cdf = np.cumsum(out_weights) / out_weights.sum()
    in_cdf = np.cumsum(in_weights) / in_weights.sum()

    seen = np.empty(0, dtype=np.int64)
    sources_list: list[np.ndarray] = []
    targets_list: list[np.ndarray] = []
    needed = num_edges
    for _ in range(max_resample_rounds):
        if needed <= 0:
            break
        batch = max(needed + needed // 4, 16)
        src = _inverse_cdf(out_cdf, rng.random(batch))
        dst = _inverse_cdf(in_cdf, rng.random(batch))
        keep_src, keep_dst, seen = _filter_new_edges(
            src, dst, num_nodes, seen, needed
        )
        sources_list.append(keep_src)
        targets_list.append(keep_dst)
        needed -= keep_src.shape[0]

    sources = np.concatenate(sources_list) if sources_list else np.empty(0, np.int64)
    targets = np.concatenate(targets_list) if targets_list else np.empty(0, np.int64)

    if ensure_min_out_degree > 0:
        sources, targets = _patch_out_degrees(
            sources,
            targets,
            num_nodes,
            in_cdf,
            min_degree=ensure_min_out_degree,
            seen=seen,
            rng=rng,
        )

    return from_edge_arrays(
        sources,
        targets,
        num_nodes=num_nodes,
        name=name,
        dedup=True,
        drop_self_loops=False,  # already filtered during sampling
    )


def power_law_digraph(
    num_nodes: int,
    num_edges: int,
    *,
    exponent_out: float = 2.5,
    exponent_in: float = 2.2,
    rng: np.random.Generator,
    name: str = "power-law",
) -> DiGraph:
    """Convenience wrapper: Chung–Lu with power-law in/out weights.

    The two exponents default to typical social-network values and are
    deliberately different so the graph is genuinely directed (in- and
    out-degree of a node are only weakly correlated, as in web graphs).
    """
    if num_nodes <= 1:
        raise ParameterError(f"need at least 2 nodes, got {num_nodes}")
    out_deg = sample_power_law_degrees(
        num_nodes, exponent=exponent_out, d_min=1, rng=rng
    )
    in_deg = sample_power_law_degrees(
        num_nodes, exponent=exponent_in, d_min=1, rng=rng
    )
    out_deg = scale_degrees_to_total(out_deg, num_edges, d_min=1, rng=rng)
    in_deg = scale_degrees_to_total(in_deg, num_edges, d_min=1, rng=rng)
    return chung_lu_digraph(
        out_deg.astype(np.float64),
        in_deg.astype(np.float64),
        num_edges,
        rng=rng,
        name=name,
    )


def _inverse_cdf(cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, uniforms)``, searched in ascending order.

    Ascending queries walk ``cdf`` front to back, so the binary searches
    stay in cache; the order only has to be close to sorted, because
    each index is exact whatever order it is searched in.  It comes from
    one ``int64`` sort of the uniforms' leading bits with the draw
    position in the low bits (sized to fit), which is cheaper than an
    argsort; the indices are scattered back through it.
    """
    size = uniforms.shape[0]
    position_bits = size.bit_length()
    order = (uniforms * float(1 << (62 - position_bits))).astype(np.int64)
    order <<= position_bits
    order |= np.arange(size, dtype=np.int64)
    order.sort()
    order &= (1 << position_bits) - 1
    indices = np.empty(size, dtype=np.int64)
    indices[order] = np.searchsorted(cdf, uniforms[order])
    return indices


def _filter_new_edges(
    src: np.ndarray,
    dst: np.ndarray,
    num_nodes: int,
    seen: np.ndarray,
    needed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keep, in sample order, the first ``needed`` non-loop edges whose
    key ``u * n + v`` is neither in the sorted key array ``seen`` nor
    repeats an earlier sample; return them and ``seen`` with their keys
    merged in (still sorted).
    """
    mask = src != dst
    src, dst = src[mask], dst[mask]
    keys = src * num_nodes + dst
    first = first_occurrences(keys)
    first = first[~_contains(seen, keys[first])][:needed]
    # Merge, not re-sort: np.union1d would sort all of ``seen`` again.
    new = np.sort(keys[first])
    seen = np.insert(seen, np.searchsorted(seen, new), new)
    return src[first], dst[first], seen


def _contains(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Mask of the ``keys`` present in the ascending array ``sorted_keys``."""
    at = np.searchsorted(sorted_keys, keys)
    found = at < sorted_keys.shape[0]
    found[found] = sorted_keys[at[found]] == keys[found]
    return found


def _patch_out_degrees(
    sources: np.ndarray,
    targets: np.ndarray,
    num_nodes: int,
    in_cdf: np.ndarray,
    *,
    min_degree: int,
    seen: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Give every node at least ``min_degree`` out-edges.

    A node's edges are the keys of ``seen`` in ``[node * n, node * n + n)``,
    so each deficient node reads its own targets once and adds to them;
    no other node's patch can touch them.
    """
    out_deg = np.bincount(sources, minlength=num_nodes)
    deficient = np.flatnonzero(out_deg < min_degree)
    row_starts = np.searchsorted(seen, deficient * num_nodes)
    row_stops = np.searchsorted(seen, deficient * num_nodes + num_nodes)
    extra_src: list[int] = []
    extra_dst: list[int] = []
    for node, start, stop in zip(
        deficient.tolist(), row_starts.tolist(), row_stops.tolist()
    ):
        taken = set((seen[start:stop] - node * num_nodes).tolist())
        missing = min_degree - int(out_deg[node])
        attempts = 0
        while missing > 0 and attempts < 100:
            attempts += 1
            target = int(np.searchsorted(in_cdf, rng.random()))
            if target == node or target in taken:
                continue
            taken.add(target)
            extra_src.append(node)
            extra_dst.append(target)
            missing -= 1
        # Deterministic fallback for pathological weight vectors.
        target = (node + 1) % num_nodes
        while missing > 0:
            if target != node and target not in taken:
                taken.add(target)
                extra_src.append(node)
                extra_dst.append(target)
                missing -= 1
            target = (target + 1) % num_nodes
    if not extra_src:
        return sources, targets
    return (
        np.concatenate([sources, np.asarray(extra_src, dtype=np.int64)]),
        np.concatenate([targets, np.asarray(extra_dst, dtype=np.int64)]),
    )
