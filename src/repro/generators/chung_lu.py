"""Directed Chung–Lu random graphs with prescribed degree sequences.

The Chung–Lu model draws each edge ``(u, v)`` independently with
probability proportional to ``out_weight[u] * in_weight[v]``, which in
expectation realises the prescribed out-/in-degree sequences.  Drawing
all ``n^2`` Bernoulli trials is infeasible, so the sampler draws endpoint
pairs instead: sources proportional to out-weights, targets to
in-weights.  For heavy-tailed weights this reproduces the degree
correlations that make forward push's frontier explode after a few hops
— the behaviour the paper's experiments exercise.

An edge is the ``int64`` key ``u * n + v``, and the one edge store is
the sorted array of the keys accepted so far.  A round draws 1.25 times
the edges still needed, keeps, in sample order, the first occurrence of
each key that is neither a self-loop nor accepted already, truncates at
the number needed and merges the keys into the array.  Every node below
``ensure_min_out_degree`` out-edges (its row's width in the array) then
gets weight-proportional targets; a floor above ``n - 1`` cannot be met
without self-loops and is refused.  The array is assembled into the CSR
as it is, with no second sort.  The graph is byte for byte that of a
loop drawing pair by pair into a set of keys.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.graph.build import first_occurrences, from_sorted_keys
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
    needed = num_edges
    for _ in range(max_resample_rounds):
        if needed <= 0:
            break
        new = _new_keys(out_cdf, in_cdf, max(needed + needed // 4, 16), seen, needed, rng)
        # Merge, not re-sort: np.union1d would sort all of ``seen`` again.
        seen = np.insert(seen, np.searchsorted(seen, new), new)
        needed -= new.shape[0]

    if ensure_min_out_degree > 0:
        new = _patch_keys(seen, in_cdf, min_degree=ensure_min_out_degree, rng=rng)
        seen = np.insert(seen, np.searchsorted(seen, new), new)

    return from_sorted_keys(seen, num_nodes=num_nodes, name=name)


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


def _new_keys(
    out_cdf: np.ndarray,
    in_cdf: np.ndarray,
    batch: int,
    seen: np.ndarray,
    needed: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``batch`` endpoint pairs (all sources, then all targets) and
    return, sorted, the keys of the first ``needed`` of them in sample
    order that are not self-loops, not in the sorted key array ``seen``
    and not repeats of an earlier pair."""
    num_nodes = out_cdf.shape[0]
    keys = _inverse_cdf(out_cdf, rng.random(batch))
    targets = _inverse_cdf(in_cdf, rng.random(batch))
    loops = keys == targets
    keys *= num_nodes
    keys += targets
    del targets
    keys = keys[~loops]
    keys = keys[first_occurrences(keys)]
    keys = keys[~_contains(seen, keys)][:needed]
    keys.sort()
    return keys


def _contains(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Mask of the ``keys`` present in the ascending array ``sorted_keys``."""
    at = np.searchsorted(sorted_keys, keys)
    found = at < sorted_keys.shape[0]
    found[found] = sorted_keys[at[found]] == keys[found]
    return found


def _patch_keys(
    seen: np.ndarray,
    in_cdf: np.ndarray,
    *,
    min_degree: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """The sorted keys of the edges that give every node at least
    ``min_degree`` out-edges.

    A node's edges are the keys of ``seen`` in ``[node * n, node * n + n)``,
    so the row boundaries give every out-degree, and each deficient node
    reads its own targets once and adds to them; no other node's patch
    can touch them.
    """
    num_nodes = in_cdf.shape[0]
    bounds = np.searchsorted(seen, np.arange(num_nodes + 1, dtype=np.int64) * num_nodes)
    deficient = np.flatnonzero(np.diff(bounds) < min_degree)
    extra: list[int] = []
    for node, start, stop in zip(
        deficient.tolist(), bounds[deficient].tolist(), bounds[deficient + 1].tolist()
    ):
        row = node * num_nodes
        taken = set((seen[start:stop] - row).tolist())
        missing = min_degree - (stop - start)
        attempts = 0
        while missing > 0 and attempts < 100:
            attempts += 1
            target = int(np.searchsorted(in_cdf, rng.random()))
            if target == node or target in taken:
                continue
            taken.add(target)
            extra.append(row + target)
            missing -= 1
        # Deterministic fallback for pathological weight vectors.
        target = (node + 1) % num_nodes
        while missing > 0:
            if target != node and target not in taken:
                taken.add(target)
                extra.append(row + target)
                missing -= 1
            target = (target + 1) % num_nodes
    return np.sort(np.asarray(extra, dtype=np.int64))
