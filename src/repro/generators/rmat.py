"""R-MAT (Recursive MATrix) graph generator.

R-MAT (Chakrabarti, Zhan & Faloutsos 2004) recursively subdivides the
adjacency matrix into quadrants and drops each edge into quadrant
``a / b / c / d`` with fixed probabilities.  With skewed parameters
(e.g. ``a = 0.57``) it produces the heavy-tailed, community-ridden
structure characteristic of web/social graphs such as Twitter — the
densest, most skewed dataset in the paper's Table 1 — and is the
standard synthetic stand-in for them (it is the Graph500 generator).

Our implementation vectorises all ``scale`` bit-levels across the whole
edge batch, then deduplicates and patches dead ends.  Candidate ids stay
``uint32`` until they are compacted: a presence mask over the
``2**scale`` id space and its cumulative sum rank the ids that occur,
in O(2^scale + m) time and 9 bytes per candidate id (one ``bool`` and
one ``int64`` rank).  So that the id space cannot dwarf the graph,
``2**scale`` may be at most ``8 * num_edges``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.graph.build import first_occurrences, from_edge_arrays
from repro.graph.digraph import DiGraph

__all__ = ["rmat_digraph"]

#: Largest ``2**scale / num_edges`` :func:`rmat_digraph` accepts; the id
#: compaction allocates 9 bytes per candidate id.
MAX_IDS_PER_EDGE = 8


def rmat_digraph(
    scale: int,
    num_edges: int,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    rng: np.random.Generator,
    name: str = "rmat",
    noise: float = 0.1,
    ensure_no_dead_ends: bool = True,
) -> DiGraph:
    """Generate an R-MAT graph with ``2**scale`` candidate nodes.

    Parameters
    ----------
    scale:
        ``log2`` of the node-id space.  Isolated ids are compacted away,
        so the final node count is slightly below ``2**scale``.
        ``2**scale`` must not exceed ``8 * num_edges``.
    a, b, c:
        Quadrant probabilities (``d = 1 - a - b - c``).  The defaults
        are the Graph500 parameters.
    noise:
        Per-level multiplicative jitter on the quadrant probabilities;
        avoids the artificial degree staircase of noiseless R-MAT.
    """
    if scale < 1 or scale > 30:
        raise ParameterError(f"scale must be in [1, 30], got {scale}")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0 or max(a, b, c, d) > 1:
        raise ParameterError(
            f"quadrant probabilities must be in [0,1]; got a={a} b={b} c={c} d={d}"
        )
    if num_edges < 1:
        raise ParameterError(f"num_edges must be >= 1, got {num_edges}")
    if 2**scale > MAX_IDS_PER_EDGE * num_edges:
        raise ParameterError(
            f"2**scale = {2**scale} candidate ids exceed {MAX_IDS_PER_EDGE} "
            f"per edge for num_edges={num_edges}; lower scale or raise num_edges"
        )

    # Oversample to compensate for duplicates/self-loops, then trim.
    oversample = int(num_edges * 1.3) + 16
    rows = np.zeros(oversample, dtype=np.uint32)
    cols = np.zeros(oversample, dtype=np.uint32)
    u = np.empty(oversample)
    bit = np.empty(oversample, dtype=np.uint32)
    for level in range(scale):
        jitter = 1.0 + noise * (2.0 * rng.random(4) - 1.0)
        pa, pb, pc, pd = np.array([a, b, c, d]) * jitter
        total = pa + pb + pc + pd
        pa, pb, pc = pa / total, pb / total, pc / total
        rng.random(out=u)
        right = u >= pa + pb  # quadrants c, d set the row bit
        # b, d set the col bit: u in [pa, pa + pb) or u >= pa + pb + pc,
        # and the thresholds rise, so one xor of the three tests says it.
        down = u >= pa
        down ^= right
        down ^= u >= pa + pb + pc
        rows |= np.left_shift(right, level, out=bit, dtype=np.uint32)
        cols |= np.left_shift(down, level, out=bit, dtype=np.uint32)
    del u, bit

    mask = rows != cols
    rows, cols = rows[mask], cols[mask]
    keys = rows.astype(np.int64) << scale | cols
    first = first_occurrences(keys)[:num_edges]
    del keys
    rows, cols = rows[first], cols[first]

    # Compact ids (R-MAT leaves many ids unused at low densities): an
    # id's new value is the number of present ids below it.
    present = np.zeros(2**scale, dtype=bool)
    present[rows] = True
    present[cols] = True
    rank = np.cumsum(present, dtype=np.int64)
    rank -= 1
    num_nodes = int(rank[-1]) + 1
    rows, cols = rank[rows], rank[cols]
    del present, rank

    if ensure_no_dead_ends and num_nodes > 1:
        out_deg = np.bincount(rows, minlength=num_nodes)
        dead = np.flatnonzero(out_deg == 0)
        if dead.shape[0]:
            # Point each dead end at a random popular node (preferential
            # by in-degree, mirroring how such nodes gain links).
            extra_targets = cols[rng.integers(0, cols.shape[0], size=dead.shape[0])]
            collide = extra_targets == dead
            extra_targets[collide] = (dead[collide] + 1) % num_nodes
            rows = np.concatenate([rows, dead])
            cols = np.concatenate([cols, extra_targets])

    return from_edge_arrays(
        rows,
        cols,
        num_nodes=num_nodes,
        name=name,
        dedup=True,
        drop_self_loops=True,
    )
