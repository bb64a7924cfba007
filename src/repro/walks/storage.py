"""Serialisation of walk indexes (Table 2's index-size accounting).

The paper measures index size as the bytes of the saved pre-processing
output.  :func:`save_walk_index` / :func:`load_walk_index` round-trip a
:class:`~repro.walks.index.WalkIndex` through an ``.npz`` file, and
:func:`stored_size_bytes` reports the on-disk footprint used in the
Table 2 harness (in-memory ``size_bytes`` is reported alongside).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.errors import IndexBuildError
from repro.graph.io import NPZ_READ_ERRORS
from repro.walks.index import WalkIndex

__all__ = ["save_walk_index", "load_walk_index", "stored_size_bytes"]


def save_walk_index(index: WalkIndex, path: str | Path) -> None:
    """Write the index to ``path`` (a compressed ``.npz``).

    Unlike graph caches, the index stays compressed: Table 2 reports
    its on-disk size (:func:`stored_size_bytes`).
    """
    np.savez_compressed(
        Path(path),
        indptr=index.indptr,
        stops=index.stops,
        alpha=np.array(index.alpha),
        policy=np.array(index.policy),
        construction_seconds=np.array(index.construction_seconds),
        graph_num_nodes=np.array(index.graph_num_nodes),
        graph_num_edges=np.array(index.graph_num_edges),
    )


def load_walk_index(path: str | Path) -> WalkIndex:
    """Load an index written by :func:`save_walk_index`, stored or compressed.

    Any damage to the file raises :class:`~repro.errors.IndexBuildError`.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            return WalkIndex(
                indptr=data["indptr"],
                stops=data["stops"],
                alpha=float(data["alpha"]),
                policy=str(data["policy"]),
                construction_seconds=float(data["construction_seconds"]),
                graph_num_nodes=int(data["graph_num_nodes"]),
                graph_num_edges=int(data["graph_num_edges"]),
            )
    except NPZ_READ_ERRORS as exc:
        raise IndexBuildError(f"cannot load walk index {path}: {exc}") from exc


def stored_size_bytes(path: str | Path) -> int:
    """On-disk size of a saved index, in bytes."""
    return Path(path).stat().st_size
