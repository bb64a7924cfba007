"""Graph readers and writers.

Two formats are supported:

* **SNAP-style edge lists** (the format of the datasets in the paper's
  Table 1): one ``source target`` pair per line, ``#`` comments,
  whitespace-separated, arbitrary node ids.  Reading runs the full
  cleaning pipeline of :mod:`repro.graph.cleaning` so the resulting
  graph matches the paper's preprocessing.
* **Binary cache** (``.npz``): the CSR arrays verbatim, stored without
  compression, for fast reload of generated benchmark datasets and
  checkpoints.  Files whose members are deflated load the same way.
"""

from __future__ import annotations

import io as _io
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.cleaning import CleaningReport, clean
from repro.graph.digraph import DiGraph

__all__ = [
    "read_edge_list",
    "parse_edge_list",
    "write_edge_list",
    "save_npz",
    "load_npz",
    "NPZ_READ_ERRORS",
]

#: What ``np.load`` of a damaged or foreign ``.npz`` can raise: a missing
#: member (``KeyError``), an unreadable, truncated or non-zip file
#: (``OSError``, ``EOFError``, ``BadZipFile``), a bad array header
#: (``ValueError``), a zip header naming an unsupported method, version
#: or flag (``NotImplementedError``), and a corrupt deflated member
#: (``zlib.error``).  A stored member with a flipped byte fails its
#: CRC-32 (``BadZipFile``).
NPZ_READ_ERRORS = (
    KeyError,
    OSError,
    EOFError,
    ValueError,
    NotImplementedError,
    zipfile.BadZipFile,
    zlib.error,
)


def parse_edge_list(
    text: str,
    *,
    symmetrize: bool = False,
    name: str = "",
) -> tuple[DiGraph, CleaningReport]:
    """Parse a SNAP-style edge list from a string.

    Lines starting with ``#`` (or ``%``, used by some mirrors) are
    comments; blank lines are skipped; each remaining line must contain
    exactly two integer tokens.
    """
    sources: list[int] = []
    targets: list[int] = []
    for lineno, raw_line in enumerate(_io.StringIO(text), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#") or line.startswith("%"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise GraphFormatError(
                f"line {lineno}: expected 'source target', got {line!r}"
            )
        try:
            source, target = int(tokens[0]), int(tokens[1])
        except ValueError as exc:
            raise GraphFormatError(
                f"line {lineno}: non-integer node id in {line!r}"
            ) from exc
        if source < 0 or target < 0:
            raise GraphFormatError(
                f"line {lineno}: negative node id in {line!r}"
            )
        sources.append(source)
        targets.append(target)
    return clean(
        np.asarray(sources, dtype=np.int64),
        np.asarray(targets, dtype=np.int64),
        symmetrize=symmetrize,
        name=name,
    )


def read_edge_list(
    path: str | Path,
    *,
    symmetrize: bool = False,
    name: str | None = None,
) -> tuple[DiGraph, CleaningReport]:
    """Read and clean a SNAP-style edge-list file."""
    path = Path(path)
    if name is None:
        name = path.stem
    return parse_edge_list(
        path.read_text(), symmetrize=symmetrize, name=name
    )


def write_edge_list(graph: DiGraph, path: str | Path) -> None:
    """Write the graph as a SNAP-style edge list with a header comment."""
    path = Path(path)
    with path.open("w") as handle:
        handle.write(f"# repro graph {graph.name!r}\n")
        handle.write(f"# nodes {graph.num_nodes} edges {graph.num_edges}\n")
        sources, targets = graph.edge_array()
        for source, target in zip(sources.tolist(), targets.tolist()):
            handle.write(f"{source}\t{target}\n")


def save_npz(graph: DiGraph, path: str | Path) -> None:
    """Save the CSR arrays to an uncompressed ``.npz`` cache file.

    The members are stored, not deflated: the file is about twice the
    size of a compressed one, but it is written and read at disk speed
    instead of zlib's, which matters for checkpoints taken under the
    writer lock.
    """
    np.savez(
        Path(path),
        out_indptr=graph.out_indptr,
        out_indices=graph.out_indices,
        name=np.array(graph.name),
        undirected_origin=np.array(graph.undirected_origin),
    )


def load_npz(path: str | Path) -> DiGraph:
    """Load a graph written by :func:`save_npz`, stored or compressed.

    Any damage to the file raises :class:`~repro.errors.GraphFormatError`.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            return DiGraph(
                data["out_indptr"],
                data["out_indices"],
                name=str(data["name"]),
                undirected_origin=bool(data["undirected_origin"]),
            )
    except NPZ_READ_ERRORS as exc:
        raise GraphFormatError(f"cannot load graph cache {path}: {exc}") from exc
