"""Versioned dynamic graphs: an immutable CSR base plus a delta overlay.

:class:`~repro.graph.digraph.DiGraph` is deliberately immutable — every
algorithm in the library relies on its CSR arrays never changing under
it.  Evolving workloads therefore go through :class:`DynamicGraph`,
which layers mutable insert/delete buffers over an immutable base
snapshot:

* every successful mutation bumps a monotonically increasing
  ``version`` (the cache-invalidation key used by
  :class:`~repro.api.engine.PPREngine`),
* :meth:`snapshot` materialises the current logical graph as a fresh
  immutable :class:`DiGraph` (cached per version, so repeated reads at
  the same version are free; the cost of the first is below),
* :meth:`compact` merges the deltas into the base snapshot, resetting
  the overlay without changing the logical graph or its version,
* an append-only **journal** records ``(version, op, u, v,
  old out-degree of u)`` for every mutation, which is exactly the
  information :class:`~repro.core.incremental.IncrementalPPR` needs to
  apply the paper's push-invariant residue corrections lazily; once
  every consumer has caught up, :meth:`trim_journal` reclaims the
  replayed prefix so memory tracks *pending* work, not lifetime
  updates (the engine trims automatically behind its trackers).

The node set is fixed at construction (dense ids ``0..n-1``), matching
the rest of the library; self-loops and parallel edges are rejected,
matching the cleaning conventions of :mod:`repro.graph.build`.

Snapshot cost model
-------------------
With ``m`` base edges and an overlay of ``k`` edges, a new version's
snapshot is a **merge**: ``O(k log d)`` to binary-search each overlay
edge into its row of the base (``d`` the longest row; no array of
all ``m`` edge keys is built) plus ``O(m)`` of memcpy to copy the
adjacency array around the deleted and inserted positions, and one
``O(n)`` cumsum for the row pointers.  Nothing is sorted over ``m``,
and nothing is carried from one version to the next — it is always
base + overlay, so a snapshot does not depend on which versions were
materialised before.

The merge equals a from-scratch build because of one contract,
**canonical order**: edge keys ``u * n + v`` strictly increasing, i.e.
every row sorted and free of parallel edges
(:attr:`DiGraph.has_canonical_order
<repro.graph.digraph.DiGraph.has_canonical_order>`).  In that order the
CSR arrays are a function of the edge *set* alone, so splicing an edge
in at its one position gives byte for byte what
:func:`~repro.graph.build.from_edge_arrays` returns for the new set.
Every deduplicating builder and every merged snapshot is canonical by
construction; a base of unknown origin (loaded, shared-memory attached,
hand-assembled) is scanned once, at construction.  A base holding a
parallel edge, which :class:`DiGraph` permits, is refused there: the
overlay counts each edge once.  Only a base with unsorted rows is
rebuilt by sorting all ``m + k`` edges, ``O((m + k) log (m + k))``.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from repro.errors import GraphConstructionError, NodeNotFoundError, ParameterError
from repro.graph.build import from_edge_arrays
from repro.graph.digraph import DiGraph

__all__ = ["DynamicGraph", "EdgeUpdate", "sample_edge_update"]

#: Accepted spellings for the two update operations.
_INSERT_OPS = frozenset({"+", "insert", "add"})
_DELETE_OPS = frozenset({"-", "delete", "remove"})


def _edge_keys(graph: DiGraph) -> np.ndarray:
    """Every edge ``(u, v)`` of ``graph`` as the key ``u * n + v``, in CSR order."""
    n = graph.num_nodes
    rows = np.arange(n, dtype=np.int64) * n
    return np.repeat(rows, graph.out_degree) + graph.out_indices


def _row_positions(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: np.ndarray,
    targets: np.ndarray,
) -> np.ndarray:
    """Where each edge ``(sources[i], targets[i])`` sits, or would be
    inserted, in a CSR whose rows are sorted: ``indptr[u]`` plus the
    number of row ``u``'s entries below ``v``.

    One binary search per edge, all run in lockstep over their own rows,
    so the cost is ``O(k log d_max)`` for ``k`` edges and no array of
    all ``m`` edge keys is built.
    """
    low = indptr[sources]
    high = indptr[sources + 1]
    open_ = np.flatnonzero(low < high)
    while open_.shape[0]:
        mid = (low[open_] + high[open_]) >> 1
        below = indices[mid] < targets[open_]
        low[open_[below]] = mid[below] + 1
        high[open_[~below]] = mid[~below]
        open_ = open_[low[open_] < high[open_]]
    return low


class EdgeUpdate(NamedTuple):
    """One journalled mutation: ``op`` is ``"+"`` (insert) or ``"-"``.

    ``old_out_degree`` is the out-degree of ``source`` *before* the
    mutation — the degree the push invariant's residue correction must
    be scaled by.
    """

    version: int
    op: str
    source: int
    target: int
    old_out_degree: int


class DynamicGraph:
    """A mutable directed graph: base CSR snapshot + delta overlay.

    Parameters
    ----------
    base:
        The immutable starting snapshot.  The node set is frozen at
        ``base.num_nodes``.  A base holding a parallel edge raises
        :class:`~repro.errors.GraphConstructionError`, as inserting one
        does.
    name:
        Human-readable name; defaults to the base graph's name.
    """

    __slots__ = (
        "_base",
        "_name",
        "_version",
        "_inserts",
        "_deletes",
        "_num_inserts",
        "_num_deletes",
        "_journal",
        "_journal_floor",
        "_snapshot_cache",
        "_wal_hook",
    )

    def __init__(
        self,
        base: DiGraph,
        *,
        name: str | None = None,
        initial_version: int = 0,
    ) -> None:
        if initial_version < 0:
            raise ParameterError(
                f"initial_version must be >= 0, got {initial_version}"
            )
        if not base.has_canonical_order:
            keys = np.sort(_edge_keys(base))
            repeated = keys[1:][keys[1:] == keys[:-1]]
            if repeated.shape[0]:
                u, v = divmod(int(repeated[0]), base.num_nodes)
                raise GraphConstructionError(
                    f"base graph holds edge ({u}, {v}) more than once "
                    "(parallel edges are not supported)"
                )
        self._base = base
        self._name = base.name if name is None else name
        #: nonzero when restoring durable state: the base snapshot then
        #: already reflects every mutation up to ``initial_version``
        #: (cold-restart recovery; see :mod:`repro.durability`), and the
        #: journal floor starts there because pre-restore entries are
        #: gone — tracker consumers resync from the snapshot.
        self._version = int(initial_version)
        #: per-source overlay sets; only touched sources get an entry
        self._inserts: dict[int, set[int]] = {}
        self._deletes: dict[int, set[int]] = {}
        self._num_inserts = 0
        self._num_deletes = 0
        self._journal: list[EdgeUpdate] = []
        self._journal_floor = int(initial_version)
        self._snapshot_cache: tuple[int, DiGraph] | None = None
        self._wal_hook: object | None = None

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def base(self) -> DiGraph:
        """The immutable snapshot the overlay is layered on."""
        return self._base

    @property
    def name(self) -> str:
        return self._name

    @property
    def version(self) -> int:
        """Monotonically increasing mutation counter (starts at 0)."""
        return self._version

    @property
    def num_nodes(self) -> int:
        return self._base.num_nodes

    @property
    def num_edges(self) -> int:
        """Edge count of the current logical graph."""
        return self._base.num_edges - self._num_deletes + self._num_inserts

    @property
    def pending_updates(self) -> int:
        """Overlay size: edges inserted or deleted since the last compact."""
        return self._num_inserts + self._num_deletes

    @property
    def has_dead_ends(self) -> bool:
        """True when some node of the current logical graph has no out-edges.

        Decided from the overlay alone, without materialising a
        snapshot or walking the base's dead ends: a base dead end stays
        dead unless it has inserts (it has no edge to delete), and a
        live base node can only die by deletes.
        """
        base_degree = self._base.out_degree
        revived = sum(1 for v in self._inserts if base_degree[v] == 0)
        if self._base.dead_ends.shape[0] > revived:
            return True
        return any(self.out_degree_of(v) == 0 for v in self._deletes)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def out_degree_of(self, v: int) -> int:
        """Out-degree of ``v`` in the current logical graph."""
        self._check_node(v)
        degree = int(self._base.out_degree[v])
        degree -= len(self._deletes.get(v, ()))
        degree += len(self._inserts.get(v, ()))
        return degree

    def out_neighbors(self, v: int) -> np.ndarray:
        """Sorted out-neighbour ids of ``v`` in the current logical graph."""
        self._check_node(v)
        neighbors = self._base.out_neighbors(v)
        deleted = self._deletes.get(v)
        inserted = self._inserts.get(v)
        if not deleted and not inserted:
            return neighbors
        merged = set(neighbors.tolist())
        if deleted:
            merged -= deleted
        if inserted:
            merged |= inserted
        return np.array(sorted(merged), dtype=np.int32)

    def has_edge(self, u: int, v: int) -> bool:
        """True when the directed edge ``(u, v)`` currently exists."""
        self._check_node(u)
        self._check_node(v)
        if v in self._inserts.get(u, ()):
            return True
        if v in self._deletes.get(u, ()):
            return False
        return self._base.has_edge(u, v)

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> int:
        """Insert the directed edge ``(u, v)``; return the new version.

        Raises :class:`~repro.errors.GraphConstructionError` when the
        edge already exists, and :class:`~repro.errors.ParameterError`
        for self-loops (the library's cleaning conventions exclude
        them).
        """
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise ParameterError(
                f"self-loop ({u}, {v}) rejected: DynamicGraph keeps the "
                "library's no-self-loop convention"
            )
        if self.has_edge(u, v):
            raise GraphConstructionError(
                f"edge ({u}, {v}) already exists (parallel edges are not "
                "supported)"
            )
        old_degree = self.out_degree_of(u)
        deleted = self._deletes.get(u)
        if deleted and v in deleted:
            deleted.discard(v)
            if not deleted:
                del self._deletes[u]
            self._num_deletes -= 1
        else:
            self._inserts.setdefault(u, set()).add(v)
            self._num_inserts += 1
        return self._commit("+", u, v, old_degree)

    def remove_edge(self, u: int, v: int) -> int:
        """Delete the directed edge ``(u, v)``; return the new version.

        Raises :class:`~repro.errors.GraphConstructionError` when the
        edge does not exist.
        """
        self._check_node(u)
        self._check_node(v)
        if not self.has_edge(u, v):
            raise GraphConstructionError(f"edge ({u}, {v}) does not exist")
        old_degree = self.out_degree_of(u)
        inserted = self._inserts.get(u)
        if inserted and v in inserted:
            inserted.discard(v)
            if not inserted:
                del self._inserts[u]
            self._num_inserts -= 1
        else:
            self._deletes.setdefault(u, set()).add(v)
            self._num_deletes += 1
        return self._commit("-", u, v, old_degree)

    def apply_updates(
        self, updates: Iterable[tuple[str, int, int]]
    ) -> int:
        """Apply a batch of ``(op, u, v)`` updates; return the new version.

        ``op`` accepts ``"+"``/``"insert"``/``"add"`` and
        ``"-"``/``"delete"``/``"remove"``.  Updates apply in order and
        the batch is *not* atomic: a bad update raises after the
        preceding ones have been applied (each applied update already
        has its own journal entry and version).
        """
        for op, u, v in updates:
            key = str(op).strip().lower()
            if key in _INSERT_OPS:
                self.add_edge(int(u), int(v))
            elif key in _DELETE_OPS:
                self.remove_edge(int(u), int(v))
            else:
                raise ParameterError(
                    f"unknown edge-update op {op!r}; expected one of "
                    f"{sorted(_INSERT_OPS | _DELETE_OPS)}"
                )
        return self._version

    # ------------------------------------------------------------------
    # Journal
    # ------------------------------------------------------------------
    @property
    def journal_floor(self) -> int:
        """Highest version whose journal entries have been trimmed away.

        :meth:`updates_since` can only replay from versions ``>=``
        this floor; consumers that fell further behind must resync
        from a snapshot instead.
        """
        return self._journal_floor

    def updates_since(self, version: int) -> list[EdgeUpdate]:
        """Journal entries with ``entry.version > version``, in order.

        Versions advance by exactly 1 per mutation, so this is a slice;
        a ``version`` ahead of the graph — or behind
        :attr:`journal_floor` — raises
        :class:`~repro.errors.ParameterError`.
        """
        if version < 0 or version > self._version:
            raise ParameterError(
                f"version {version} outside [0, {self._version}]"
            )
        if version < self._journal_floor:
            raise ParameterError(
                f"journal trimmed up to version {self._journal_floor}; "
                f"cannot replay from version {version} — resync from a "
                f"snapshot instead"
            )
        return self._journal[version - self._journal_floor:]

    def trim_journal(self, version: int) -> int:
        """Drop journal entries with ``entry.version <= version``.

        Call once every journal consumer has replayed past ``version``
        (versions ahead of the graph are clamped).  Returns the number
        of entries dropped; the journal then holds only
        ``(journal_floor, current version]``.  A consumer that fell
        behind the floor cannot replay and must resync from a snapshot
        (:class:`~repro.core.incremental.IncrementalPPR` does so
        automatically, at from-scratch cost) — so the trimmer should
        know every consumer, as :class:`~repro.api.engine.PPREngine`
        does for its own trackers.
        """
        version = min(version, self._version)
        dropped = max(0, version - self._journal_floor)
        if dropped:
            self._journal = self._journal[dropped:]
            self._journal_floor = version
        return dropped

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------
    def snapshot(self) -> DiGraph:
        """The current logical graph as an immutable CSR :class:`DiGraph`.

        Cached per version; with an empty overlay the base snapshot is
        returned as-is.  Otherwise the result owns fresh arrays (it
        never aliases the base, which may live in shared memory) and is
        byte-for-byte what :func:`~repro.graph.build.from_edge_arrays`
        builds from the current edge set.  See the module docstring for
        the cost model.
        """
        if self.pending_updates == 0:
            return self._base
        if (
            self._snapshot_cache is not None
            and self._snapshot_cache[0] == self._version
        ):
            return self._snapshot_cache[1]
        deleted = self._overlay_keys(self._deletes, self._num_deletes)
        inserted = self._overlay_keys(self._inserts, self._num_inserts)
        if self._base.has_canonical_order:
            snap = self._merge_overlay(deleted, inserted)
        else:
            snap = self._resort_with_overlay(deleted, inserted)
        self._snapshot_cache = (self._version, snap)
        return snap

    def _overlay_keys(
        self, overlay: dict[int, set[int]], count: int
    ) -> np.ndarray:
        """The overlay's edges as ``u * n + v`` keys, ascending."""
        n = self.num_nodes
        return np.fromiter(
            sorted(u * n + v for u, vs in overlay.items() for v in vs),
            dtype=np.int64,
            count=count,
        )

    def _merge_overlay(
        self, deleted: np.ndarray, inserted: np.ndarray
    ) -> DiGraph:
        """Splice the overlay into a canonical base: no sort over ``m``.

        In canonical order every overlay edge ``(u, v)`` has exactly one
        position, ``indptr[u]`` plus the number of ``u``'s base targets
        below ``v``, found by a binary search of row ``u`` alone; the
        adjacency array is then copied with the deletes dropped and the
        inserts (ascending, so several landing at one position stay in
        order) spliced in.
        """
        base = self._base
        n = base.num_nodes
        indptr, indices = base.out_indptr, base.out_indices
        degree = base.out_degree
        if deleted.shape[0]:
            deleted_at = _row_positions(indptr, indices, deleted // n, deleted % n)
            indices = np.delete(indices, deleted_at)
            degree = degree - np.bincount(deleted // n, minlength=n)
        if inserted.shape[0]:
            inserted_at = _row_positions(
                indptr, base.out_indices, inserted // n, inserted % n
            )
            if deleted.shape[0]:
                # np.insert positions refer to the array after deletion.
                inserted_at -= np.searchsorted(deleted_at, inserted_at)
            indices = np.insert(indices, inserted_at, inserted % n)
            degree = degree + np.bincount(inserted // n, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degree, out=indptr[1:])
        snap = DiGraph(
            indptr,
            indices,
            name=self._name,
            undirected_origin=base.undirected_origin,
            validate=False,
        )
        snap._canonical_order = True
        return snap

    def _resort_with_overlay(
        self, deleted: np.ndarray, inserted: np.ndarray
    ) -> DiGraph:
        """Rebuild by sorting all edges: the path for a base whose rows
        are unsorted, where a merge would not reproduce the builder's
        order."""
        base = self._base
        n = base.num_nodes
        keys = _edge_keys(base)
        keys = np.concatenate([keys[~np.isin(keys, deleted)], inserted])
        return from_edge_arrays(
            keys // n,
            keys % n,
            num_nodes=n,
            name=self._name,
            dedup=False,
            drop_self_loops=False,
            undirected_origin=base.undirected_origin,
        )

    def compact(self) -> DiGraph:
        """Merge the overlay into a fresh base snapshot and return it.

        The logical graph (and therefore ``version``) is unchanged —
        compaction is purely a representation change that restores
        CSR-speed reads and empties the delta buffers.
        """
        snap = self.snapshot()
        self._base = snap
        self._inserts.clear()
        self._deletes.clear()
        self._num_inserts = 0
        self._num_deletes = 0
        self._snapshot_cache = None
        if self._wal_hook is not None:
            # Compaction rebases the CSR in memory only; an attached
            # durability layer just flushes its pending WAL tail (see
            # DurabilityManager.on_compact).
            self._wal_hook.on_compact(self)  # type: ignore[attr-defined]
        return snap

    # ------------------------------------------------------------------
    # Durability hook
    # ------------------------------------------------------------------
    def attach_wal_hook(self, hook: object) -> None:
        """Attach a durability observer (one at a time).

        ``hook`` must provide ``on_commit(entry: EdgeUpdate)`` — called
        after every successful mutation — and ``on_compact(graph)`` —
        called after :meth:`compact` rebases the CSR.  Used by
        :class:`~repro.durability.manager.DurabilityManager`; attaching
        a second hook raises :class:`~repro.errors.ParameterError`.
        """
        if self._wal_hook is not None and self._wal_hook is not hook:
            raise ParameterError(
                "a WAL hook is already attached to this DynamicGraph"
            )
        self._wal_hook = hook

    def detach_wal_hook(self) -> None:
        self._wal_hook = None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _commit(self, op: str, u: int, v: int, old_degree: int) -> int:
        self._version += 1
        self._snapshot_cache = None
        entry = EdgeUpdate(self._version, op, u, v, old_degree)
        self._journal.append(entry)
        if self._wal_hook is not None:
            self._wal_hook.on_commit(entry)  # type: ignore[attr-defined]
        return self._version

    def _check_node(self, v: int) -> None:
        if not 0 <= v < self._base.num_nodes:
            raise NodeNotFoundError(
                f"node {v} is outside [0, {self._base.num_nodes}) for "
                f"dynamic graph {self._name!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self._name!r}" if self._name else ""
        return (
            f"DynamicGraph(n={self.num_nodes}, m={self.num_edges}{label}, "
            f"version={self._version}, pending={self.pending_updates})"
        )


def sample_edge_update(
    graph: DynamicGraph,
    rng: np.random.Generator,
    *,
    p_insert: float = 0.5,
    max_tries: int = 256,
) -> tuple[str, int, int]:
    """Sample one valid random edge update for ``graph``'s current state.

    The sampled stream is the canonical evolving-graph workload used by
    the dynamic experiment, benchmark, and tests.  Two safety rules
    keep the workload inside the incrementally-maintainable regime:
    insertions start at nodes that already have out-edges, and
    deletions never remove a node's last out-edge — so the graph stays
    dead-end-free and every update admits the degree-scaled residue
    correction.

    The update is returned, *not* applied; feed it to
    :meth:`DynamicGraph.apply_updates` (or
    :meth:`~repro.api.engine.PPREngine.apply_updates`).
    """
    n = graph.num_nodes
    if n < 3:
        raise ParameterError("sampling updates needs at least 3 nodes")
    for _ in range(max_tries):
        u = int(rng.integers(0, n))
        degree = graph.out_degree_of(u)
        if rng.random() < p_insert:
            if degree == 0 or degree >= n - 1:
                continue
            v = int(rng.integers(0, n))
            if v == u or graph.has_edge(u, v):
                continue
            return ("+", u, v)
        if degree >= 2:
            neighbors = graph.out_neighbors(u)
            v = int(neighbors[rng.integers(0, neighbors.shape[0])])
            return ("-", u, v)
    raise ParameterError(
        f"could not sample a valid edge update in {max_tries} tries "
        f"(graph may be too dense or too sparse)"
    )
