"""Stateful query-serving facade: one :class:`PPREngine` per graph.

The ROADMAP's production framing — heavy query traffic against one
graph — means the expensive per-graph artefacts must outlive a single
query: SpeedPPR's eps-independent walk index, FORA+'s per-eps indexes,
and BePI's block-elimination factorisation.  ``PPREngine`` owns those
caches and lazily builds each one the first time a query needs it::

    >>> engine = PPREngine(graph, alpha=0.2, seed=7)
    >>> engine.query(0, method="powerpush", l1_threshold=1e-8)
    >>> engine.query(0, method="speedppr", epsilon=0.3)   # builds index
    >>> engine.query(1, method="speedppr", epsilon=0.1)   # reuses it

Every method name accepted by the solver registry works, including
aliases; ``engine.batch_query`` answers many sources with shared
indexes (and a genuinely multi-source vectorised path for
Monte-Carlo); ``engine.top_k`` adds certified top-k answers; and
``engine.stats`` aggregates instrumentation across the engine's
lifetime.  ``index_builds`` counts how often each index kind was
constructed, so tests (and operators) can assert reuse.

Evolving graphs
---------------
An engine built on a :class:`~repro.graph.dynamic.DynamicGraph` serves
the same API against a graph that changes under it.  Every cached
artefact is stamped with the graph version it was built at; after
``engine.apply_updates(edges)`` the stale artefacts are dropped on the
next query (``index_invalidations`` counts them), so no query is ever
served from an index of a previous graph version.  Sources registered
with ``engine.track(source)`` keep a
:class:`~repro.core.incremental.IncrementalPPR` pair that is
*repaired* instead of rebuilt — ``engine.query(s, method="incremental")``
replays pending updates with degree-scaled residue corrections and
re-certifies, at a cost governed by the perturbation.

Warm starts
-----------
``save_indexes(dir)`` / ``load_indexes(dir)`` persist the walk-based
indexes (via :mod:`repro.walks.storage`) together with a manifest
recording the graph's shape and version; loading refuses stale or
mismatched artefacts, so a restarted server either skips preprocessing
safely or rebuilds.

Thread safety
-------------
Concurrent *queries* against one engine are safe: an internal re-entrant
lock serialises every mutation of engine state (cache invalidation,
stats, the query counter) while the solver bodies — pure functions of
the graph snapshot and the injected artefacts — run outside it, and
lazy index builds are double-checked so even a multi-second
construction never blocks queries of other methods: readers genuinely
overlap.  The exception is ``method="incremental"``, whose tracker
repair mutates shared state and therefore holds the lock for the whole
refresh — incremental refreshes serialise against everything.  Mixing
queries with ``apply_updates`` from different threads additionally
needs the *graph* transition serialised against in-flight reads; use
:class:`repro.serving.EngineServer`, which wraps the engine in a
readers-writer lock (plus a versioned result cache and a micro-batching
scheduler), instead of hand-rolling that.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serving.shm import SharedGraphHandle, SharedGraphImage

import numpy as np

from repro.api.registry import (
    SolverSpec,
    _normalize,
    build_fora_index,
    build_speedppr_index,
    per_source_rng,
    resolve_method,
)
from repro.backends import KernelBackend, resolve_backend
from repro.bepi.blockelim import BePIIndex, build_bepi_index
from repro.core.incremental import IncrementalPPR
from repro.core.result import PPRResult
from repro.core.topk import TopKResult, top_k_ppr
from repro.core.validation import check_source
from repro.durability.atomic import atomic_write_json
from repro.errors import IndexMismatchError, ParameterError
from repro.graph.digraph import DiGraph
from repro.graph.dynamic import DynamicGraph
from repro.graph.transforms import ReorderResult, reorder_for_locality
from repro.instrumentation.counters import PushCounters
from repro.montecarlo.chernoff import (
    chernoff_walk_count,
    default_failure_probability,
    default_mu,
)
from repro.walks.engine import simulate_walk_stops
from repro.walks.index import WalkIndex
from repro.walks.storage import load_walk_index, save_walk_index

__all__ = [
    "PPREngine",
    "EngineStats",
    "MethodStats",
    "INCREMENTAL_METHOD_NAMES",
    "INCREMENTAL_METHOD_PARAMS",
    "is_incremental_method",
    "validate_incremental_params",
    "per_source_rng",
]

#: Accepted spellings of the engine-level incremental method (not in
#: the solver registry — it needs per-engine tracker state).  Canonical
#: name first; the CLI's ``methods`` listing derives its aliases from
#: this tuple, so there is exactly one place to extend.
INCREMENTAL_METHOD_NAMES: tuple[str, ...] = (
    "incremental",
    "tracked",
    "incremental-ppr",
)
_INCREMENTAL_NAMES = frozenset(
    _normalize(name) for name in INCREMENTAL_METHOD_NAMES
)

#: Parameters the incremental method accepts (the CLI listing prints
#: these, so keep them in one place like the names above).
INCREMENTAL_METHOD_PARAMS: tuple[str, ...] = ("l1_threshold", "trace")


def is_incremental_method(name: str) -> bool:
    """Whether ``name`` spells the engine-level incremental method.

    Uses the registry's normalisation, so every separator variant the
    registry accepts (``incremental-ppr``, ``incremental ppr`` …) is
    recognised here too.
    """
    return _normalize(name) in _INCREMENTAL_NAMES


def validate_incremental_params(params: Mapping[str, Any]) -> None:
    """Reject parameters outside :data:`INCREMENTAL_METHOD_PARAMS`.

    The single validation point for the engine-level incremental
    method — the engine's query path and the serving layer's submit
    path both call it, so the accepted set (and the error message)
    cannot drift apart.
    """
    unknown = sorted(set(params) - set(INCREMENTAL_METHOD_PARAMS))
    if unknown:
        raise ParameterError(
            f"method 'incremental' does not accept parameter(s) "
            f"{', '.join(unknown)}; accepted: "
            f"{', '.join(sorted(INCREMENTAL_METHOD_PARAMS))}"
        )

#: File name of the index-persistence manifest written by save_indexes.
_MANIFEST_NAME = "manifest.json"
# Format 2 added per-artifact SHA-256 checksums (load_indexes refuses
# truncated or bit-rotted index files instead of trusting stamps).
_MANIFEST_FORMAT = 2


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _graph_fingerprint(graph: DiGraph) -> str:
    """Content hash of a CSR snapshot — the staleness stamp for indexes.

    Hashing the actual adjacency arrays (not a session-local version
    counter) means a server restarted on the same persisted graph can
    warm-start, while an index saved for *any* other graph — including
    a same-shaped one — is refused.
    """
    digest = hashlib.sha256()
    digest.update(np.int64(graph.num_nodes).tobytes())
    digest.update(np.ascontiguousarray(graph.out_indptr).tobytes())
    digest.update(np.ascontiguousarray(graph.out_indices).tobytes())
    return digest.hexdigest()

#: rng-stream salts; chosen to match the historical Workspace streams so
#: experiment artefacts are bit-identical across the refactor.
_WALK_INDEX_SALT = 1
_FORA_INDEX_SALT = 2
_QUERY_SALT_BASE = 10_000

#: peak walks materialised at once by the vectorised Monte-Carlo batch
_BATCH_WALK_BUDGET = 1 << 24


@dataclass
class MethodStats:
    """Aggregate instrumentation for one method on one engine."""

    queries: int = 0
    seconds: float = 0.0
    counters: PushCounters = field(default_factory=PushCounters)

    def record(self, result: PPRResult) -> None:
        self.queries += 1
        self.seconds += result.seconds
        self.counters.merge(result.counters)


@dataclass
class EngineStats:
    """Per-engine aggregation of query instrumentation."""

    queries: int = 0
    seconds: float = 0.0
    by_method: dict[str, MethodStats] = field(default_factory=dict)

    def record(self, result: PPRResult) -> None:
        self.queries += 1
        self.seconds += result.seconds
        per_method = self.by_method.setdefault(result.method, MethodStats())
        per_method.record(result)

    def render(self) -> str:
        """Plain-text summary, one line per method."""
        lines = [f"{self.queries} queries, {self.seconds:.4f}s total"]
        for method in sorted(self.by_method):
            stats = self.by_method[method]
            lines.append(
                f"  {method}: {stats.queries} queries, "
                f"{stats.seconds:.4f}s, "
                f"{stats.counters.residue_updates} residue updates, "
                f"{stats.counters.random_walks} walks"
            )
        return "\n".join(lines)


class PPREngine:
    """Answer SSPPR queries against one graph with cached indexes.

    Parameters
    ----------
    graph:
        The graph all queries run against — an immutable
        :class:`~repro.graph.digraph.DiGraph`, or a
        :class:`~repro.graph.dynamic.DynamicGraph` to serve an
        evolving graph (enables ``apply_updates`` / ``track``).
    alpha:
        Default teleport probability for every query (overridable
        per query).
    seed:
        Base seed: index construction and the per-query generators of
        stochastic methods derive from it deterministically, so an
        engine replays exactly given the same call sequence.
    dead_end_policy:
        Default dead-end rule for solvers that accept one.
    walk_index, bepi_index:
        Optionally adopt pre-built indexes instead of building lazily.
    backend:
        Kernel backend injected into every query of a backend-capable
        method (PowerPush and friends): a registered name
        (``"numpy"``/``"numba"``) or a
        :class:`~repro.backends.KernelBackend` instance.  ``None``
        leaves the choice to each solver's own resolution (the
        ``REPRO_PPR_BACKEND`` environment variable, defaulting to the
        NumPy reference) — so explicit-constructor > env var > default.
        Resolution happens here, so an unknown name fails fast and a
        missing ``numba`` warns once at engine construction.
    reorder:
        Cache-aware node reordering: ``"degree"`` or ``"slashburn"``
        (see :func:`repro.graph.transforms.reorder_for_locality`), or
        a pre-computed :class:`~repro.graph.transforms.ReorderResult`.
        The engine then runs every query on the relabelled graph —
        whose CSR the kernels walk with better cache locality — and
        transparently maps sources in and permutes estimates/rankings
        back, so callers keep using original node ids throughout.
        Per-source RNG streams stay keyed on the *original* ids, so
        seeded answers remain a pure function of ``(seed, source)``.
        Only static graphs can be reordered (a
        :class:`DynamicGraph`'s labels must stay stable under
        updates).  Answers are not byte-for-byte the unreordered
        engine's: the sweep-based solvers push in node-id order with
        the freshest residues, so a relabelling changes which valid
        answer comes out — two PowerPush answers each within
        ``l1_threshold`` of the exact vector, hence within twice that
        of each other; solvers without such an order agree to float
        re-association (~1e-12).
    """

    def __init__(
        self,
        graph: DiGraph | DynamicGraph,
        *,
        alpha: float = 0.2,
        seed: int = 0,
        dead_end_policy: str = "redirect-to-source",
        walk_index: WalkIndex | None = None,
        bepi_index: BePIIndex | None = None,
        backend: str | KernelBackend | None = None,
        reorder: str | ReorderResult | None = None,
    ) -> None:
        self._reorder: ReorderResult | None = None
        if reorder is not None:
            if isinstance(graph, DynamicGraph):
                raise ParameterError(
                    "reordering needs stable node labels; serve a "
                    "DynamicGraph without reorder= (or snapshot() it into "
                    "an immutable DiGraph first)"
                )
            if isinstance(reorder, ReorderResult):
                self._reorder = reorder
            else:
                self._reorder = reorder_for_locality(graph, strategy=reorder)
            graph = self._reorder.graph
        #: resolved kernel backend, or None to defer to the env default
        self.backend: KernelBackend | None = (
            resolve_backend(backend) if backend is not None else None
        )
        if isinstance(graph, DynamicGraph):
            self._dynamic: DynamicGraph | None = graph
            self._static_graph: DiGraph | None = None
        else:
            self._dynamic = None
            self._static_graph = graph
        #: version of ``_static_graph``; moved only by replace_graph
        self._static_version = 0
        self.alpha = alpha
        self.seed = seed
        self.dead_end_policy = dead_end_policy
        self._walk_index = walk_index
        self._bepi_index = bepi_index
        #: (walk budget W, index, graph version built at), insertion order
        self._fora_indexes: list[tuple[int, WalkIndex, int]] = []
        #: graph version each singleton artefact was built/adopted at
        self._artefact_versions = {
            "walk": self.graph_version,
            "bepi": self.graph_version,
        }
        #: how many times each index kind was built (tests assert reuse)
        self.index_builds: dict[str, int] = {"walk": 0, "bepi": 0, "fora": 0}
        #: stale artefacts dropped after graph-version changes
        self.index_invalidations: dict[str, int] = {
            "walk": 0,
            "bepi": 0,
            "fora": 0,
        }
        self._trackers: dict[int, IncrementalPPR] = {}
        self.stats = EngineStats()
        #: batches answered by a multi-source block solve (tests and
        #: the serving layer assert coalesced windows land here)
        self.block_batches = 0
        self._query_counter = 0
        #: serialises every mutation of engine state (index caches,
        #: trackers, stats, counter) so concurrent queries are safe;
        #: re-entrant because index accessors nest under query().
        self._lock = threading.RLock()
        #: optional DurabilityManager flushed before apply_updates acks
        self._durability: Any | None = None

    @classmethod
    def from_shared_graph(
        cls,
        image_or_handle: "SharedGraphImage | SharedGraphHandle",
        **engine_kwargs: Any,
    ) -> "PPREngine":
        """Build an engine over a shared-memory graph image.

        ``image_or_handle`` is either an already-attached
        :class:`~repro.serving.shm.SharedGraphImage` or a picklable
        :class:`~repro.serving.shm.SharedGraphHandle` received from the
        exporting process (it is attached here).  The engine's CSR
        arrays and ``edge_sources`` alias the shared segment — construction
        copies nothing, so N worker processes serve one physical graph
        image.  A newer version arrives as a newer image
        (:meth:`replace_graph`), never as updates applied here.

        The image backing the engine is exposed as
        :attr:`shared_image` and must stay open (and be closed by its
        owner) for the engine's lifetime; ``reorder=`` is rejected
        because relabelling would copy the graph and break the
        cross-process placement-independence contract.
        """
        from repro.serving.shm import SharedGraphHandle, SharedGraphImage

        if engine_kwargs.get("reorder") is not None:
            raise ParameterError(
                "reorder= cannot be combined with a shared graph image: "
                "relabelling copies the CSR, defeating zero-copy sharing"
            )
        if isinstance(image_or_handle, SharedGraphHandle):
            image = SharedGraphImage.attach(image_or_handle)
        elif isinstance(image_or_handle, SharedGraphImage):
            image = image_or_handle
        else:
            raise ParameterError(
                "from_shared_graph needs a SharedGraphImage or "
                f"SharedGraphHandle; got {type(image_or_handle).__name__}"
            )
        engine = cls(image.graph(), **engine_kwargs)
        engine._shared_image = image
        return engine

    @property
    def shared_image(self) -> "SharedGraphImage | None":
        """The shared-memory image this engine serves from, if any."""
        return getattr(self, "_shared_image", None)

    # -- graph versioning ----------------------------------------------
    @property
    def graph(self) -> DiGraph:
        """The current immutable snapshot all queries run against.

        Locked: materialising a :class:`DynamicGraph` snapshot reads
        the overlay buffers that ``apply_updates`` mutates, so an
        unlocked read racing a writer could tear — the engine lock
        serialises the two (``apply_updates`` holds it too).
        """
        if self._dynamic is not None:
            with self._lock:
                return self._dynamic.snapshot()
        assert self._static_graph is not None
        return self._static_graph

    @property
    def graph_version(self) -> int:
        """Version of the served graph (static: see :meth:`replace_graph`)."""
        if self._dynamic is not None:
            return self._dynamic.version
        return self._static_version

    def replace_graph(self, graph: DiGraph, version: int) -> None:
        """Serve ``graph`` as version ``version`` from now on.

        A static engine's :meth:`apply_updates`, for versions that are
        materialised elsewhere (a sharded worker is handed each as a
        shared-memory image).  Artefacts built at another version are
        dropped now, so nothing keeps the replaced arrays alive; the
        caller excludes concurrent queries (the server's write lock).
        """
        if self._static_graph is None or self._reorder is not None:
            raise ParameterError(
                "replace_graph needs a plain DiGraph engine: a DynamicGraph "
                "moves through apply_updates, a reordering fits one graph"
            )
        if graph.num_nodes != self._static_graph.num_nodes:
            raise ParameterError(
                f"the node set is fixed at {self._static_graph.num_nodes} "
                f"nodes; got a graph of {graph.num_nodes}"
            )
        with self._lock:
            self._static_graph = graph
            self._static_version = int(version)
            self._sync_caches()

    @property
    def dynamic_graph(self) -> DynamicGraph | None:
        """The underlying :class:`DynamicGraph`, or None when static."""
        return self._dynamic

    def apply_updates(self, updates: Iterable[tuple[str, int, int]]) -> int:
        """Apply ``(op, u, v)`` edge updates; return the new graph version.

        Cached artefacts built at older versions are invalidated (or,
        for tracked sources, incrementally repaired) lazily on the next
        query that needs them.  Requires the engine to have been built
        on a :class:`DynamicGraph`.

        The engine assumes it owns its dynamic graph's journal: it
        trims replayed entries behind its own trackers' progress.  An
        :class:`IncrementalPPR` created *outside* this engine on the
        same graph stays correct but may lose its incremental
        advantage (trimmed entries force it to resync from a
        snapshot) — route trackers through :meth:`track` instead.

        Not atomic, like :meth:`DynamicGraph.apply_updates` — but the
        valid prefix of a batch that raises is made durable before the
        exception propagates: no reader sees a version the WAL lacks.
        """
        if self._dynamic is None:
            raise ParameterError(
                "engine serves an immutable DiGraph; construct it with a "
                "repro.graph.DynamicGraph to apply updates"
            )
        with self._lock:
            try:
                self._dynamic.apply_updates(updates)
            finally:
                # Also when the batch raised after a valid prefix: the
                # prefix moved the version every reader sees.
                version = self._dynamic.version
                if self._durability is not None:
                    # fsync-before-ack: the batch must be durable in the
                    # WAL before any caller sees its version.
                    self._durability.flush()
                if not self._trackers:
                    # No tracker will ever replay these entries (a future
                    # track() starts from the then-current version).
                    self._dynamic.trim_journal(version)
            return version

    def attach_durability(self, manager: Any) -> None:
        """Make ``apply_updates`` durable: flush ``manager``'s WAL
        before returning the acknowledged version.

        ``manager`` is a
        :class:`~repro.durability.manager.DurabilityManager` already
        attached (via bootstrap or recovery) to this engine's
        :class:`DynamicGraph`; it is duck-typed here to keep
        :mod:`repro.api` import-light.  The manager is also pointed
        back at this engine so checkpoints persist the built indexes.
        """
        if self._dynamic is None:
            raise ParameterError(
                "durability needs a DynamicGraph-backed engine"
            )
        if getattr(manager, "graph", None) is not self._dynamic:
            raise ParameterError(
                "the DurabilityManager must be attached to this engine's "
                "own DynamicGraph (bootstrap or recover it first)"
            )
        with self._lock:
            self._durability = manager
            manager.attach_engine(self)

    @property
    def durability(self) -> Any | None:
        """The attached DurabilityManager, or None when volatile."""
        return self._durability

    def track(
        self, source: int, *, l1_threshold: float = 1e-8
    ) -> IncrementalPPR:
        """Maintain the PPR vector of ``source`` across graph updates.

        The initial from-scratch solve happens here; afterwards
        ``query(source, method="incremental")`` repairs the tracked
        pair instead of re-solving.  Re-tracking an already tracked
        source returns the existing tracker; asking for a *different*
        ``l1_threshold`` than the existing tracker's raises (call
        :meth:`untrack` first to change the contract).
        """
        if self._dynamic is None:
            raise ParameterError(
                "tracking needs an evolving graph; construct the engine "
                "with a repro.graph.DynamicGraph"
            )
        source = int(source)
        with self._lock:
            tracker = self._trackers.get(source)
            if tracker is not None:
                if l1_threshold != tracker.l1_threshold:
                    raise ParameterError(
                        f"source {source} is already tracked at "
                        f"l1_threshold={tracker.l1_threshold}; untrack() it "
                        f"to change the contract"
                    )
                return tracker
            tracker = IncrementalPPR(
                self._dynamic,
                source,
                alpha=self.alpha,
                l1_threshold=l1_threshold,
            )
            self._trackers[source] = tracker
            return tracker

    def untrack(self, source: int) -> None:
        """Stop maintaining ``source``; no-op when it was not tracked."""
        with self._lock:
            self._trackers.pop(int(source), None)

    @property
    def tracked_sources(self) -> tuple[int, ...]:
        """Sources currently maintained incrementally, ascending."""
        return tuple(sorted(self._trackers))

    # -- reordered serving ---------------------------------------------
    @property
    def reordering(self) -> ReorderResult | None:
        """The active cache-aware reordering, or None.

        When set, :attr:`graph` is the relabelled graph the kernels
        actually walk; the query API keeps speaking original node ids
        (sources mapped in, estimates/rankings permuted back).
        """
        return self._reorder

    def _internal_source(self, source: int) -> int:
        """Map a caller-facing source id into the served graph."""
        source = int(source)
        if self._reorder is None:
            return source
        # Node counts agree, so validating against the served snapshot
        # validates the caller's id too.
        check_source(self.graph, source)
        return self._reorder.to_internal(source)

    def _externalize_result(self, result: PPRResult, source: int) -> PPRResult:
        """Permute a solve's vectors back to original node ids."""
        if self._reorder is None:
            return result
        result.estimate = self._reorder.restore_vector(result.estimate)
        if result.residue is not None:
            result.residue = self._reorder.restore_vector(result.residue)
        result.source = int(source)
        return result

    def _sync_caches(self) -> None:
        """Drop artefacts built at a graph version older than current."""
        version = self.graph_version
        if (
            self._walk_index is not None
            and self._artefact_versions["walk"] != version
        ):
            self._walk_index = None
            self.index_invalidations["walk"] += 1
        if (
            self._bepi_index is not None
            and self._artefact_versions["bepi"] != version
        ):
            self._bepi_index = None
            self.index_invalidations["bepi"] += 1
        if self._fora_indexes:
            fresh = [e for e in self._fora_indexes if e[2] == version]
            self.index_invalidations["fora"] += len(self._fora_indexes) - len(
                fresh
            )
            self._fora_indexes = fresh

    # -- cached per-graph artefacts ------------------------------------
    def rng(self, salt: int = 0) -> np.random.Generator:
        """Deterministic generator derived from the engine seed."""
        return np.random.default_rng(self.seed * 1_000_003 + salt)

    def walk_index(self) -> WalkIndex:
        """SpeedPPR's eps-independent walk index (built once, cached).

        The build itself runs *outside* the engine lock (double-checked
        on re-entry), so a multi-second index construction never stalls
        concurrent queries of other methods.  Duplicate concurrent
        builds are harmless: both consume the same deterministic stream
        (``rng(_WALK_INDEX_SALT)``), so whichever lands is identical.
        """
        while True:
            with self._lock:
                self._sync_caches()
                if self._walk_index is not None:
                    return self._walk_index
                version = self.graph_version
                graph = self.graph
            built = build_speedppr_index(
                graph, alpha=self.alpha, rng=self.rng(_WALK_INDEX_SALT)
            )
            with self._lock:
                self._sync_caches()
                if self.graph_version != version:
                    continue  # graph moved mid-build; rebuild fresh
                if self._walk_index is None:
                    self._walk_index = built
                    self._artefact_versions["walk"] = version
                    self.index_builds["walk"] += 1
                return self._walk_index

    def bepi_index(self) -> BePIIndex:
        """BePI's block-elimination preprocessing (built once, cached).

        Built outside the engine lock like :meth:`walk_index` (the
        factorisation is the single most expensive artefact).
        """
        while True:
            with self._lock:
                self._sync_caches()
                if self._bepi_index is not None:
                    return self._bepi_index
                version = self.graph_version
                graph = self.graph
            built = build_bepi_index(graph, alpha=self.alpha)
            with self._lock:
                self._sync_caches()
                if self.graph_version != version:
                    continue
                if self._bepi_index is None:
                    self._bepi_index = built
                    self._artefact_versions["bepi"] = version
                    self.index_builds["bepi"] += 1
                return self._bepi_index

    def fora_index(
        self,
        epsilon: float,
        *,
        mu: float | None = None,
        p_fail: float | None = None,
        exact: bool = False,
    ) -> WalkIndex:
        """FORA+'s contract-dependent index (cached by walk budget W).

        The index an ``(epsilon, mu, p_fail)`` contract needs is fully
        determined by its Chernoff walk budget ``W``, and an index
        built for ``W1 >= W2`` also serves ``W2`` (per-node counts are
        monotone in ``W``).  The cache therefore keys on ``W``: a query
        reuses the smallest sufficient index already built — so the
        paper's protocol of building at the smallest eps and reusing
        for larger ones falls out, and a tighter ``mu``/``p_fail``
        correctly triggers a fresh, larger build instead of being
        handed an undersized index.

        ``exact=True`` only reuses an index built for exactly this
        budget — for measurements (Table 2) that must report the size
        of *this* contract's index, not a larger one that happens to
        serve it.
        """
        # The node count is fixed for an engine's lifetime, so the
        # contract arithmetic needs no lock.
        if mu is None:
            mu = default_mu(self.graph.num_nodes)
        if p_fail is None:
            p_fail = default_failure_probability(self.graph.num_nodes)
        needed_w = chernoff_walk_count(epsilon, mu, p_fail=p_fail)

        def _scan() -> WalkIndex | None:
            best: tuple[int, WalkIndex] | None = None
            for built_w, index, _version in self._fora_indexes:
                sufficient = (
                    built_w == needed_w if exact else built_w >= needed_w
                )
                if sufficient and (best is None or built_w < best[0]):
                    best = (built_w, index)
            return None if best is None else best[1]

        # Build outside the lock, double-checked, like walk_index().
        while True:
            with self._lock:
                self._sync_caches()
                cached = _scan()
                if cached is not None:
                    return cached
                version = self.graph_version
                graph = self.graph
            index = build_fora_index(
                graph,
                epsilon,
                alpha=self.alpha,
                mu=mu,
                p_fail=p_fail,
                rng=self.rng(_FORA_INDEX_SALT),
            )
            with self._lock:
                self._sync_caches()
                if self.graph_version != version:
                    continue
                concurrent = _scan()
                if concurrent is not None:
                    return concurrent  # identical stream, identical index
                self._fora_indexes.append((needed_w, index, version))
                self.index_builds["fora"] += 1
                return index

    # -- query front door ----------------------------------------------
    def query(
        self, source: int, method: str = "powerpush", **params: Any
    ) -> PPRResult:
        """Answer one SSPPR query through the registry.

        Accepts any registered method name or alias plus that method's
        unified parameters.  Engine-level extras:

        * ``seed=<int>`` pins the stochastic phase to the stream
          :func:`per_source_rng` derives from ``(seed, source)`` — the
          same derivation seeded batches and the serving layer use, so
          ``query(s, m, seed=S)`` is byte-identical to the ``s`` member
          of any seeded batch (otherwise a fresh deterministic stream
          per query is derived from the engine seed);
        * ``use_index=False`` forces index-capable methods to run
          index-free; methods flagged ``index_by_default`` (SpeedPPR)
          are served from the cached walk index automatically.

        ``method="incremental"`` (engine-level, not in the registry)
        serves a tracked source from its maintained ``(p, r)`` pair,
        repairing it first when graph updates are pending; the source
        is tracked automatically on first use.
        """
        if is_incremental_method(method):
            return self._query_incremental(source, params)
        spec, merged = resolve_method(method)
        merged.update(params)
        # Fail on typo'd names before _prepare builds (and caches) any
        # expensive index on their behalf.
        spec.validate_params(merged)
        # Only the counter bump and cache sync hold the lock; parameter
        # preparation (which may trigger a lazy index build — itself
        # double-checked, built unlocked) and the solve run outside it,
        # so concurrent readers genuinely overlap.
        internal_source = self._internal_source(source)
        with self._lock:
            self._sync_caches()
            self._query_counter += 1
            counter = self._query_counter
        # Engine defaults (and seeded RNG streams) key on the caller's
        # source id; only the solve itself runs in internal ids.
        self._prepare(spec, merged, counter, source)
        result = spec.solve(self.graph, internal_source, params=merged)
        result = self._externalize_result(result, source)
        with self._lock:
            self.stats.record(result)
        return result

    def batch_query(
        self,
        sources: Iterable[int],
        method: str = "powerpush",
        *,
        block: bool | None = None,
        **params: Any,
    ) -> list[PPRResult]:
        """Answer one query per source, in order, with shared state.

        Results align with ``sources`` (``results[i].source ==
        sources[i]``).  Any required index is built once up front and
        shared.  Genuinely multi-source paths are picked automatically:
        methods with a registered block kernel (PowerPush) answer two
        or more sources in **one block solve** — a single adjacency
        scan amortised over the whole batch, with every row
        element-wise identical to its independent solve — and plain
        Monte-Carlo runs all sources' walks through one vectorised
        simulation when the graph allows it.  Everything else loops.

        ``block`` overrides the block auto-selection: ``False`` forces
        the per-source loop (benchmarks use this as the baseline),
        ``True`` insists on the block path and raises
        :class:`~repro.errors.ParameterError` when the method has no
        block kernel or the parameters (faithful mode, traces) cannot
        be batched.

        A single ``seed`` must not replay the same walk stream for
        every source, so seeded batches give each source the stream
        :func:`per_source_rng` derives from ``(seed, source)`` — the
        same derivation ``query`` applies to an explicit seed.  Keying
        on the source *id* (not the batch position) makes seeded batch
        answers a pure function of ``(seed, source)``: permuting the
        batch, splitting it, or answering a member sequentially via
        ``query(s, method, seed=seed)`` all produce byte-identical
        estimates — the contract the serving layer's request coalescing
        relies on.  (Corollary: the same source listed twice in one
        seeded batch gets the same answer twice; vary the seed for
        independent samples.)
        """
        sources = [int(s) for s in sources]
        if is_incremental_method(method):
            if block:
                raise ParameterError(
                    "method 'incremental' repairs per-engine tracker state "
                    "and has no block solver"
                )
            return [
                self.query(source, method, **params) for source in sources
            ]
        spec, merged = resolve_method(method)
        merged.update(params)
        spec.validate_params(merged)
        # Monte-Carlo's vectorised multi-source simulation is its block
        # path in spirit: block=False forces the per-source loop here
        # too, and block=True falls through to the supports_block check
        # below (montecarlo registers no block kernel), so the override
        # behaves identically regardless of batch composition.
        if (
            block is None
            and spec.name == "montecarlo"
            and not self.graph.has_dead_ends
            and merged.get("rng") is None
            and len(sources) > 1
        ):
            return self._batch_monte_carlo(sources, merged)
        batchable = self._block_batchable(merged)
        if block is None:
            block = (
                spec.supports_block and len(sources) >= 2 and batchable
            )
        elif block:
            if not spec.supports_block:
                raise ParameterError(
                    f"method {spec.name!r} has no block solver; drop "
                    f"block=True to loop per source"
                )
            if not batchable:
                raise ParameterError(
                    "these parameters cannot be batched (the block solver "
                    "is vectorised-only and does not record traces); drop "
                    "block=True to loop per source"
                )
        if block:
            return self._batch_block(sources, spec, merged)
        # query() itself resolves an explicit seed through
        # per_source_rng, so looping preserves the per-source streams.
        return [self.query(source, method, **merged) for source in sources]

    @staticmethod
    def _block_batchable(merged: Mapping[str, Any]) -> bool:
        """Whether a request's parameters can ride a block solve.

        The block kernels are the vectorised implementation and carry
        no per-solve trace state, so faithful-mode and traced requests
        must loop.
        """
        return (
            merged.get("mode", "auto") in ("auto", "vectorized")
            and merged.get("trace") is None
        )

    def _batch_block(
        self,
        sources: Sequence[int],
        spec: SolverSpec,
        merged: dict[str, Any],
    ) -> list[PPRResult]:
        """Answer a whole batch through the method's block kernel."""
        if spec.accepts("alpha"):
            merged.setdefault("alpha", self.alpha)
        if spec.accepts("dead_end_policy"):
            merged.setdefault("dead_end_policy", self.dead_end_policy)
        if spec.accepts("backend") and self.backend is not None:
            merged.setdefault("backend", self.backend)
        internal = [self._internal_source(s) for s in sources]
        with self._lock:
            self._sync_caches()
            self._query_counter += 1
            self.block_batches += 1
        results = spec.solve_block(self.graph, internal, params=merged)
        results = [
            self._externalize_result(result, source)
            for result, source in zip(results, sources)
        ]
        with self._lock:
            for result in results:
                self.stats.record(result)
        return results

    def top_k(
        self,
        source: int,
        k: int,
        method: str | None = None,
        **params: Any,
    ) -> TopKResult:
        """Top-k PPR, certified when the method's state allows it.

        With ``method=None`` runs the adaptive certified top-k driver
        (PowerPush with a tightening threshold).  With an explicit
        method, answers one query and ranks its estimate, certifying
        the set only when the residue bound separates rank ``k`` from
        rank ``k+1``.
        """
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        if method is None:
            params.setdefault("alpha", self.alpha)
            params.setdefault("dead_end_policy", self.dead_end_policy)
            if self.backend is not None:
                params.setdefault("backend", self.backend)
            answer = top_k_ppr(
                self.graph, self._internal_source(source), k, **params
            )
            if self._reorder is not None:
                # Rankings come out in internal ids; translate them (and
                # the underlying full-vector result) back.
                result = self._externalize_result(answer.result, source)
                answer = TopKResult(
                    ranking=[
                        (self._reorder.to_external(node), value)
                        for node, value in answer.ranking
                    ],
                    certified=answer.certified,
                    gap=answer.gap,
                    l1_threshold=answer.l1_threshold,
                    result=result,
                )
            with self._lock:
                self._query_counter += 1
                self.stats.record(answer.result)
            return answer
        if is_incremental_method(method):
            # A repaired pair's estimate is within sum(|r|) of pi in
            # every coordinate, so separation by more than that bound
            # certifies the set (signed residues rule out the tighter
            # pure-underestimate argument).
            return self._rank_result(self.query(source, method, **params), k)
        spec, _ = resolve_method(method)
        # The separation certificate relies on the estimate being a
        # pure push underestimate; the Monte-Carlo phase of approximate
        # methods can overestimate nodes, so their rankings are never
        # certified.
        return self._rank_result(
            self.query(source, method, **params),
            k,
            certifiable=spec.kind == "exact",
        )

    def _rank_result(
        self, result: PPRResult, k: int, *, certifiable: bool = True
    ) -> TopKResult:
        """Rank one query's estimate, certifying on residue separation."""
        ranked = result.top_k(min(k + 1, self.graph.num_nodes))
        ranking = ranked[:k]
        kth = ranked[k - 1][1] if len(ranked) >= k else 0.0
        next_value = ranked[k][1] if len(ranked) > k else 0.0
        gap = kth - next_value
        # sum(|r|) equals r_sum for the non-negative residues of the
        # push solvers and stays a valid l1 bound for the signed
        # residues of incremental repair.
        bound = (
            float(np.abs(result.residue).sum())
            if result.residue is not None
            else float("nan")
        )
        certified = certifiable and result.residue is not None and gap > bound
        return TopKResult(
            ranking=ranking,
            certified=certified,
            gap=gap,
            # NaN for residue-less methods (BePI, Monte-Carlo): no push
            # threshold exists for this ranking.
            l1_threshold=bound,
            result=result,
        )

    # -- index persistence ----------------------------------------------
    def save_indexes(self, directory: str | Path) -> Path:
        """Persist the cached walk-based indexes for a warm start.

        Writes each cached :class:`WalkIndex` (SpeedPPR's and any
        FORA+ budgets) through :mod:`repro.walks.storage` plus a
        ``manifest.json`` stamping the graph's shape and version, and
        returns the manifest path.  BePI's factorisation holds live
        scipy solver objects and is rebuilt lazily instead of
        persisted.
        """
        # Snapshot the (immutable once built) index references under
        # the lock; the multi-MB disk writes happen outside it so
        # concurrent queries never stall on a checkpoint.
        with self._lock:
            self._sync_caches()
            walk_index = self._walk_index
            fora_indexes = list(self._fora_indexes)
            graph = self.graph
            version = self.graph_version
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        indexes: list[dict[str, Any]] = []
        if walk_index is not None:
            save_walk_index(walk_index, directory / "walk.npz")
            indexes.append(
                {
                    "kind": "walk",
                    "file": "walk.npz",
                    "sha256": _sha256_file(directory / "walk.npz"),
                    "bytes": (directory / "walk.npz").stat().st_size,
                }
            )
        for built_w, index, _version in fora_indexes:
            file_name = f"fora_w{built_w}.npz"
            save_walk_index(index, directory / file_name)
            indexes.append(
                {
                    "kind": "fora",
                    "file": file_name,
                    "walk_budget": built_w,
                    "sha256": _sha256_file(directory / file_name),
                    "bytes": (directory / file_name).stat().st_size,
                }
            )
        manifest = {
            "format": _MANIFEST_FORMAT,
            "alpha": self.alpha,
            "graph": {
                "name": graph.name,
                "num_nodes": graph.num_nodes,
                "num_edges": graph.num_edges,
                # Informational; staleness is judged by the fingerprint.
                "version": version,
                "fingerprint": _graph_fingerprint(graph),
            },
            "indexes": indexes,
        }
        manifest_path = directory / _MANIFEST_NAME
        # Atomic + fsynced: a crash mid-save leaves either no manifest
        # (the directory is ignored) or a complete one whose checksums
        # vouch for every artefact it names.
        atomic_write_json(manifest_path, manifest)
        return manifest_path

    def load_indexes(self, directory: str | Path) -> int:
        """Adopt indexes saved by :meth:`save_indexes`; return how many.

        Idempotent: re-loading replaces the walk index and skips FORA
        budgets already cached (skipped entries are not counted).

        Stale artefacts are refused outright: the manifest's graph
        fingerprint (a content hash of the CSR arrays) must match the
        engine's current snapshot, and its alpha must match the
        engine's — a restarted server therefore either warm-starts
        safely (even on a re-wrapped :class:`DynamicGraph` whose
        version counter restarted at 0) or gets a clean
        :class:`~repro.errors.IndexMismatchError` and rebuilds.
        """
        directory = Path(directory)
        manifest_path = directory / _MANIFEST_NAME
        if not manifest_path.is_file():
            raise IndexMismatchError(
                f"no index manifest at {manifest_path}"
            )
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("format") != _MANIFEST_FORMAT:
            raise IndexMismatchError(
                f"unsupported index manifest format {manifest.get('format')!r}"
            )
        if manifest["alpha"] != self.alpha:
            raise IndexMismatchError(
                f"indexes saved at alpha={manifest['alpha']}, engine runs "
                f"alpha={self.alpha}"
            )
        with self._lock:
            graph = self.graph
            stamp = manifest["graph"]
            if stamp["fingerprint"] != _graph_fingerprint(graph):
                raise IndexMismatchError(
                    f"stale indexes: saved for n={stamp['num_nodes']}, "
                    f"m={stamp['num_edges']} at graph version "
                    f"{stamp['version']}; the engine's current snapshot "
                    f"(n={graph.num_nodes}, m={graph.num_edges}, "
                    f"version={self.graph_version}) has different content"
                )
            self._sync_caches()
            cached_budgets = {built_w for built_w, _, _ in self._fora_indexes}
            loaded = 0
            for entry in manifest["indexes"]:
                self._verify_index_artifact(directory, entry)
                if entry["kind"] == "walk":
                    index = load_walk_index(directory / entry["file"])
                    index.check_graph(graph)
                    self._walk_index = index
                    self._artefact_versions["walk"] = self.graph_version
                elif entry["kind"] == "fora":
                    budget = int(entry["walk_budget"])
                    if budget in cached_budgets:
                        continue  # re-loading must not duplicate entries
                    index = load_walk_index(directory / entry["file"])
                    index.check_graph(graph)
                    self._fora_indexes.append(
                        (budget, index, self.graph_version)
                    )
                    cached_budgets.add(budget)
                else:
                    raise IndexMismatchError(
                        f"unknown index kind {entry['kind']!r} in manifest"
                    )
                loaded += 1
            return loaded

    @staticmethod
    def _verify_index_artifact(
        directory: Path, entry: Mapping[str, Any]
    ) -> None:
        """Refuse a truncated or corrupted index file before loading it.

        The manifest's per-artifact size and SHA-256 are the source of
        truth: a crash that tore the ``.npz`` short, or silent bit
        rot, surfaces as a typed
        :class:`~repro.errors.IndexMismatchError` here instead of a
        numpy traceback (or a quietly wrong index) downstream.
        """
        path = directory / str(entry["file"])
        if not path.is_file():
            raise IndexMismatchError(
                f"index artefact {entry['file']!r} named by the manifest "
                f"is missing from {directory}"
            )
        expected_bytes = entry.get("bytes")
        if expected_bytes is not None and path.stat().st_size != expected_bytes:
            raise IndexMismatchError(
                f"index artefact {entry['file']!r} is "
                f"{path.stat().st_size} bytes but the manifest recorded "
                f"{expected_bytes} — truncated or partially written file"
            )
        expected_sha = entry.get("sha256")
        if expected_sha is not None:
            actual = _sha256_file(path)
            if actual != expected_sha:
                raise IndexMismatchError(
                    f"index artefact {entry['file']!r} failed its SHA-256 "
                    f"check (manifest {expected_sha[:12]}…, file "
                    f"{actual[:12]}…) — refusing corrupt index data"
                )

    # -- internals -------------------------------------------------------
    def _query_incremental(
        self, source: int, params: dict[str, Any]
    ) -> PPRResult:
        """Serve (and first repair) a tracked source's maintained pair."""
        validate_incremental_params(params)
        # Fully locked: tracker repair mutates the tracker's (p, r)
        # pair and the shared journal, so concurrent refreshes of the
        # same source must serialise.
        with self._lock:
            tracker = self._trackers.get(int(source))
            if tracker is None:
                tracker = self.track(
                    source, l1_threshold=params.get("l1_threshold", 1e-8)
                )
            elif (
                "l1_threshold" in params
                and params["l1_threshold"] != tracker.l1_threshold
            ):
                raise ParameterError(
                    f"source {source} is tracked at "
                    f"l1_threshold={tracker.l1_threshold}; untrack() and "
                    f"re-track to change it"
                )
            self._query_counter += 1
            result = tracker.refresh(trace=params.get("trace"))
            self.stats.record(result)
            # Every tracker at or past this version has replayed the
            # prefix; reclaim it so journal memory tracks pending work,
            # not lifetime updates.  (Trackers owned elsewhere that
            # fell behind the floor resync from a snapshot — see
            # IncrementalPPR.refresh.)
            assert self._dynamic is not None
            self._dynamic.trim_journal(
                min(t.version for t in self._trackers.values())
            )
            return result

    def _prepare(
        self,
        spec: SolverSpec,
        merged: dict[str, Any],
        counter: int,
        source: int,
    ) -> None:
        """Fill engine defaults and inject cached artefacts in place.

        ``counter`` is the caller's reserved query number (claimed
        under the lock) so the derived per-query stream is stable even
        when preparation itself runs unlocked.  An explicit ``seed``
        resolves through :func:`per_source_rng` — one derivation for
        single queries, batches, and the serving layer alike.
        """
        if spec.accepts("alpha"):
            merged.setdefault("alpha", self.alpha)
        if spec.accepts("dead_end_policy"):
            merged.setdefault("dead_end_policy", self.dead_end_policy)
        if spec.accepts("backend") and self.backend is not None:
            merged.setdefault("backend", self.backend)
        if spec.needs_rng and merged.get("rng") is None:
            seed = merged.pop("seed", None)
            if seed is not None:
                merged["rng"] = per_source_rng(seed, source)
            else:
                merged["rng"] = self.rng(_QUERY_SALT_BASE + counter)
        # The cached indexes are built at the engine's alpha; a query
        # that overrides alpha must not be served from them (the solver
        # would reject the mismatch — or worse, BePI would silently
        # answer at the wrong alpha).  Such queries fall back to the
        # index-free path, or build an ad-hoc index via the registry
        # adapter when the caller explicitly asked for one.
        cacheable = merged.get("alpha", self.alpha) == self.alpha
        if spec.needs_walk_index:
            use_index = merged.get("use_index")
            if use_index is None:
                use_index = (
                    cacheable
                    and spec.index_by_default
                    and not self.graph.has_dead_ends
                )
                merged["use_index"] = use_index
            if use_index and cacheable and merged.get("walk_index") is None:
                if spec.name == "speedppr":
                    merged["walk_index"] = self.walk_index()
                else:
                    merged["walk_index"] = self.fora_index(
                        merged.get("epsilon", 0.5),
                        mu=merged.get("mu"),
                        p_fail=merged.get("p_fail"),
                    )
        if (
            spec.needs_precomputation
            and cacheable
            and merged.get("bepi_index") is None
        ):
            merged["bepi_index"] = self.bepi_index()

    def _batch_monte_carlo(
        self, sources: Sequence[int], merged: dict[str, Any]
    ) -> list[PPRResult]:
        """All sources' walks in one vectorised multi-source simulation."""
        graph = self.graph
        for source in sources:
            check_source(graph, source)
        # Walks start (and dead-end-redirect) in internal ids when the
        # engine serves a reordered graph; the histograms are permuted
        # back below, and seeded streams stay keyed on external ids.
        internal_sources = [self._internal_source(s) for s in sources]
        alpha = merged.get("alpha", self.alpha)
        num_walks = merged.get("num_walks")
        if num_walks is None:
            epsilon = merged.get("epsilon", 0.5)
            mu = merged.get("mu")
            if mu is None:
                mu = default_mu(graph.num_nodes)
            p_fail = merged.get("p_fail")
            if p_fail is None:
                p_fail = default_failure_probability(graph.num_nodes)
            num_walks = chernoff_walk_count(epsilon, mu, p_fail=p_fail)
        if num_walks <= 0:
            raise ParameterError(f"num_walks must be positive, got {num_walks}")

        seed = merged.pop("seed", None)
        with self._lock:
            self._query_counter += 1
            counter = self._query_counter
        if seed is not None:
            return self._batch_monte_carlo_seeded(
                graph, sources, internal_sources, alpha, int(num_walks), seed
            )
        rng = self.rng(_QUERY_SALT_BASE + counter)
        # Simulate in source groups and reduce each group's stops to
        # per-source histograms immediately, so peak memory stays
        # bounded by _BATCH_WALK_BUDGET walks (plus the n-length count
        # vectors the caller gets anyway), not len(sources) * num_walks.
        group_size = max(1, _BATCH_WALK_BUDGET // int(num_walks))
        started = time.perf_counter()
        per_source_counts: list[np.ndarray] = []
        steps = 0
        for begin in range(0, len(sources), group_size):
            group = np.asarray(
                internal_sources[begin : begin + group_size], dtype=np.int64
            )
            group_stops, group_steps = simulate_walk_stops(
                graph, np.repeat(group, num_walks), alpha=alpha, rng=rng
            )
            steps += group_steps
            for position in range(group.shape[0]):
                segment = group_stops[
                    position * num_walks : (position + 1) * num_walks
                ]
                counts = np.bincount(segment, minlength=graph.num_nodes)
                if self._reorder is not None:
                    counts = self._reorder.restore_vector(counts)
                per_source_counts.append(counts)
        elapsed = time.perf_counter() - started

        results: list[PPRResult] = []
        share = elapsed / len(sources)
        # Wall time and walk steps are measured for the batch as a
        # whole; apportion them evenly (steps keep an exact total by
        # spreading the remainder) — the vectorised simulation has no
        # per-source measurement.
        steps_base, steps_extra = divmod(steps, len(sources))
        for position, source in enumerate(sources):
            result = PPRResult(
                estimate=per_source_counts[position].astype(np.float64)
                / num_walks,
                residue=None,
                source=int(source),
                alpha=alpha,
                counters=PushCounters(
                    random_walks=int(num_walks),
                    walk_steps=steps_base + (1 if position < steps_extra else 0),
                ),
                seconds=share,
                method="MonteCarlo",
            )
            with self._lock:
                self.stats.record(result)
            results.append(result)
        return results

    def _batch_monte_carlo_seeded(
        self,
        graph: DiGraph,
        sources: Sequence[int],
        internal_sources: Sequence[int],
        alpha: float,
        num_walks: int,
        seed: int,
    ) -> list[PPRResult]:
        """Seeded Monte-Carlo batch: one per-source stream, one sim each.

        Each source's walks come from its own :func:`per_source_rng`
        stream — exactly the stream ``monte_carlo_ppr`` would consume —
        so the batch answer is order-independent and byte-identical to
        a sequential ``query(s, seed=seed)``, at the cost of one (still
        walk-vectorised) simulation per source instead of cross-source
        grouping.  Streams key on the caller-facing source id even
        when the walks themselves run on a reordered graph.
        """
        results: list[PPRResult] = []
        for source, internal in zip(sources, internal_sources):
            started = time.perf_counter()
            stops, steps = simulate_walk_stops(
                graph,
                np.full(num_walks, internal, dtype=np.int64),
                alpha=alpha,
                source=int(internal),
                rng=per_source_rng(seed, source),
            )
            counts = np.bincount(stops, minlength=graph.num_nodes)
            if self._reorder is not None:
                counts = self._reorder.restore_vector(counts)
            result = PPRResult(
                estimate=counts.astype(np.float64) / num_walks,
                residue=None,
                source=int(source),
                alpha=alpha,
                counters=PushCounters(
                    random_walks=num_walks, walk_steps=steps
                ),
                seconds=time.perf_counter() - started,
                method="MonteCarlo",
            )
            with self._lock:
                self.stats.record(result)
            results.append(result)
        return results
