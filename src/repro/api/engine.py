"""Stateful query-serving facade: one :class:`PPREngine` per graph.

The ROADMAP's production framing — heavy query traffic against one
graph — means the expensive per-graph artefacts must outlive a single
query: SpeedPPR's eps-independent walk index, FORA+'s per-eps indexes,
and BePI's block-elimination factorisation.  ``PPREngine`` owns one
versioned cache of them and lazily builds each the first time a query
needs it::

    >>> engine = PPREngine(graph, alpha=0.2, seed=7)
    >>> engine.query(0, method="powerpush", l1_threshold=1e-8)
    >>> engine.query(0, method="speedppr", epsilon=0.3)   # builds index
    >>> engine.query(1, method="speedppr", epsilon=0.1)   # reuses it

The engine names no method.  Every request — ``query``, each member of
a ``batch_query``, a ``top_k`` with a method — runs one pipeline:
resolve the name through the solver registry, fold the engine defaults
in, claim a query number, bind the generator, inject what the resolved
:class:`~repro.api.registry.SolverSpec` *declares* it can use (a cached
artefact, the tracker of an incrementally maintained source), run the
spec's adapter, map node ids back, record stats.  A solver registered
tomorrow is served with its artefact cached and invalidated like the
built-in ones without an edit here.
``index_builds`` counts how often each artefact kind was constructed,
so tests (and operators) can assert reuse; ``engine.stats`` aggregates
instrumentation across the engine's lifetime.

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
lazy artefact builds are double-checked so even a multi-second
construction never blocks queries of other methods: readers genuinely
overlap.  The exception is a method that refreshes a tracked source:
the repair mutates the tracker and the shared update journal and
therefore holds the lock for the whole request — incremental refreshes
serialise against everything.  Mixing queries with ``apply_updates``
from different threads additionally needs the *graph* transition
serialised against in-flight reads; use
:class:`repro.serving.EngineServer`, which wraps the engine in a
readers-writer lock (plus a versioned result cache and single-flight
table), instead of hand-rolling that.
"""

from __future__ import annotations

import json
import threading
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, Mapping

import numpy as np

from repro.api.registry import (
    BEPI_INDEX,
    FORA_INDEX,
    WALK_INDEX,
    ArtefactSpec,
    SolverSpec,
    declared_artefacts,
    per_source_rng,
    resolve_method,
)
from repro.bepi.blockelim import BePIIndex
from repro.core.incremental import IncrementalPPR
from repro.core.result import PPRResult
from repro.core.topk import TopKResult, top_k_ppr
from repro.core.validation import check_source
from repro.durability.atomic import atomic_write_json
from repro.durability.checkpoint import graph_fingerprint, sha256_file
from repro.errors import IndexMismatchError, ParameterError
from repro.graph.digraph import DiGraph
from repro.graph.dynamic import DynamicGraph
from repro.graph.transforms import ReorderResult, reorder_for_locality
from repro.instrumentation.counters import PushCounters
from repro.walks.index import WalkIndex
from repro.walks.storage import load_walk_index, save_walk_index

__all__ = [
    "PPREngine",
    "EngineStats",
    "MethodStats",
    "per_source_rng",
]

#: File name of the index-persistence manifest written by save_indexes.
_MANIFEST_NAME = "manifest.json"
# Format 2 added per-artifact SHA-256 checksums (load_indexes refuses
# truncated or bit-rotted index files instead of trusting stamps).
_MANIFEST_FORMAT = 2

#: rng-stream salt base of the per-query generators; chosen to match the
#: historical Workspace streams so experiment artefacts are
#: bit-identical across the refactor.
_QUERY_SALT_BASE = 10_000


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
        #: the one artefact cache: (kind, key) -> (artefact, graph
        #: version it was built or adopted at), in insertion order
        self._artefacts: dict[tuple[str, Hashable], tuple[Any, int]] = {}
        for decl, adopted in ((WALK_INDEX, walk_index), (BEPI_INDEX, bepi_index)):
            if adopted is not None:
                self._artefacts[(decl.kind, None)] = (adopted, self.graph_version)
        #: how many times each artefact kind was built (tests assert reuse)
        self.index_builds: dict[str, int] = Counter(
            dict.fromkeys(declared_artefacts(), 0)
        )
        #: stale artefacts dropped after graph-version changes
        self.index_invalidations: dict[str, int] = Counter(self.index_builds)
        self._trackers: dict[int, IncrementalPPR] = {}
        self.stats = EngineStats()
        #: always 0 (every batch loops); benchmarks/e2e/layers.py reads it
        self.block_batches = 0
        self._query_counter = 0
        #: serialises every mutation of engine state (artefact cache,
        #: trackers, stats, counter) so concurrent queries are safe;
        #: re-entrant because artefact accessors nest under query().
        self._lock = threading.RLock()
        #: optional DurabilityManager flushed before apply_updates acks
        self._durability: Any | None = None

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
        caller excludes concurrent queries (a shard attaches between
        solves).
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
        """Map a checked caller-facing source id into the served graph.

        Node counts agree, so the id the caller's entry point checked
        against the served snapshot is valid in both labellings.
        """
        if self._reorder is None:
            return source
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

    # -- the one versioned artefact cache --------------------------------
    def rng(self, salt: int = 0) -> np.random.Generator:
        """Deterministic generator derived from the engine seed."""
        return np.random.default_rng(self.seed * 1_000_003 + salt)

    def _sync_caches(self) -> None:
        """Drop artefacts built at a graph version older than current."""
        version = self.graph_version
        stale = [
            slot
            for slot, (_, built_at) in self._artefacts.items()
            if built_at != version
        ]
        for slot in stale:
            del self._artefacts[slot]
            self.index_invalidations[slot[0]] += 1

    def _artefact(
        self,
        decl: ArtefactSpec,
        params: Mapping[str, Any],
        *,
        exact: bool = False,
    ) -> Any:
        """The artefact ``decl`` declares for ``params``: cached, or built.

        Among the cached keys that serve the request the smallest wins;
        ``exact=True`` only reuses one built for exactly the wanted
        key.  The build itself runs *outside* the engine lock
        (double-checked on re-entry), so a multi-second construction
        never stalls concurrent queries of other methods.  Duplicate
        concurrent builds are harmless: both consume the same
        deterministic stream (``rng(decl.salt)``), so whichever lands
        is identical.
        """
        built, built_at = None, None
        while True:
            with self._lock:
                self._sync_caches()
                version = self.graph_version
                graph = self.graph
                wanted = decl.key(graph, params)
                serving = [
                    (key, artefact)
                    for (kind, key), (artefact, _) in self._artefacts.items()
                    if kind == decl.kind
                    and (key == wanted if exact else decl.serves(key, wanted))
                ]
                if serving:
                    return min(serving, key=lambda entry: entry[0])[1]
                if built_at == version:
                    self._artefacts[(decl.kind, wanted)] = (built, version)
                    self.index_builds[decl.kind] += 1
                    return built
            # First pass, or the graph moved mid-build: build for the
            # version just seen and re-check on re-entry.
            built = decl.build(
                graph, params, alpha=self.alpha, rng=self.rng(decl.salt)
            )
            built_at = version

    def walk_index(self) -> WalkIndex:
        """SpeedPPR's eps-independent walk index (built once, cached)."""
        return self._artefact(WALK_INDEX, {})

    def bepi_index(self) -> BePIIndex:
        """BePI's block-elimination preprocessing (built once, cached)."""
        return self._artefact(BEPI_INDEX, {})

    def fora_index(
        self,
        epsilon: float,
        *,
        mu: float | None = None,
        p_fail: float | None = None,
        exact: bool = False,
    ) -> WalkIndex:
        """FORA+'s contract-dependent index (cached by walk budget W).

        A query reuses the smallest sufficient index already built (see
        :data:`~repro.api.registry.FORA_INDEX`).  ``exact=True`` only
        reuses an index built for exactly this budget — for
        measurements (Table 2) that must report the size of *this*
        contract's index, not a larger one that happens to serve it.
        """
        contract = {"epsilon": epsilon, "mu": mu, "p_fail": p_fail}
        return self._artefact(FORA_INDEX, contract, exact=exact)

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
          index-free; SpeedPPR is served from the cached walk index
          automatically (its declaration wants it by default).

        ``method="incremental"`` serves a tracked source from its
        maintained ``(p, r)`` pair, repairing it first when graph
        updates are pending; the source is tracked automatically on
        first use.
        """
        spec, merged = self._resolve(method, params)
        return self._solve(spec, merged, check_source(self.graph, source))

    def batch_query(
        self,
        sources: Iterable[int],
        method: str = "powerpush",
        **params: Any,
    ) -> list[PPRResult]:
        """Answer one query per source, in order, with shared state.

        Results align with ``sources`` (``results[i].source ==
        sources[i]``).  Any required artefact is built once and shared;
        each source is one independent solve, exactly what ``query``
        runs (for PowerPush a loop is the fastest measured batch;
        README, "Why PowerPush has no block path").

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
        spec, merged = self._resolve(method, params)
        return [
            self._solve(spec, dict(merged), check_source(self.graph, s))
            for s in sources
        ]

    def _fold_defaults(
        self,
        params: dict[str, Any],
        accepts: Callable[[str], bool] = lambda name: True,
    ) -> None:
        """Fill the engine-level defaults a request left open."""
        for name in ("alpha", "dead_end_policy"):
            if accepts(name):
                params.setdefault(name, getattr(self, name))

    def _resolve(
        self, method: str, params: Mapping[str, Any]
    ) -> tuple[SolverSpec, dict[str, Any]]:
        """Resolve and validate one request, engine defaults folded in.

        Runs once per request (a batch is one request) and before
        anything is built, so a typo'd name never costs an index.
        """
        spec, merged = resolve_method(method)
        merged.update(params)
        spec.validate_params(merged)
        self._fold_defaults(merged, spec.accepts)
        return spec, merged

    def _solve(
        self,
        spec: SolverSpec,
        merged: dict[str, Any],
        source: int,
    ) -> PPRResult:
        """The one request pipeline: one solve of a resolved request.

        Only the counter claim, the cache sweep and the stats record
        hold the lock; artefact injection (which may trigger a build —
        double-checked, built unlocked) and the solve run outside it,
        so concurrent readers genuinely overlap.  A tracker refresh
        mutates the tracker's ``(p, r)`` pair and the shared journal,
        so a tracked request holds the (re-entrant) lock throughout.
        The query number is claimed under the lock so the per-query
        stream derived from it is stable; streams and engine defaults
        key on the caller's source ids, only the solve itself runs in
        internal ids.
        """
        internal = self._internal_source(source)
        with self._lock if spec.tracked else nullcontext():
            if spec.tracked:
                tracker = self._trackers.get(source)
                if tracker is None:
                    # Tracked on first use; track() refuses a static graph.
                    tracker = self.track(
                        source,
                        l1_threshold=merged.get("l1_threshold", 1e-8),
                    )
                merged["tracker"] = tracker
            with self._lock:
                self._sync_caches()
                self._query_counter += 1
                counter = self._query_counter
            spec.bind_rng(
                merged,
                source,
                lambda: self.rng(_QUERY_SALT_BASE + counter),
            )
            self._inject(spec.artefact, merged)
            result = self._externalize_result(
                spec.fn(self.graph, internal, **merged), source
            )
            with self._lock:
                self.stats.record(result)
                if spec.tracked:
                    # Every tracker at or past this version has replayed
                    # the prefix; reclaim it so journal memory tracks
                    # pending work, not lifetime updates.  (Trackers
                    # owned elsewhere that fell behind the floor resync
                    # from a snapshot — see IncrementalPPR.refresh.)
                    assert self._dynamic is not None
                    self._dynamic.trim_journal(
                        min(t.version for t in self._trackers.values())
                    )
        return result

    def _inject(
        self, decl: ArtefactSpec | None, merged: dict[str, Any]
    ) -> None:
        """Serve the request from the declared artefact, if it wants it.

        The cache is built at the engine's alpha; a query that
        overrides alpha must not be served from it (the solver would
        reject the mismatch — or worse, BePI would silently answer at
        the wrong alpha).  Such queries fall back to the artefact-free
        path, or build ad hoc via the registry adapter when the caller
        explicitly asked for an index.
        """
        if (
            decl is not None
            and merged.get("alpha", self.alpha) == self.alpha
            and merged.get(decl.param) is None
            and decl.wanted(self.graph, merged)
        ):
            merged[decl.param] = self._artefact(decl, merged)

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
        source = check_source(self.graph, source)
        if method is None:
            self._fold_defaults(params)
            answer = top_k_ppr(
                self.graph, self._internal_source(source), k, **params
            )
            if self._reorder is not None:
                # Rankings come out in internal ids; translate them (and
                # the underlying full-vector result) back.
                answer = replace(
                    answer,
                    ranking=[
                        (self._reorder.to_external(node), value)
                        for node, value in answer.ranking
                    ],
                    result=self._externalize_result(answer.result, source),
                )
            with self._lock:
                self._query_counter += 1
                self.stats.record(answer.result)
            return answer
        spec, merged = self._resolve(method, params)
        # The separation certificate relies on the estimate being
        # within the residue bound of pi in every coordinate; the
        # Monte-Carlo phase of approximate methods can overestimate
        # nodes, so their rankings are never certified.
        return self._rank_result(
            self._solve(spec, merged, source),
            k,
            certifiable=spec.kind == "exact",
        )

    def _rank_result(
        self, result: PPRResult, k: int, *, certifiable: bool
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

        Writes each cached artefact whose declaration is ``stored``
        (SpeedPPR's :class:`WalkIndex` and any FORA+ budgets) through
        :mod:`repro.walks.storage` plus a ``manifest.json`` stamping
        the graph's shape and version, and returns the manifest path.
        BePI's factorisation holds live scipy solver objects and is
        rebuilt lazily instead of persisted.
        """
        # Snapshot the (immutable once built) artefact references under
        # the lock; the multi-MB disk writes happen outside it so
        # concurrent queries never stall on a checkpoint.
        with self._lock:
            self._sync_caches()
            cached = list(self._artefacts.items())
            graph = self.graph
            version = self.graph_version
        declared = declared_artefacts()
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        indexes: list[dict[str, Any]] = []
        for (kind, key), (artefact, _) in cached:
            if kind not in declared or not declared[kind].stored:
                continue
            entry: dict[str, Any] = {"kind": kind}
            if key is None:
                entry["file"] = f"{kind}.npz"
            else:
                entry["file"] = f"{kind}_w{key}.npz"
                entry["walk_budget"] = key
            save_walk_index(artefact, directory / entry["file"])
            entry["sha256"] = sha256_file(directory / entry["file"])
            entry["bytes"] = (directory / entry["file"]).stat().st_size
            indexes.append(entry)
        manifest = {
            "format": _MANIFEST_FORMAT,
            "alpha": self.alpha,
            "graph": {
                "name": graph.name,
                "num_nodes": graph.num_nodes,
                "num_edges": graph.num_edges,
                # Informational; staleness is judged by the fingerprint.
                "version": version,
                "fingerprint": graph_fingerprint(graph),
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
        declared = declared_artefacts()
        with self._lock:
            graph = self.graph
            stamp = manifest["graph"]
            if stamp["fingerprint"] != graph_fingerprint(graph):
                raise IndexMismatchError(
                    f"stale indexes: saved for n={stamp['num_nodes']}, "
                    f"m={stamp['num_edges']} at graph version "
                    f"{stamp['version']}; the engine's current snapshot "
                    f"(n={graph.num_nodes}, m={graph.num_edges}, "
                    f"version={self.graph_version}) has different content"
                )
            self._sync_caches()
            loaded = 0
            for entry in manifest["indexes"]:
                self._verify_index_artifact(directory, entry)
                kind = entry["kind"]
                if kind not in declared or not declared[kind].stored:
                    raise IndexMismatchError(
                        f"unknown index kind {kind!r} in manifest"
                    )
                key = entry.get("walk_budget")
                slot = (kind, None if key is None else int(key))
                if key is not None and slot in self._artefacts:
                    continue  # re-loading must not duplicate entries
                index = load_walk_index(directory / entry["file"])
                index.check_graph(graph)
                self._artefacts[slot] = (index, self.graph_version)
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
            actual = sha256_file(path)
            if actual != expected_sha:
                raise IndexMismatchError(
                    f"index artefact {entry['file']!r} failed its SHA-256 "
                    f"check (manifest {expected_sha[:12]}…, file "
                    f"{actual[:12]}…) — refusing corrupt index data"
                )
