"""Solver registry: every SSPPR algorithm behind one ``solve`` protocol.

The paper's thesis is that one framework unifies the global and local
approaches to PPR — this module is that thesis as an API, and the only
module that knows a method.  Every algorithm in the library registers a
:class:`SolverSpec` carrying

* a canonical **name** plus **aliases** (``repro-ppr query --method
  fwdpush`` and ``--method fifo-fwdpush`` hit the same solver), all
  resolved case- and separator-insensitively;
* its **kind** (``"exact"`` high-precision vs ``"approx"``) and a
  unified **parameter schema** drawn from one shared namespace
  (``alpha``, ``l1_threshold``, ``epsilon``, ``seed`` …), so callers
  never need to know per-function signatures;
* what a :class:`~repro.api.engine.PPREngine` may do on its behalf,
  *declared* rather than known by name: the per-graph **artefact** to
  build once, cache and inject (:class:`ArtefactSpec` — which kind,
  under which parameter, how it is keyed and built, which built key
  serves a request), and whether the method refreshes a **tracked**
  source's maintained pair.  The engine reads these declarations and
  contains no ``if method == …``.

Dispatch is uniform::

    >>> from repro.api import get_solver
    >>> spec = get_solver("powitr")          # or "power-iteration", "PI"
    >>> result = spec.solve(graph, 0, params={"l1_threshold": 1e-8})

Adding an algorithm is a one-call registration —
:func:`register_solver` — after which it is automatically available to
``PPREngine.query``, the CLI, and the experiment harness.

**Variant aliases** may imply parameters: ``"fora+"`` resolves to the
``fora`` spec with ``use_index=True`` pre-set, mirroring how the paper
treats FORA+ as FORA with a pre-computed walk index.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Mapping

import numpy as np

from repro.baselines.fora import fora
from repro.baselines.resacc import resacc
from repro.core.fifo_fwdpush import fifo_forward_push
from repro.core.power_iteration import power_iteration
from repro.core.powerpush import power_push
from repro.core.speedppr import speed_ppr
from repro.core.result import PPRResult
from repro.errors import ParameterError, UnknownMethodError
from repro.graph.digraph import DiGraph
from repro.montecarlo.chernoff import (
    chernoff_walk_count,
    default_failure_probability,
    default_mu,
)
from repro.montecarlo.mc import monte_carlo_ppr
from repro.walks.index import (
    WalkIndex,
    build_walk_index,
    fora_plus_walk_counts,
    speedppr_walk_counts,
)

__all__ = [
    "ParamSpec",
    "ArtefactSpec",
    "SolverSpec",
    "per_source_rng",
    "register_solver",
    "get_solver",
    "resolve_method",
    "canonical_method_name",
    "solver_names",
    "solver_specs",
    "declared_artefacts",
    "solve",
    "build_speedppr_index",
    "build_fora_index",
    "WALK_INDEX",
    "FORA_INDEX",
    "BEPI_INDEX",
]


def per_source_rng(seed: int, source: int) -> np.random.Generator:
    """The RNG stream an explicit ``seed`` yields for ``source``.

    One independent stream per *source id* —
    ``default_rng(SeedSequence([seed, source]))`` — never per batch
    position, so the answer a source gets under a fixed seed does not
    depend on where it sits in a batch or on which other sources ride
    along (the property the serving layer's coalescing relies on).
    Every seeded path resolves through this one derivation —
    ``solve(g, s, m, seed=S)``, ``PPREngine.query(s, m, seed=S)``, any
    seeded batch member, and a served answer under seed ``S`` are
    byte-identical.
    """
    if seed < 0 or source < 0:
        raise ParameterError(
            f"per-source streams need non-negative seed/source, got "
            f"seed={seed}, source={source}"
        )
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), int(source)])
    )


# ---------------------------------------------------------------------------
# Parameter schema
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamSpec:
    """One named parameter of the unified query-parameter namespace."""

    name: str
    description: str


#: The shared parameter namespace.  Every solver's schema is a subset.
PARAMS: dict[str, ParamSpec] = {
    spec.name: spec
    for spec in (
        ParamSpec("alpha", "teleport probability (paper default 0.2)"),
        ParamSpec("l1_threshold", "l1-error bound lambda (exact methods)"),
        ParamSpec("r_max", "per-degree push threshold (push methods)"),
        ParamSpec("epsilon", "relative-error bound (approx methods)"),
        ParamSpec("mu", "relative-error floor; defaults to 1/n"),
        ParamSpec("p_fail", "failure probability; defaults to 1/n"),
        ParamSpec("num_walks", "explicit Monte-Carlo walk count W"),
        ParamSpec("seed", "integer seed for the stochastic phase"),
        ParamSpec("rng", "numpy Generator (overrides seed)"),
        ParamSpec("walk_index", "pre-computed WalkIndex (FORA+/SpeedPPR-Index)"),
        ParamSpec("use_index", "build/use a walk index when none is supplied"),
        ParamSpec("bepi_index", "pre-computed BePIIndex"),
        ParamSpec("delta", "BePI's Schur-iteration convergence parameter"),
        ParamSpec("config", "PowerPushConfig tuning knobs"),
        ParamSpec("dead_end_policy", "dead-end handling rule"),
        ParamSpec("trace", "ConvergenceTrace to record into"),
        ParamSpec("max_iterations", "safety cap on iterations"),
        ParamSpec("max_sweeps", "safety cap on vectorised sweeps"),
        ParamSpec("max_inner_iterations", "cap on BePI's Schur iterations"),
        ParamSpec("allow_monte_carlo_shortcut", "paper's m >= W fallback"),
    )
}


# ---------------------------------------------------------------------------
# Solver specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ArtefactSpec:
    """A per-graph artefact a :class:`~repro.api.engine.PPREngine` may
    build once, cache by graph version, and inject into requests.

    Attributes
    ----------
    kind:
        Cache namespace, and the key of the engine's ``index_builds`` /
        ``index_invalidations`` counters.  Specs that share a
        declaration (FORA and ResAcc) share the cached artefacts.
    param:
        Parameter name the artefact is injected under.
    build:
        ``build(graph, params, *, alpha, rng) -> artefact``; ``rng`` is
        the engine-seed stream number ``salt``.
    key:
        ``key(graph, params)``: the cache key a request needs (default:
        one artefact per graph version).
    serves:
        ``serves(built_key, wanted_key)``: whether an already-built key
        answers a request wanting ``wanted_key`` (default: equality).
        The smallest serving key wins.
    wanted:
        ``wanted(graph, params)``: whether this request is to be served
        from the artefact at all (default: always).
    stored:
        The artefact is a :class:`~repro.walks.index.WalkIndex` that
        ``save_indexes`` / ``load_indexes`` persist.
    """

    kind: str
    param: str
    build: Callable[..., Any]
    key: Callable[[DiGraph, Mapping[str, Any]], Hashable] = (
        lambda graph, params: None
    )
    serves: Callable[[Any, Any], bool] = operator.eq
    wanted: Callable[[DiGraph, Mapping[str, Any]], bool] = (
        lambda graph, params: True
    )
    salt: int = 0
    stored: bool = False


@dataclass(frozen=True)
class SolverSpec:
    """One registered SSPPR algorithm behind the common protocol.

    Attributes
    ----------
    name:
        Canonical method name (also the normalisation target of every
        alias).
    aliases:
        Alternative spellings accepted anywhere a method name is.
    kind:
        ``"exact"`` (high-precision, deterministic contract) or
        ``"approx"`` (relative-error contract).
    summary:
        One-line human description for ``repro-ppr list``.
    params:
        Names from :data:`PARAMS` this solver accepts.
    fn:
        Adapter ``fn(graph, source, **params) -> PPRResult``.
    needs_rng:
        The solver consumes randomness; ``seed`` is translated to a
        ``numpy`` Generator when no ``rng`` is passed.
    artefact:
        The per-graph artefact an engine may cache and inject on this
        solver's behalf (SpeedPPR's eps-independent walk index, FORA+'s
        per-budget indexes, BePI's factorisation), or ``None``.
        Registry-direct calls build it ad hoc in the adapter instead.
    tracked:
        The adapter refreshes the :class:`~repro.core.incremental.
        IncrementalPPR` an engine maintains for the source: the engine
        injects it as ``tracker=`` and runs the adapter under its lock
        (a refresh mutates state shared with the update journal).
    """

    name: str
    aliases: tuple[str, ...]
    kind: str
    summary: str
    params: tuple[str, ...]
    fn: Callable[..., PPRResult] = field(repr=False, compare=False, default=None)
    needs_rng: bool = False
    artefact: ArtefactSpec | None = None
    tracked: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "approx"):
            raise ParameterError(
                f"solver kind must be 'exact' or 'approx', got {self.kind!r}"
            )
        unknown = [p for p in self.params if p not in PARAMS]
        if unknown:
            raise ParameterError(
                f"solver {self.name!r} declares parameters outside the "
                f"unified schema: {unknown}"
            )
        if not callable(self.fn):
            raise ParameterError(
                f"solver {self.name!r} needs a callable fn adapter"
            )

    def accepts(self, param: str) -> bool:
        """Whether ``param`` belongs to this solver's schema."""
        return param in self.params

    def validate_params(self, params: Mapping[str, Any]) -> None:
        """Raise :class:`ParameterError` on names outside the schema."""
        unknown = sorted(set(params) - set(self.params))
        if unknown:
            raise ParameterError(
                f"method {self.name!r} does not accept parameter(s) "
                f"{', '.join(unknown)}; accepted: {', '.join(self.params)}"
            )

    def bind_rng(
        self,
        params: dict[str, Any],
        source: int,
        unseeded: Callable[[], np.random.Generator] = np.random.default_rng,
    ) -> None:
        """Resolve ``seed`` / ``rng`` in place for one solve.

        The one place a request's generator is chosen.  An explicit
        ``rng`` wins; an explicit ``seed`` resolves through
        :func:`per_source_rng`, so registry-direct, engine and served
        answers match byte for byte; otherwise ``unseeded()`` supplies
        the stream (the engine passes its per-query derivation).
        """
        seed = params.pop("seed", None)
        if not self.needs_rng or params.get("rng") is not None:
            return
        if seed is None:
            params["rng"] = unseeded()
        else:
            params["rng"] = per_source_rng(seed, source)

    def solve(
        self,
        graph: DiGraph,
        source: int,
        *,
        params: Mapping[str, Any] | None = None,
        **kwargs: Any,
    ) -> PPRResult:
        """Answer one SSPPR query through the unified protocol.

        Parameters may be passed as a mapping, as keywords, or both
        (keywords win).  Unknown parameters raise
        :class:`~repro.errors.ParameterError`; a ``seed`` is converted
        to a ``numpy`` Generator for stochastic solvers
        (:meth:`bind_rng`).
        """
        merged: dict[str, Any] = dict(params or {})
        merged.update(kwargs)
        self.validate_params(merged)
        self.bind_rng(merged, source)
        return self.fn(graph, source, **merged)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, SolverSpec] = {}
#: normalised alias -> (canonical name, implied parameter overrides)
_ALIASES: dict[str, tuple[str, dict[str, Any]]] = {}
#: alias spellings as registered, for error messages and listings
_DISPLAY_NAMES: set[str] = set()


def _normalize(name: str) -> str:
    """Case- and separator-insensitive canonical form of a method name."""
    return name.strip().lower().replace("-", "").replace("_", "").replace(" ", "")


def register_solver(
    spec: SolverSpec,
    *,
    variants: Mapping[str, Mapping[str, Any]] | None = None,
) -> SolverSpec:
    """Register ``spec`` under its name, aliases, and variant aliases.

    ``variants`` maps extra aliases to implied parameter overrides,
    e.g. ``{"fora+": {"use_index": True}}``.  Re-registering a taken
    name or alias raises :class:`~repro.errors.ParameterError`.
    """
    if spec.name in _REGISTRY:
        raise ParameterError(f"solver {spec.name!r} is already registered")
    keys = [spec.name, *spec.aliases]
    for alias, overrides in (variants or {}).items():
        keys.append(alias)
    seen: set[str] = set()
    for key in keys:
        norm = _normalize(key)
        if norm in seen:
            raise ParameterError(
                f"solver {spec.name!r} registers the spelling {key!r} twice"
            )
        seen.add(norm)
        if norm in _ALIASES:
            raise ParameterError(
                f"method name {key!r} already registered for "
                f"{_ALIASES[norm][0]!r}"
            )
    _REGISTRY[spec.name] = spec
    _ALIASES[_normalize(spec.name)] = (spec.name, {})
    for alias in spec.aliases:
        _ALIASES[_normalize(alias)] = (spec.name, {})
    for alias, overrides in (variants or {}).items():
        _ALIASES[_normalize(alias)] = (spec.name, dict(overrides))
    _DISPLAY_NAMES.update(key.lower() for key in keys)
    return spec


def resolve_method(name: str) -> tuple[SolverSpec, dict[str, Any]]:
    """Resolve a method name/alias to ``(spec, implied parameters)``.

    Raises :class:`~repro.errors.UnknownMethodError` (listing every
    valid spelling) when nothing matches.
    """
    entry = _ALIASES.get(_normalize(name))
    if entry is None:
        raise UnknownMethodError(name, solver_names(include_aliases=True))
    canonical, implied = entry
    return _REGISTRY[canonical], dict(implied)


def get_solver(name: str) -> SolverSpec:
    """The :class:`SolverSpec` registered under ``name`` (or an alias)."""
    spec, _ = resolve_method(name)
    return spec


def canonical_method_name(name: str) -> str:
    """Normalise any accepted spelling to the canonical method name."""
    spec, _ = resolve_method(name)
    return spec.name


def solver_names(include_aliases: bool = False) -> list[str]:
    """Registered canonical names (plus aliases when asked), sorted.

    Aliases are reported as registered (lower-cased), not in their
    normalised lookup form.
    """
    if not include_aliases:
        return sorted(_REGISTRY)
    return sorted(_DISPLAY_NAMES)


def solver_specs() -> list[SolverSpec]:
    """Every registered spec, sorted by canonical name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def declared_artefacts() -> dict[str, ArtefactSpec]:
    """Every artefact declaration a registered spec carries, by kind."""
    return {
        spec.artefact.kind: spec.artefact
        for spec in solver_specs()
        if spec.artefact is not None
    }


def solve(
    graph: DiGraph, source: int, method: str = "powerpush", **params: Any
) -> PPRResult:
    """One-shot dispatch: resolve ``method`` and answer the query.

    Stateless convenience for scripts; query-serving code should hold a
    :class:`~repro.api.engine.PPREngine` so indexes are reused.
    """
    spec, implied = resolve_method(method)
    implied.update(params)
    return spec.solve(graph, source, params=implied)


# ---------------------------------------------------------------------------
# Per-graph artefacts: builders, and what an engine may cache of them
# ---------------------------------------------------------------------------

def build_speedppr_index(
    graph: DiGraph,
    *,
    alpha: float = 0.2,
    rng: np.random.Generator,
) -> WalkIndex:
    """SpeedPPR's eps-independent walk index (``K_v = d_v``)."""
    return build_walk_index(
        graph,
        speedppr_walk_counts(graph),
        alpha=alpha,
        policy="speedppr",
        rng=rng,
    )


def _fora_walk_budget(graph: DiGraph, params: Mapping[str, Any]) -> int:
    """The Chernoff walk budget ``W`` a FORA+ contract needs."""
    mu = params.get("mu")
    if mu is None:
        mu = default_mu(graph.num_nodes)
    p_fail = params.get("p_fail")
    if p_fail is None:
        p_fail = default_failure_probability(graph.num_nodes)
    return chernoff_walk_count(params.get("epsilon", 0.5), mu, p_fail=p_fail)


def build_fora_index(
    graph: DiGraph,
    epsilon: float,
    *,
    alpha: float = 0.2,
    mu: float | None = None,
    p_fail: float | None = None,
    rng: np.random.Generator,
) -> WalkIndex:
    """FORA+'s eps-dependent walk index, sized for ``epsilon``."""
    num_walks_w = _fora_walk_budget(
        graph, {"epsilon": epsilon, "mu": mu, "p_fail": p_fail}
    )
    return build_walk_index(
        graph,
        fora_plus_walk_counts(graph, num_walks_w),
        alpha=alpha,
        policy="fora+",
        rng=rng,
    )


def _index_wanted(by_default: bool) -> Callable[..., bool]:
    """``wanted`` rule of the walk indexes: an explicit ``use_index``
    decides; otherwise ``by_default`` does, on graphs whose walks never
    need the dead-end redirect an index cannot replay."""

    def wanted(graph: DiGraph, params: Mapping[str, Any]) -> bool:
        use_index = params.get("use_index")
        if use_index is None:
            return by_default and not graph.has_dead_ends
        return bool(use_index)

    return wanted


#: rng-stream salts of the two walk indexes match the historical
#: Workspace streams, so experiment artefacts stay bit-identical.
WALK_INDEX = ArtefactSpec(
    kind="walk",
    param="walk_index",
    build=lambda graph, params, *, alpha, rng: build_speedppr_index(
        graph, alpha=alpha, rng=rng
    ),
    # eps-independent, so serving from it by default is free.
    wanted=_index_wanted(True),
    salt=1,
    stored=True,
)

#: FORA+'s index is fully determined by its contract's walk budget
#: ``W``, and one built for ``W1 >= W2`` also serves ``W2`` (per-node
#: counts are monotone in ``W``): building at the smallest eps and
#: reusing for larger ones — the paper's protocol — falls out, and a
#: tighter ``mu`` / ``p_fail`` gets a fresh, larger build.
FORA_INDEX = ArtefactSpec(
    kind="fora",
    param="walk_index",
    build=lambda graph, params, *, alpha, rng: build_fora_index(
        graph,
        params.get("epsilon", 0.5),
        alpha=alpha,
        mu=params.get("mu"),
        p_fail=params.get("p_fail"),
        rng=rng,
    ),
    key=_fora_walk_budget,
    serves=operator.ge,
    wanted=_index_wanted(False),
    salt=2,
    stored=True,
)


def _build_bepi_index(graph: DiGraph, params, *, alpha: float, rng):
    # Imported here: BePI is the only solver that needs scipy.
    from repro.bepi.blockelim import build_bepi_index

    return build_bepi_index(graph, alpha=alpha)


#: BePI's factorisation holds live scipy solver objects: cached, never
#: persisted.
BEPI_INDEX = ArtefactSpec(kind="bepi", param="bepi_index", build=_build_bepi_index)


# ---------------------------------------------------------------------------
# Adapters: unified schema -> concrete signatures
# ---------------------------------------------------------------------------

_EXACT_COMMON = ("alpha", "l1_threshold", "dead_end_policy", "trace")


def _with_optional_index(
    solver: Callable[..., PPRResult],
    artefact: ArtefactSpec,
) -> Callable[..., PPRResult]:
    """Wrap an approx solver so ``use_index=True`` builds a missing index.

    Registry-direct calls pay the build every time — the
    :class:`~repro.api.engine.PPREngine` injects its cached index
    instead, which is the whole point of holding an engine.
    """

    def adapter(
        graph: DiGraph,
        source: int,
        *,
        use_index: bool = False,
        walk_index: WalkIndex | None = None,
        **params,
    ) -> PPRResult:
        if use_index and walk_index is None:
            walk_index = artefact.build(
                graph,
                params,
                alpha=params.get("alpha", 0.2),
                rng=params.get("rng") or np.random.default_rng(0),
            )
        if walk_index is not None:
            # The index replaces the live walk phase.  A generator left
            # in the call would arm the solvers' m >= W Monte-Carlo
            # shortcut (gated on ``rng is not None``) and silently
            # bypass the index the caller asked for.
            params.pop("rng", None)
        return solver(graph, source, walk_index=walk_index, **params)

    return adapter


def _solve_bepi(
    graph: DiGraph,
    source: int,
    *,
    alpha: float = 0.2,
    bepi_index=None,
    delta: float = 1e-8,
    l1_threshold: float | None = None,
    max_inner_iterations: int = 10_000,
) -> PPRResult:
    """BePI; builds the block-elimination index ad hoc when not given.

    ``l1_threshold`` is accepted as a synonym for ``delta`` so exact
    methods can be swapped freely (the paper notes BePI's Delta is
    *not* a true l1 bound — the harness measures that separately).
    """
    from repro.bepi import bepi_query, build_bepi_index

    if l1_threshold is not None:
        delta = l1_threshold
    if bepi_index is None:
        bepi_index = build_bepi_index(graph, alpha=alpha)
    return bepi_query(
        graph,
        bepi_index,
        source,
        delta=delta,
        max_inner_iterations=max_inner_iterations,
    )


def _solve_incremental(
    graph: DiGraph,
    source: int,
    *,
    tracker=None,
    l1_threshold: float | None = None,
    trace=None,
) -> PPRResult:
    """Serve a tracked source's maintained ``(p, r)`` pair, repairing it
    first when graph updates are pending."""
    if tracker is None:
        raise ParameterError(
            "method 'incremental' repairs the pair a PPREngine maintains "
            "for a tracked source; query it through an engine built on a "
            "repro.graph.DynamicGraph"
        )
    if l1_threshold is not None and l1_threshold != tracker.l1_threshold:
        raise ParameterError(
            f"source {source} is tracked at "
            f"l1_threshold={tracker.l1_threshold}; untrack() and "
            f"re-track to change it"
        )
    return tracker.refresh(trace=trace)


# ---------------------------------------------------------------------------
# Built-in registrations
# ---------------------------------------------------------------------------

_APPROX_COMMON = (
    "alpha",
    "epsilon",
    "mu",
    "p_fail",
    "seed",
    "rng",
    "dead_end_policy",
)


def _register_builtin_solvers() -> None:
    register_solver(
        SolverSpec(
            name="powerpush",
            aliases=("pp", "algo3"),
            kind="exact",
            summary="PowerPush (Algorithm 3): power iteration with forward push",
            params=(*_EXACT_COMMON, "config"),
            fn=power_push,
        )
    )
    register_solver(
        SolverSpec(
            name="powitr",
            aliases=("power-iteration", "powiter", "pi"),
            kind="exact",
            summary="Power Iteration: the global O(m log(1/lambda)) baseline",
            params=(*_EXACT_COMMON, "max_iterations"),
            fn=power_iteration,
        )
    )
    register_solver(
        SolverSpec(
            name="fifo-fwdpush",
            aliases=("fwdpush", "forward-push", "fifo", "algo2"),
            kind="exact",
            summary="FIFO Forward Push (Algorithm 2): the analysed local method",
            params=(*_EXACT_COMMON, "r_max", "max_sweeps"),
            fn=fifo_forward_push,
        )
    )
    register_solver(
        SolverSpec(
            name="bepi",
            aliases=("block-elimination", "blockelim"),
            kind="exact",
            summary="BePI: hub-and-spoke block elimination with a prebuilt index",
            params=(
                "alpha",
                "bepi_index",
                "delta",
                "l1_threshold",
                "max_inner_iterations",
            ),
            fn=_solve_bepi,
            artefact=BEPI_INDEX,
        )
    )
    register_solver(
        SolverSpec(
            name="speedppr",
            aliases=("algo4",),
            kind="approx",
            summary="SpeedPPR (Algorithm 4): push to r <= d_v/W, then walks (live or eps-independent index)",
            params=(
                *_APPROX_COMMON,
                "walk_index",
                "use_index",
                "allow_monte_carlo_shortcut",
            ),
            fn=_with_optional_index(speed_ppr, WALK_INDEX),
            needs_rng=True,
            artefact=WALK_INDEX,
        ),
        variants={"speedppr-index": {"use_index": True}},
    )
    register_solver(
        SolverSpec(
            name="fora",
            aliases=(),
            kind="approx",
            summary="FORA: forward push + Monte-Carlo refinement (FORA+ with index)",
            params=(
                *_APPROX_COMMON,
                "walk_index",
                "use_index",
                "allow_monte_carlo_shortcut",
            ),
            fn=_with_optional_index(fora, FORA_INDEX),
            needs_rng=True,
            artefact=FORA_INDEX,
        ),
        variants={
            "fora+": {"use_index": True},
            "fora-index": {"use_index": True},
        },
    )
    register_solver(
        SolverSpec(
            name="resacc",
            aliases=(),
            kind="approx",
            summary="ResAcc: FORA with source-residue accumulation",
            params=(*_APPROX_COMMON, "walk_index", "use_index", "max_sweeps"),
            fn=_with_optional_index(resacc, FORA_INDEX),
            needs_rng=True,
            artefact=FORA_INDEX,
        ),
    )
    register_solver(
        SolverSpec(
            name="montecarlo",
            aliases=("mc",),
            kind="approx",
            summary="Plain Monte-Carlo: W alpha-walks from the source",
            params=(
                "alpha",
                "epsilon",
                "mu",
                "p_fail",
                "num_walks",
                "seed",
                "rng",
                "dead_end_policy",
            ),
            fn=monte_carlo_ppr,
            needs_rng=True,
        )
    )
    register_solver(
        SolverSpec(
            name="incremental",
            aliases=("tracked", "incremental-ppr"),
            kind="exact",
            summary="Incremental PPR: a tracked source's pair repaired across graph updates",
            params=("l1_threshold", "trace"),
            fn=_solve_incremental,
            tracked=True,
        )
    )


_register_builtin_solvers()
