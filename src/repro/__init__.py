"""repro — reproduction of "Unifying the Global and Local Approaches:
An Efficient Power Iteration with Forward Push" (SIGMOD 2021).

The package implements the paper's two contributions and every
baseline/substrate its evaluation depends on:

* **High-precision SSPPR**: :func:`power_iteration`,
  :func:`forward_push`, :func:`fifo_forward_push`,
  :func:`simultaneous_forward_push`, and the paper's **PowerPush**
  (:func:`power_push`), plus a BePI-style comparator
  (:mod:`repro.bepi`).
* **Approximate SSPPR**: :func:`monte_carlo_ppr`, :func:`fora`
  (FORA/FORA+), :func:`resacc`, and the paper's **SpeedPPR**
  (:func:`speed_ppr`, with an eps-independent walk index).
* **Substrates**: a CSR graph engine (:mod:`repro.graph`), scale-free
  dataset generators (:mod:`repro.generators`), a vectorised
  random-walk engine (:mod:`repro.walks`), metrics
  (:mod:`repro.metrics`) and the experiment harness
  (:mod:`repro.experiments`).
* **Unified query API** (:mod:`repro.api`): every measured algorithm
  sits behind one solver registry (:func:`forward_push` and
  :func:`simultaneous_forward_push` serve an ablation and a proof, and
  are plain functions), and a stateful :class:`PPREngine` serves
  queries against a graph while caching the expensive per-graph
  indexes (SpeedPPR's eps-independent walk index, BePI's block
  elimination) across queries.

Only BePI needs scipy (its sparse LU and SlashBurn's connected
components), and :meth:`DiGraph.to_scipy_csr` builds a scipy matrix on
request; each loads scipy on first use.  ``import repro`` itself
loads no scipy module: :class:`BePIIndex`, :func:`bepi_query` and
:func:`build_bepi_index` are resolved from :mod:`repro.bepi` when first
accessed.

Quickstart
----------
Construct one engine per graph, then query it by method name — any
registered algorithm, exact or approximate, through one front door:

>>> from repro import PPREngine, load_dataset
>>> graph = load_dataset("dblp-s")
>>> engine = PPREngine(graph, alpha=0.2, seed=7)
>>> exact = engine.query(0, method="powerpush", l1_threshold=1e-8)
>>> exact.r_sum <= 1e-8
True
>>> approx = engine.query(0, method="speedppr", epsilon=0.5)  # builds index
>>> _ = engine.query(1, method="speedppr", epsilon=0.1)       # reuses it
>>> engine.index_builds["walk"]
1
>>> results = engine.batch_query([0, 1, 2], method="montecarlo")
>>> [r.source for r in results]
[0, 1, 2]

The registry resolves aliases (``fwdpush``, ``power-iteration``,
``fora+`` …) to canonical solvers; ``repro.api.solver_names()`` lists
them and an unknown name raises :class:`UnknownMethodError` with the
valid spellings.  The direct per-algorithm functions below remain
available for library use.
"""

from repro.api import (
    ArtefactSpec,
    PPREngine,
    SolverSpec,
    UnknownMethodError,
    canonical_method_name,
    get_solver,
    register_solver,
    solver_names,
)
from repro.baselines import fora, resacc
from repro.core import (
    DeadEndPolicy,
    PowerPushConfig,
    PPRResult,
    PushState,
    TopKResult,
    backward_push,
    default_l1_threshold,
    fifo_forward_push,
    forward_push,
    pagerank,
    power_iteration,
    power_push,
    power_push_block,
    preference_pagerank,
    refine_to_r_max,
    simultaneous_forward_push,
    speed_ppr,
    top_k_ppr,
)
from repro.generators import (
    barabasi_albert_digraph,
    chung_lu_digraph,
    dataset_names,
    load_dataset,
    power_law_digraph,
    rmat_digraph,
)
from repro.core.incremental import IncrementalPPR
from repro.graph import (
    DiGraph,
    DynamicGraph,
    ReorderResult,
    compute_stats,
    from_adjacency,
    from_edge_arrays,
    from_edges,
    paper_example_graph,
    read_edge_list,
    reorder_for_locality,
    sample_edge_update,
)
from repro.metrics import (
    ground_truth_ppr,
    l1_error,
    max_relative_error,
    precision_at_k,
)
from repro.montecarlo import chernoff_walk_count, monte_carlo_ppr
from repro.serving import (
    AsyncFrontDoor,
    EngineServer,
    FaultInjector,
    FaultSpec,
    RestartPolicy,
    ResultCache,
    RetryPolicy,
    ServedResult,
    ShardedDispatcher,
    SharedGraphImage,
    WorkloadGenerator,
    run_loadtest,
)
from repro.walks import (
    WalkIndex,
    build_walk_index,
    fora_plus_walk_counts,
    speedppr_walk_counts,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # unified query API
    "PPREngine",
    "SolverSpec",
    "ArtefactSpec",
    "register_solver",
    "get_solver",
    "solver_names",
    "canonical_method_name",
    "UnknownMethodError",
    # serving layer
    "AsyncFrontDoor",
    "EngineServer",
    "FaultInjector",
    "FaultSpec",
    "RestartPolicy",
    "ResultCache",
    "RetryPolicy",
    "ServedResult",
    "ShardedDispatcher",
    "SharedGraphImage",
    "WorkloadGenerator",
    "run_loadtest",
    # graph
    "DiGraph",
    "DynamicGraph",
    "sample_edge_update",
    "IncrementalPPR",
    "from_edges",
    "from_edge_arrays",
    "from_adjacency",
    "read_edge_list",
    "paper_example_graph",
    "compute_stats",
    "ReorderResult",
    "reorder_for_locality",
    # generators
    "barabasi_albert_digraph",
    "chung_lu_digraph",
    "power_law_digraph",
    "rmat_digraph",
    "dataset_names",
    "load_dataset",
    # high-precision algorithms
    "power_iteration",
    "forward_push",
    "simultaneous_forward_push",
    "fifo_forward_push",
    "power_push",
    "power_push_block",
    "PowerPushConfig",
    "refine_to_r_max",
    "default_l1_threshold",
    "PushState",
    "PPRResult",
    "DeadEndPolicy",
    # approximate algorithms
    "monte_carlo_ppr",
    "chernoff_walk_count",
    "fora",
    "resacc",
    "speed_ppr",
    # extensions
    "pagerank",
    "preference_pagerank",
    "top_k_ppr",
    "TopKResult",
    "backward_push",
    # walk indexes
    "WalkIndex",
    "build_walk_index",
    "fora_plus_walk_counts",
    "speedppr_walk_counts",
    # BePI
    "build_bepi_index",
    "bepi_query",
    "BePIIndex",
    # metrics
    "ground_truth_ppr",
    "l1_error",
    "max_relative_error",
    "precision_at_k",
]

#: Resolved on first access, so that ``import repro`` does not load
#: scipy: :mod:`repro.bepi` is the only package that imports it at load
#: time.
_LAZY = frozenset({"bepi", "BePIIndex", "bepi_query", "build_bepi_index"})


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import repro.bepi

    value = repro.bepi if name == "bepi" else getattr(repro.bepi, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted((globals().keys() - {"__getattr__", "__dir__", "_LAZY"}) | _LAZY)
