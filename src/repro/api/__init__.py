"""Unified query API: the solver registry and the stateful engine.

Two layers:

* :mod:`repro.api.registry` — every SSPPR algorithm registered behind
  one ``solve(graph, source, *, params) -> PPRResult`` protocol, with
  canonical names, aliases, kinds and the declarations (cacheable
  artefact, tracked source) an engine serves them by.
* :mod:`repro.api.engine` — :class:`PPREngine`, the per-graph serving
  facade that caches the declared artefacts across queries and exposes
  ``query`` / ``batch_query`` / ``top_k`` plus aggregated
  instrumentation.  It names no method.

The CLI, the experiment harness and the examples all dispatch through
this package; user code should too.
"""

from repro.api.engine import (
    EngineStats,
    MethodStats,
    PPREngine,
    per_source_rng,
)
from repro.api.registry import (
    ArtefactSpec,
    ParamSpec,
    SolverSpec,
    build_fora_index,
    build_speedppr_index,
    canonical_method_name,
    get_solver,
    register_solver,
    resolve_method,
    solve,
    solver_names,
    solver_specs,
)
from repro.errors import UnknownMethodError

__all__ = [
    "PPREngine",
    "EngineStats",
    "MethodStats",
    "per_source_rng",
    "ParamSpec",
    "ArtefactSpec",
    "SolverSpec",
    "register_solver",
    "get_solver",
    "resolve_method",
    "canonical_method_name",
    "solver_names",
    "solver_specs",
    "solve",
    "build_speedppr_index",
    "build_fora_index",
    "UnknownMethodError",
]
