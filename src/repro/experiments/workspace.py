"""Shared artifact cache for the experiment runners.

Several experiments need the same expensive artifacts — generated
datasets, BePI indexes, walk indexes, ground-truth vectors.  A
:class:`Workspace` holds one :class:`~repro.api.engine.PPREngine` per
dataset, and the engine's lazy caches are the single home of every
per-graph index, so e.g. Figure 7 and Figure 8 share one FORA+ index
per dataset — exactly the serving pattern the production deployment
uses, and exactly how the paper re-uses indexes across queries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.api.engine import PPREngine
from repro.experiments.config import ExperimentConfig
from repro.generators.datasets import load_dataset
from repro.graph.digraph import DiGraph
from repro.metrics.ground_truth import ground_truth_ppr
from repro.walks.index import WalkIndex

if TYPE_CHECKING:  # scipy is loaded only when BePI runs
    from repro.bepi.blockelim import BePIIndex

__all__ = ["Workspace"]


class Workspace:
    """Per-process cache of datasets, engines and ground truths."""

    def __init__(self, config: ExperimentConfig | None = None) -> None:
        self.config = config if config is not None else ExperimentConfig()
        self._graphs: dict[str, DiGraph] = {}
        self._engines: dict[str, PPREngine] = {}
        self._truth: dict[tuple[str, int], np.ndarray] = {}

    # ------------------------------------------------------------------
    def graph(self, name: str) -> DiGraph:
        """The analog dataset ``name`` (generated once per process)."""
        if name not in self._graphs:
            self._graphs[name] = load_dataset(name)
        return self._graphs[name]

    def engine(self, name: str) -> PPREngine:
        """The query engine for dataset ``name`` (one per process).

        Every experiment but ablation A2, which calls Algorithm 1's
        scalar loop directly, answers its queries through this engine,
        so its index caches and instrumentation aggregate across
        experiments.
        """
        if name not in self._engines:
            self._engines[name] = PPREngine(
                self.graph(name),
                alpha=self.config.alpha,
                seed=self.config.seed,
            )
        return self._engines[name]

    def rng(self, salt: int = 0) -> np.random.Generator:
        """A fresh deterministic generator derived from the config seed."""
        return np.random.default_rng(self.config.seed * 1_000_003 + salt)

    # ------------------------------------------------------------------
    def bepi_index(self, name: str) -> BePIIndex:
        """BePI preprocessing output for dataset ``name`` (cached)."""
        return self.engine(name).bepi_index()

    def speedppr_index(self, name: str) -> WalkIndex:
        """SpeedPPR's eps-independent walk index (``K_v = d_v``)."""
        return self.engine(name).walk_index()

    def fora_index(
        self, name: str, epsilon: float, *, exact: bool = False
    ) -> WalkIndex:
        """FORA+'s eps-dependent walk index, built for ``epsilon``.

        The paper builds FORA+'s index at the smallest eps in play and
        re-uses it for larger ones; the engine's cache implements that
        policy.  Pass ``exact=True`` when the index itself is the
        measurement (Table 2 reports size/build time *for this eps*).
        """
        return self.engine(name).fora_index(
            epsilon,
            mu=1.0 / self.graph(name).num_nodes,
            p_fail=1.0 / self.graph(name).num_nodes,
            exact=exact,
        )

    def ground_truth(self, name: str, source: int) -> np.ndarray:
        """High-precision ground truth ``pi_s`` for error reporting."""
        key = (name, source)
        if key not in self._truth:
            self._truth[key] = ground_truth_ppr(
                self.graph(name),
                source,
                alpha=self.config.alpha,
                l1_threshold=1e-14,
            )
        return self._truth[key]
