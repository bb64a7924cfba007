"""Experiment DY — incremental PPR maintenance on an evolving graph.

Beyond the paper's static workloads: an R-MAT graph evolves under a
stream of random edge insertions/deletions while one
:class:`~repro.api.engine.PPREngine` keeps serving.  After every batch
of updates the engine's tracked source is refreshed two ways:

* **incremental** — replay the update journal (degree-scaled residue
  corrections from the push invariant) and re-certify with
  dynamic-threshold sweeps (:class:`~repro.core.incremental.IncrementalPPR`);
* **from scratch** — a fresh PowerPush solve on the compacted graph.

Both certify the same ``l1_threshold`` contract, so the interesting
columns are the *residue updates* each route pays — the same
runtime-independent currency as Figure 6 — and the realised l1 gap
between the two answers (bounded by the sum of the two certificates).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.api.engine import PPREngine
from repro.core.powerpush import power_push
from repro.experiments.workspace import Workspace
from repro.generators.rmat import rmat_digraph
from repro.graph.dynamic import DynamicGraph, sample_edge_update

__all__ = ["DynamicRow", "DynamicResult", "run_dynamic_updates", "run_dynamic"]


@dataclass(frozen=True)
class DynamicRow:
    """Measurements for one batch of streamed updates."""

    batch: int
    version: int
    num_edges: int
    incremental_updates: int
    scratch_updates: int
    incremental_seconds: float
    scratch_seconds: float
    #: the first ``DynamicGraph.snapshot()`` at this batch's version —
    #: the CSR materialisation both refresh routes need before they
    #: push anything, and which neither ``*_seconds`` field includes
    snapshot_seconds: float
    l1_gap: float
    certified_bound: float

    @property
    def update_ratio(self) -> float:
        """Incremental residue updates as a fraction of from-scratch."""
        if self.scratch_updates == 0:
            return float("nan")
        return self.incremental_updates / self.scratch_updates


@dataclass
class DynamicResult:
    """The DY experiment output: one row per update batch."""

    graph_name: str
    num_nodes: int
    source: int
    alpha: float
    l1_threshold: float
    batch_size: int
    rows: list[DynamicRow] = field(default_factory=list)

    @property
    def total_incremental_updates(self) -> int:
        return sum(row.incremental_updates for row in self.rows)

    @property
    def total_scratch_updates(self) -> int:
        return sum(row.scratch_updates for row in self.rows)

    @property
    def overall_ratio(self) -> float:
        scratch = self.total_scratch_updates
        if scratch == 0:
            return float("nan")
        return self.total_incremental_updates / scratch

    def render(self) -> str:
        lines = [
            (
                f"Dynamic updates [{self.graph_name}] — incremental refresh "
                f"vs from-scratch PowerPush"
            ),
            (
                f"n={self.num_nodes}, source={self.source}, "
                f"alpha={self.alpha}, lambda={self.l1_threshold:.0e}, "
                f"{self.batch_size} updates/batch"
            ),
            "",
            (
                f"{'batch':>5} {'m':>8} {'inc updates':>12} "
                f"{'scratch updates':>16} {'ratio':>6} {'l1 gap':>9} "
                f"{'bound':>9} {'snapshot ms':>12}"
            ),
        ]
        for row in self.rows:
            lines.append(
                f"{row.batch:>5d} {row.num_edges:>8d} "
                f"{row.incremental_updates:>12d} {row.scratch_updates:>16d} "
                f"{row.update_ratio:>6.3f} {row.l1_gap:>9.2e} "
                f"{row.certified_bound:>9.2e} "
                f"{row.snapshot_seconds * 1e3:>12.3f}"
            )
        lines.append("")
        lines.append(
            f"total: incremental {self.total_incremental_updates} vs "
            f"from-scratch {self.total_scratch_updates} residue updates "
            f"(ratio {self.overall_ratio:.3f})"
        )
        return "\n".join(lines)


def run_dynamic_updates(
    *,
    scale: int = 11,
    num_edges: int = 16_000,
    num_batches: int = 4,
    batch_size: int = 25,
    alpha: float = 0.2,
    l1_threshold: float = 1e-8,
    seed: int = 2021,
    source: int | None = None,
    compact_every_batch: bool = False,
) -> DynamicResult:
    """Stream update batches into an engine and measure both refresh routes.

    All randomness (graph, update stream) derives from ``seed``; the
    update stream is the canonical
    :func:`~repro.graph.dynamic.sample_edge_update` workload, which
    keeps the graph dead-end-free.  ``compact_every_batch=True``
    additionally exercises :meth:`DynamicGraph.compact` between
    batches (the logical graph, and thus every measurement, is
    unchanged by compaction).
    """
    rng = np.random.default_rng(seed)
    base = rmat_digraph(scale, num_edges, rng=rng, name=f"rmat-{scale}")
    dynamic = DynamicGraph(base)
    engine = PPREngine(dynamic, alpha=alpha, seed=seed)
    if source is None:
        source = int(rng.integers(0, base.num_nodes))
    tracker = engine.track(source, l1_threshold=l1_threshold)

    result = DynamicResult(
        graph_name=base.name,
        num_nodes=base.num_nodes,
        source=source,
        alpha=alpha,
        l1_threshold=l1_threshold,
        batch_size=batch_size,
    )
    for batch in range(num_batches):
        for _ in range(batch_size):
            engine.apply_updates([sample_edge_update(dynamic, rng)])

        started = time.perf_counter()
        snapshot = dynamic.snapshot()
        snapshot_seconds = time.perf_counter() - started
        incremental = engine.query(source, method="incremental")
        scratch = power_push(
            snapshot, source, alpha=alpha, l1_threshold=l1_threshold
        )
        assert scratch.residue is not None
        result.rows.append(
            DynamicRow(
                batch=batch,
                version=dynamic.version,
                num_edges=snapshot.num_edges,
                incremental_updates=incremental.counters.residue_updates,
                scratch_updates=scratch.counters.residue_updates,
                incremental_seconds=incremental.seconds,
                scratch_seconds=scratch.seconds,
                snapshot_seconds=snapshot_seconds,
                l1_gap=float(
                    np.abs(incremental.estimate - scratch.estimate).sum()
                ),
                certified_bound=tracker.error_bound,
            )
        )
        if compact_every_batch:
            dynamic.compact()
    return result


def run_dynamic(workspace: Workspace | None = None) -> DynamicResult:
    """The registered DY experiment: config-seeded default protocol."""
    workspace = workspace or Workspace()
    config = workspace.config
    return run_dynamic_updates(
        alpha=config.alpha,
        seed=config.seed,
    )
