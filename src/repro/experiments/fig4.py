"""Experiment F4 — Figure 4: high-precision query time per dataset.

For every dataset, answer the same random queries with the four
high-precision competitors (PowerPush, BePI, FIFO-FwdPush, PowItr) at
``lambda = min(1e-8, 1/m)`` and report the average wall-clock time plus
the paper's ``c.cx`` annotation (each competitor's time as a multiple
of PowerPush's).

Expected shape (paper): PowerPush smallest everywhere except possibly
the smallest dataset where BePI's precomputation lets it tie; BePI's
query time *excludes* its construction time, as in the paper.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.experiments.config import query_sources
from repro.experiments.report import format_ratio, format_seconds, format_table
from repro.experiments.workspace import Workspace

__all__ = ["Fig4Result", "run_fig4", "HP_METHODS"]

#: display labels; each resolves directly as a registry method name
HP_METHODS = ("PowerPush", "BePI", "FIFO-FwdPush", "PowItr")


@dataclass
class Fig4Result:
    """Average query seconds per (dataset, method)."""

    seconds: dict[str, dict[str, float]] = field(default_factory=dict)

    def ratios(self, dataset: str) -> dict[str, str]:
        base = self.seconds[dataset]["PowerPush"]
        return {
            method: format_ratio(value, base)
            for method, value in self.seconds[dataset].items()
        }

    def rows(self) -> list[list[str]]:
        rows = []
        for dataset, by_method in self.seconds.items():
            ratios = self.ratios(dataset)
            row = [dataset]
            for method in HP_METHODS:
                row.append(
                    f"{format_seconds(by_method[method])} ({ratios[method]})"
                )
            rows.append(row)
        return rows

    def render(self) -> str:
        return format_table(
            ["dataset", *HP_METHODS],
            self.rows(),
            title=(
                "Figure 4 — average high-precision query time "
                "(multiple of PowerPush in parentheses)"
            ),
        )


def run_fig4(workspace: Workspace | None = None) -> Fig4Result:
    """Run the Figure 4 protocol on every configured dataset."""
    workspace = workspace or Workspace()
    config = workspace.config
    result = Fig4Result()
    for name in config.datasets:
        graph = workspace.graph(name)
        engine = workspace.engine(name)
        l1_threshold = config.l1_threshold(graph)
        # BePI's query time excludes construction (as in the paper):
        # warm the engine's cache before the timed loop.
        engine.bepi_index()
        sources = query_sources(graph, config.num_sources, config.seed)

        totals = {method: 0.0 for method in HP_METHODS}
        for source in sources.tolist():
            for method in HP_METHODS:
                started = time.perf_counter()
                engine.query(source, method=method, l1_threshold=l1_threshold)
                totals[method] += time.perf_counter() - started

        result.seconds[name] = {
            method: total / len(sources) for method, total in totals.items()
        }
    return result
