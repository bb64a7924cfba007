"""Experiment T1 — Table 1: dataset statistics.

Regenerates the six analog datasets and prints their statistics next
to the paper's originals, so the density match (the property the
substitution preserves — see DESIGN.md) is visible at a glance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.report import Claim, format_claims, format_table
from repro.experiments.workspace import Workspace
from repro.generators.datasets import DATASETS
from repro.graph.stats import GraphStats, compute_stats

__all__ = ["Table1Result", "run_table1"]


@dataclass
class Table1Result:
    """Computed statistics for every analog dataset."""

    stats: dict[str, GraphStats]

    def rows(self) -> list[list[str]]:
        rows = []
        for name, stat in self.stats.items():
            spec = DATASETS[name]
            rows.append(
                [
                    name,
                    spec.paper_name,
                    str(stat.num_nodes),
                    str(stat.num_edges),
                    f"{stat.average_degree:.2f}",
                    f"{spec.avg_degree:.2f}",
                    stat.graph_type,
                    f"{stat.power_law_alpha:.2f}",
                    str(stat.max_out_degree),
                ]
            )
        return rows

    def claims(self) -> list[Claim]:
        claims: list[Claim] = []
        for name, stat in self.stats.items():
            paper, density = DATASETS[name].avg_degree, stat.average_degree
            claims += [
                (f"{name}: m/n {density:.2f} within 25% of the paper's {paper:.2f}",
                 abs(density - paper) <= 0.25 * paper),
                (f"{name}: {stat.num_nodes} nodes, {stat.dead_ends} dead ends",
                 stat.num_nodes > 0 and stat.dead_ends == 0),
            ]
        return claims

    def render(self) -> str:
        table = format_table(
            [
                "dataset",
                "paper",
                "n",
                "m",
                "m/n",
                "paper m/n",
                "type",
                "pl-alpha",
                "max-deg",
            ],
            self.rows(),
            title="Table 1 — synthetic analog dataset statistics",
        )
        return f"{table}\n\n{format_claims(self.claims())}"


def run_table1(workspace: Workspace | None = None) -> Table1Result:
    """Generate every configured dataset and compute its statistics."""
    workspace = workspace or Workspace()
    stats = {
        name: compute_stats(workspace.graph(name))
        for name in workspace.config.datasets
    }
    return Table1Result(stats=stats)
