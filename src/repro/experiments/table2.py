"""Experiment T2 — Table 2: index size and construction time.

For every dataset, build the three indexes the paper compares:

* **BePI** (high-precision): SlashBurn + block elimination matrices,
* **FORA+** (approximate): eps-dependent walk index, built at the
  smallest eps of the sweep (0.1), exactly as the paper does,
* **SpeedPPR** (approximate): eps-independent ``K_v = d_v`` walk index.

Expected shape (paper): SpeedPPR's index is ~an order of magnitude
smaller and faster to build than FORA+'s; BePI's is the largest and by
far the slowest to build, especially on the dense Orkut analog.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.report import (
    Claim, format_bytes, format_claims, format_seconds, format_table,
)
from repro.experiments.workspace import Workspace

__all__ = ["IndexReport", "Table2Result", "run_table2"]

#: the smallest eps of Figures 7-8; FORA+'s index is built for it.
FORA_INDEX_EPSILON = 0.1


@dataclass(frozen=True)
class IndexReport:
    """Size and construction time of one index on one dataset."""

    dataset: str
    method: str
    size_bytes: int
    construction_seconds: float
    num_walks: int = 0  # walk indexes only


@dataclass
class Table2Result:
    """All index reports, keyed by (dataset, method)."""

    reports: list[IndexReport]
    num_edges: dict[str, int] = field(default_factory=dict)

    def get(self, dataset: str, method: str) -> IndexReport:
        for report in self.reports:
            if report.dataset == dataset and report.method == method:
                return report
        raise KeyError((dataset, method))

    def rows(self) -> list[list[str]]:
        datasets = sorted({r.dataset for r in self.reports})
        rows = []
        for dataset in datasets:
            row = [dataset]
            for method in ("BePI", "FORA", "SpeedPPR"):
                report = self.get(dataset, method)
                row.append(format_bytes(report.size_bytes))
            for method in ("BePI", "FORA", "SpeedPPR"):
                report = self.get(dataset, method)
                row.append(format_seconds(report.construction_seconds))
            rows.append(row)
        return rows

    def claims(self) -> list[Claim]:
        claims: list[Claim] = []
        for dataset in sorted({r.dataset for r in self.reports}):
            bepi, fora, speed = (self.get(dataset, m) for m in ("BePI", "FORA", "SpeedPPR"))
            sizes = [format_bytes(r.size_bytes) for r in (bepi, fora, speed)]
            builds = [format_seconds(r.construction_seconds) for r in (fora, speed)]
            m = self.num_edges[dataset]
            claims += [
                (f"{dataset}: SpeedPPR index smaller than FORA+'s ({sizes[2]} < {sizes[1]})",
                 speed.size_bytes < fora.size_bytes),
                (f"{dataset}: SpeedPPR index holds at most m walks ({speed.num_walks} <= {m})",
                 speed.num_walks <= m),
                (f"{dataset}: BePI matrices larger than FORA+'s index ({sizes[0]} > {sizes[1]})",
                 bepi.size_bytes > fora.size_bytes),
                (f"{dataset}: SpeedPPR index built no slower than FORA+'s "
                 f"({builds[1]} <= {builds[0]})",
                 speed.construction_seconds <= fora.construction_seconds),
            ]
        return claims

    def render(self) -> str:
        table = format_table(
            [
                "dataset",
                "BePI size",
                "FORA size",
                "SpeedPPR size",
                "BePI build",
                "FORA build",
                "SpeedPPR build",
            ],
            self.rows(),
            title=(
                "Table 2 — index size and construction time "
                f"(FORA+ index built at eps={FORA_INDEX_EPSILON})"
            ),
        )
        return f"{table}\n\n{format_claims(self.claims())}"


def run_table2(workspace: Workspace | None = None) -> Table2Result:
    """Build all three indexes on every configured dataset."""
    workspace = workspace or Workspace()
    result = Table2Result(reports=[])
    for name in workspace.config.datasets:
        result.num_edges[name] = workspace.graph(name).num_edges
        for method, index in (
            ("BePI", workspace.bepi_index(name)),
            ("FORA", workspace.fora_index(name, FORA_INDEX_EPSILON, exact=True)),
            ("SpeedPPR", workspace.speedppr_index(name)),
        ):
            result.reports.append(
                IndexReport(
                    dataset=name,
                    method=method,
                    size_bytes=index.size_bytes,
                    construction_seconds=index.construction_seconds,
                    num_walks=getattr(index, "num_walks", 0),
                )
            )
    return result
