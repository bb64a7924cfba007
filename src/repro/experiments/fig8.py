"""Experiment F8 — Figure 8: actual l1-error vs eps.

Same sweep as Figure 7, but measuring solution quality: the l1-error of
each returned estimate against the PowItr ground truth (the paper uses
PowerPush at ``lambda = 1e-17``; we use PowItr at ``1e-14`` — see
DESIGN.md, Substitutions).  Errors are averaged over the query sources.

Expected shape (paper): all approximate methods improve as eps shrinks;
SpeedPPR gives the best quality on most datasets (up to an order of
magnitude at small eps); the index-based variants are *less* accurate
than their index-free versions, because they leave more mass to the
Monte-Carlo phase (larger ``r_sum`` ⇒ larger variance).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.experiments.config import query_sources
from repro.experiments.report import Claim, ascii_chart, format_claims, format_table
from repro.experiments.table2 import FORA_INDEX_EPSILON
from repro.experiments.workspace import Workspace
from repro.metrics.errors import l1_error

__all__ = ["Fig8Result", "run_fig8", "ERROR_METHODS"]

ERROR_METHODS = (
    "SpeedPPR",
    "SpeedPPR-Index",
    "FORA",
    "FORA-Index",
    "ResAcc",
)


@dataclass
class Fig8Result:
    """errors[dataset][method] -> mean l1-errors aligned with epsilons."""

    epsilons: tuple[float, ...]
    errors: dict[str, dict[str, list[float]]] = field(default_factory=dict)

    def rows(self, dataset: str) -> list[list[str]]:
        rows = []
        for method in ERROR_METHODS:
            rows.append(
                [method]
                + [f"{e:.3e}" for e in self.errors[dataset][method]]
            )
        return rows

    def claims(self) -> list[Claim]:
        claims: list[Claim] = []
        eps = self.epsilons
        small, large = eps.index(min(eps)), eps.index(max(eps))
        speed_best = 0
        for dataset, by_method in self.errors.items():
            claims += [
                (f"{dataset} {method}: error at eps={eps[small]} within 1.25x of "
                 f"eps={eps[large]}'s ({errors[small]:.3e} vs {errors[large]:.3e})",
                 errors[small] <= errors[large] * 1.25)
                for method, errors in by_method.items()
            ]
            speed, index = by_method["SpeedPPR"][small], by_method["SpeedPPR-Index"][small]
            claims.append((f"{dataset}: SpeedPPR's error within 1.25x of SpeedPPR-Index's "
                           f"at eps={eps[small]} ({speed:.3e} vs {index:.3e})",
                           speed <= index * 1.25))
            speed_best += speed <= 1.1 * min(by_method[m][small] for m in by_method)
        need = max(1, len(self.errors) - 1)
        return claims + [
            (f"SpeedPPR within 1.1x of the best error at eps={eps[small]} on {speed_best} "
             f"of {len(self.errors)} datasets (need {need})", speed_best >= need),
        ]

    def render(self) -> str:
        blocks = []
        for dataset in self.errors:
            blocks.append(
                format_table(
                    ["method", *[f"eps={e}" for e in self.epsilons]],
                    self.rows(dataset),
                    title=f"Figure 8 [{dataset}] — l1-error vs eps",
                )
            )
            curves = {
                method: (
                    [float(e) for e in self.epsilons],
                    self.errors[dataset][method],
                )
                for method in ERROR_METHODS
            }
            blocks.append(
                ascii_chart(
                    curves,
                    title=f"Figure 8 [{dataset}] — chart",
                    log_y=True,
                    x_label="eps",
                    y_label="l1-error",
                )
            )
        blocks.append(format_claims(self.claims()))
        return "\n\n".join(blocks)


def run_fig8(workspace: Workspace | None = None) -> Fig8Result:
    """Run the Figure 8 sweep on every configured dataset."""
    workspace = workspace or Workspace()
    config = workspace.config
    result = Fig8Result(epsilons=config.epsilons)
    smallest_eps = min(min(config.epsilons), FORA_INDEX_EPSILON)

    for name in config.datasets:
        engine = workspace.engine(name)
        graph = workspace.graph(name)
        sources = query_sources(graph, config.num_sources, config.seed)
        speed_index = workspace.speedppr_index(name)
        fora_index = workspace.fora_index(name, smallest_eps)
        by_method: dict[str, list[float]] = {m: [] for m in ERROR_METHODS}

        for epsilon in config.epsilons:
            totals = {m: 0.0 for m in ERROR_METHODS}
            for salt, source in enumerate(sources.tolist()):
                truth = np.asarray(workspace.ground_truth(name, source))
                rng = workspace.rng(salt=200 + salt)
                runs = (
                    ("SpeedPPR", "speedppr", {"rng": rng, "use_index": False}),
                    ("SpeedPPR-Index", "speedppr", {"walk_index": speed_index}),
                    ("FORA", "fora", {"rng": rng}),
                    ("FORA-Index", "fora", {"walk_index": fora_index}),
                    ("ResAcc", "resacc", {"rng": rng}),
                )
                for label, method, params in runs:
                    answer = engine.query(
                        source, method=method, epsilon=epsilon, **params
                    )
                    totals[label] += l1_error(answer.estimate, truth)
            for method in ERROR_METHODS:
                by_method[method].append(totals[method] / len(sources))
        result.errors[name] = by_method
    return result
