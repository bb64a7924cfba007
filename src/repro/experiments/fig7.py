"""Experiment F7 — Figure 7: approximate query time vs eps.

For each dataset, sweep ``eps`` over Figure 7's grid and measure the
average query time of the six competitors: SpeedPPR, SpeedPPR-Index,
FORA, FORA-Index, ResAcc, and — deliberately, as the paper does — the
*high-precision* PowerPush as a baseline.

FORA-Index uses one index built at the smallest eps (0.1) and re-used
for all larger eps values, reproducing the paper's protocol (and the
eps-dependence weakness it highlights).  SpeedPPR-Index uses the one
eps-independent index.

Expected shape (paper): SpeedPPR-Index fastest across the board;
index-free SpeedPPR between FORA and FORA-Index, approaching
FORA-Index at small eps; every approximate method's time grows as eps
shrinks while PowerPush stays flat and becomes competitive at small
eps on some datasets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.experiments.config import query_sources
from repro.experiments.report import (
    Claim, ascii_chart, format_claims, format_seconds, format_table,
)
from repro.experiments.table2 import FORA_INDEX_EPSILON
from repro.experiments.workspace import Workspace

__all__ = ["Fig7Result", "run_fig7", "APPROX_METHODS"]

APPROX_METHODS = (
    "SpeedPPR",
    "SpeedPPR-Index",
    "FORA",
    "FORA-Index",
    "ResAcc",
    "PowerPush",
)


@dataclass
class Fig7Result:
    """seconds[dataset][method] -> list aligned with ``epsilons``."""

    epsilons: tuple[float, ...]
    seconds: dict[str, dict[str, list[float]]] = field(default_factory=dict)

    def rows(self, dataset: str) -> list[list[str]]:
        rows = []
        for method in APPROX_METHODS:
            row = [method] + [
                format_seconds(s) for s in self.seconds[dataset][method]
            ]
            rows.append(row)
        return rows

    def claims(self) -> list[Claim]:
        claims: list[Claim] = []
        eps = self.epsilons
        small, large = eps.index(min(eps)), eps.index(max(eps))
        for dataset, by_method in self.seconds.items():
            index, speed, fora = (
                by_method[m] for m in ("SpeedPPR-Index", "SpeedPPR", "FORA")
            )
            fastest = min(by_method[m][small] for m in ("SpeedPPR", "FORA", "FORA-Index", "ResAcc"))
            speed_growth = speed[small] / max(speed[large], 1e-9)
            fora_growth = fora[small] / max(fora[large], 1e-9)
            claims += [
                (f"{dataset}: SpeedPPR-Index within 1.25x of the fastest other sampling "
                 f"method at eps={eps[small]} ({format_seconds(index[small])} vs "
                 f"{format_seconds(fastest)})", index[small] <= fastest * 1.25),
                (f"{dataset}: FORA slower at eps={eps[small]} than at eps={eps[large]} "
                 f"({format_seconds(fora[small])} vs {format_seconds(fora[large])})",
                 fora[small] > fora[large]),
                (f"{dataset}: SpeedPPR's time grows no more than FORA's "
                 f"({speed_growth:.2f}x vs {fora_growth:.2f}x)", speed_growth <= fora_growth),
            ]
        return claims

    def render(self) -> str:
        blocks = []
        for dataset in self.seconds:
            blocks.append(
                format_table(
                    ["method", *[f"eps={e}" for e in self.epsilons]],
                    self.rows(dataset),
                    title=f"Figure 7 [{dataset}] — query time vs eps",
                )
            )
            curves = {
                method: (
                    [float(e) for e in self.epsilons],
                    self.seconds[dataset][method],
                )
                for method in APPROX_METHODS
            }
            blocks.append(
                ascii_chart(
                    curves,
                    title=f"Figure 7 [{dataset}] — chart",
                    log_y=True,
                    x_label="eps",
                    y_label="seconds",
                )
            )
        blocks.append(format_claims(self.claims()))
        return "\n\n".join(blocks)


def run_fig7(workspace: Workspace | None = None) -> Fig7Result:
    """Run the Figure 7 sweep on every configured dataset."""
    workspace = workspace or Workspace()
    config = workspace.config
    result = Fig7Result(epsilons=config.epsilons)
    smallest_eps = min(min(config.epsilons), FORA_INDEX_EPSILON)

    for name in config.datasets:
        graph = workspace.graph(name)
        engine = workspace.engine(name)
        sources = query_sources(graph, config.num_sources, config.seed)
        # Warm the engine caches so construction stays out of query time.
        speed_index = workspace.speedppr_index(name)
        fora_index = workspace.fora_index(name, smallest_eps)
        by_method: dict[str, list[float]] = {m: [] for m in APPROX_METHODS}

        for epsilon in config.epsilons:
            totals = {m: 0.0 for m in APPROX_METHODS}
            for salt, source in enumerate(sources.tolist()):
                # One generator shared (in order) by the index-free
                # stochastic methods, as in the paper's protocol.
                rng = workspace.rng(salt=100 + salt)
                runs = (
                    ("SpeedPPR", "speedppr", {"epsilon": epsilon, "rng": rng, "use_index": False}),
                    ("SpeedPPR-Index", "speedppr", {"epsilon": epsilon, "walk_index": speed_index}),
                    ("FORA", "fora", {"epsilon": epsilon, "rng": rng}),
                    ("FORA-Index", "fora", {"epsilon": epsilon, "walk_index": fora_index}),
                    ("ResAcc", "resacc", {"epsilon": epsilon, "rng": rng}),
                    ("PowerPush", "powerpush", {"l1_threshold": config.l1_threshold(graph)}),
                )
                for label, method, params in runs:
                    started = time.perf_counter()
                    engine.query(source, method=method, **params)
                    totals[label] += time.perf_counter() - started
            for method in APPROX_METHODS:
                by_method[method].append(totals[method] / len(sources))
        result.seconds[name] = by_method
    return result
