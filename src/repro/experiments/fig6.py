"""Experiment F6 — Figure 6: actual l1-error vs number of residue updates.

Identical protocol to Figure 5 but with the *operation count* on the
x-axis: every increment of one out-neighbour's residue is one update
("edge pushing").  BePI is excluded, as in the paper — its MATLAB
black box exposed no operation counts, and the metric is only defined
for push algorithms anyway.

Expected shape (paper): FIFO-FwdPush's pushes are more effective than
PowItr's (asynchrony), and PowerPush needs the fewest updates overall
(the dynamic-threshold epochs let residues accumulate before pushing).
This counter-based view is the runtime-independent half of the
reproduction — it is unaffected by interpreter constants, and so are
the orderings :meth:`Fig6Result.claims` checks at ``10 lambda``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.fig5 import push_traces
from repro.experiments.report import Claim, ascii_chart, format_claims, format_series
from repro.experiments.workspace import Workspace

__all__ = ["Fig6Result", "run_fig6"]


@dataclass
class Fig6Result:
    """Per-dataset series: method -> (residue_updates, l1_error)."""

    series: dict[str, dict[str, tuple[list[float], list[float]]]] = field(
        default_factory=dict
    )
    sources: dict[str, int] = field(default_factory=dict)
    l1_thresholds: dict[str, float] = field(default_factory=dict)

    def updates_to_reach(self, dataset: str, threshold: float) -> dict[str, float]:
        """Updates each method needed to reach ``r_sum <= threshold``."""
        answer: dict[str, float] = {}
        for method, (xs, ys) in self.series[dataset].items():
            answer[method] = float("inf")
            for x, y in zip(xs, ys):
                if y <= threshold:
                    answer[method] = float(x)
                    break
        return answer

    def claims(self) -> list[Claim]:
        claims: list[Claim] = []
        for dataset in self.series:
            reach = self.updates_to_reach(dataset, self.l1_thresholds[dataset] * 10)
            powerpush, powitr, fifo = (
                reach[m] for m in ("PowerPush", "PowItr", "FIFO-FwdPush")
            )
            claims += [
                (f"{dataset}: PowerPush needs at most PowItr's updates to 10 lambda "
                 f"({powerpush:.3e} vs {powitr:.3e})", powerpush <= powitr),
                (f"{dataset}: FIFO-FwdPush needs at most 1.05x PowItr's updates "
                 f"to 10 lambda ({fifo:.3e} vs {powitr:.3e})", fifo <= powitr * 1.05),
                (f"{dataset}: PowerPush needs at most 1.05x FIFO-FwdPush's updates "
                 f"to 10 lambda ({powerpush:.3e} vs {fifo:.3e})", powerpush <= fifo * 1.05),
            ]
        return claims

    def render(self) -> str:
        blocks = []
        for dataset, curves in self.series.items():
            blocks.append(
                ascii_chart(
                    curves,
                    title=(
                        f"Figure 6 [{dataset}] — l1-error vs #residue "
                        f"updates (source {self.sources[dataset]})"
                    ),
                    log_y=True,
                    x_label="#updates",
                    y_label="l1-error",
                )
            )
            blocks.append(
                format_series(curves, x_name="#updates", y_name="l1")
            )
        blocks.append(format_claims(self.claims()))
        return "\n\n".join(blocks)


def run_fig6(workspace: Workspace | None = None) -> Fig6Result:
    """Trace update-efficiency of the push methods on every dataset."""
    workspace = workspace or Workspace()
    result = Fig6Result()
    for name in workspace.config.datasets:
        source, traces = push_traces(workspace, name)
        result.sources[name] = source
        result.l1_thresholds[name] = workspace.config.l1_threshold(workspace.graph(name))
        result.series[name] = {}
        for label, trace in traces.items():
            xs, ys = trace.series_vs_updates()
            result.series[name][label] = ([float(x) for x in xs], ys)
    return result
