"""Experiment F5 — Figure 5: actual l1-error vs execution time.

For one reference source per dataset, trace ``r_sum`` — the *exact*
l1-error for push algorithms — as a function of wall-clock time,
sampling every ``4m`` residue updates as the paper does.  The paper's
source has the median PowerPush time among its 30 queries; ours has the
median PowerPush residue updates (:func:`reference_source`), so it is
the same in every run.  BePI has no residue; as in the paper it is run
to a decreasing sequence of convergence parameters ``Delta`` and each
run contributes one ``(time, post-hoc l1-error)`` point.

Expected shape (paper): straight lines on the log-error axis for the
push methods (exponential convergence — their O(m log 1/lambda)
bound), PowerPush's line the steepest/leftmost.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.experiments.config import query_sources
from repro.experiments.report import Claim, ascii_chart, format_claims, format_series
from repro.experiments.workspace import Workspace
from repro.instrumentation.tracing import ConvergenceTrace
from repro.metrics.errors import l1_error

__all__ = ["Fig5Result", "run_fig5", "reference_source", "push_traces", "BEPI_DELTAS"]

#: decreasing Delta sequence for BePI's error/time curve.
BEPI_DELTAS = (1e-2, 1e-4, 1e-6, 1e-8)

_PUSH_METHODS = (
    ("PowerPush", "powerpush"),
    ("PowItr", "powitr"),
    ("FIFO-FwdPush", "fifo-fwdpush"),
)


@dataclass
class Fig5Result:
    """Per-dataset series: method -> (seconds, l1_error)."""

    series: dict[str, dict[str, tuple[list[float], list[float]]]] = field(
        default_factory=dict
    )
    sources: dict[str, int] = field(default_factory=dict)
    l1_thresholds: dict[str, float] = field(default_factory=dict)

    def claims(self) -> list[Claim]:
        claims: list[Claim] = []
        for dataset, curves in self.series.items():
            target = self.l1_thresholds[dataset]
            for method, _ in _PUSH_METHODS:
                xs, ys = curves[method]
                r_squared = _log_linear_r_squared(xs, ys)
                claims += [
                    (f"{dataset} {method}: reaches 1.01 lambda (smallest l1 "
                     f"{min(ys):.2e}, lambda {target:.0e})", min(ys) <= target * 1.01),
                    (f"{dataset} {method}: log-linear decay (R^2 {r_squared:.3f} > 0.85)",
                     r_squared > 0.85),
                ]
            bepi = curves["BePI"][1]
            claims.append((f"{dataset} BePI: error falls as Delta shrinks "
                           f"({bepi[0]:.2e} -> {bepi[-1]:.2e})", bepi[-1] <= bepi[0]))
        return claims

    def render(self) -> str:
        blocks = []
        for dataset, curves in self.series.items():
            blocks.append(
                ascii_chart(
                    curves,
                    title=(
                        f"Figure 5 [{dataset}] — l1-error vs time "
                        f"(source {self.sources[dataset]})"
                    ),
                    log_y=True,
                    x_label="seconds",
                    y_label="l1-error",
                )
            )
            blocks.append(
                format_series(curves, x_name="seconds", y_name="l1")
            )
        blocks.append(format_claims(self.claims()))
        return "\n\n".join(blocks)


def _log_linear_r_squared(xs: list[float], ys: list[float]) -> float:
    """R^2 of a log-linear fit through a convergence curve."""
    pairs = [(x, y) for x, y in zip(xs, ys) if y > 0]
    if len(pairs) < 3:
        return 1.0
    n = len(pairs)
    mean_x = sum(p[0] for p in pairs) / n
    log_ys = [math.log(p[1]) for p in pairs]
    mean_y = sum(log_ys) / n
    var_x = sum((p[0] - mean_x) ** 2 for p in pairs)
    if var_x == 0:
        return 1.0
    cov = sum(
        (p[0] - mean_x) * (ly - mean_y) for p, ly in zip(pairs, log_ys)
    )
    slope = cov / var_x
    intercept = mean_y - slope * mean_x
    ss_res = sum(
        (ly - (slope * p[0] + intercept)) ** 2
        for p, ly in zip(pairs, log_ys)
    )
    ss_tot = sum((ly - mean_y) ** 2 for ly in log_ys)
    if ss_tot == 0:
        return 1.0
    return 1.0 - ss_res / ss_tot


def reference_source(workspace: Workspace, dataset: str) -> int:
    """The query-set source with the median PowerPush residue updates.

    Ranked by ``(residue updates, source id)``, so the choice is the
    same in every run, and Figures 5 and 6 share it.
    """
    config = workspace.config
    graph = workspace.graph(dataset)
    l1_threshold = config.l1_threshold(graph)
    engine = workspace.engine(dataset)

    def updates(source: int) -> int:
        answer = engine.query(source, method="powerpush", l1_threshold=l1_threshold)
        return answer.counters.residue_updates

    sources = query_sources(graph, config.num_sources, config.seed).tolist()
    ranked = sorted((updates(source), source) for source in sources)
    return ranked[len(ranked) // 2][1]


def push_traces(
    workspace: Workspace, dataset: str
) -> tuple[int, dict[str, ConvergenceTrace]]:
    """The reference source and each push method's convergence trace."""
    graph = workspace.graph(dataset)
    l1_threshold = workspace.config.l1_threshold(graph)
    source = reference_source(workspace, dataset)
    traces: dict[str, ConvergenceTrace] = {}
    for label, method in _PUSH_METHODS:
        traces[label] = trace = ConvergenceTrace(
            stride=workspace.config.trace_stride_edges * graph.num_edges
        )
        workspace.engine(dataset).query(
            source, method=method, l1_threshold=l1_threshold, trace=trace
        )
    return source, traces


def run_fig5(workspace: Workspace | None = None) -> Fig5Result:
    """Trace convergence of all HP methods on every configured dataset."""
    workspace = workspace or Workspace()
    result = Fig5Result()
    for name in workspace.config.datasets:
        source, traces = push_traces(workspace, name)
        l1_threshold = workspace.config.l1_threshold(workspace.graph(name))
        result.sources[name] = source
        result.l1_thresholds[name] = l1_threshold
        curves = {label: trace.series_vs_time() for label, trace in traces.items()}
        curves["BePI"] = _bepi_curve(workspace, name, source, l1_threshold)
        result.series[name] = curves
    return result


def _bepi_curve(
    workspace: Workspace,
    dataset: str,
    source: int,
    l1_threshold: float,
) -> tuple[list[float], list[float]]:
    """One (time, l1-error) point per Delta in the decreasing sequence."""
    engine = workspace.engine(dataset)
    engine.bepi_index()  # exclude construction from the timed queries
    truth = workspace.ground_truth(dataset, source)
    deltas = [d for d in BEPI_DELTAS if d > l1_threshold] + [l1_threshold]
    times: list[float] = []
    errors: list[float] = []
    for delta in deltas:
        started = time.perf_counter()
        answer = engine.query(source, method="bepi", delta=delta)
        times.append(time.perf_counter() - started)
        errors.append(l1_error(answer.estimate, np.asarray(truth)))
    return times, errors
