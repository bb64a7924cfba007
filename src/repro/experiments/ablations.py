"""Ablation experiments A1 and A2 (DESIGN.md).

The paper motivates PowerPush's two design choices qualitatively
(Section 5); these ablations quantify them on our substrate:

* **A1 — PowerPush design grid**: vary ``epoch_num`` (1 = no dynamic
  threshold vs the paper's 8) and ``scan_threshold`` (0 = always scan,
  n/4 = paper default, inf = never scan i.e. pure frontier pushes) and
  report time and residue updates to reach lambda.
* **A2 — FwdPush scheduling**: FIFO vs LIFO vs greedy max-residue on
  Algorithm 1's scalar loop, :func:`~repro.core.fwdpush.forward_push`,
  called directly (it is not a registered solver); reports pushes and
  residue updates to termination (the claim behind Theorem 4.3 is that
  FIFO's iteration structure is what yields the log(1/lambda)
  dependence).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.fwdpush import forward_push
from repro.core.powerpush import PowerPushConfig
from repro.experiments.config import query_sources
from repro.experiments.report import Claim, format_claims, format_seconds, format_table
from repro.experiments.workspace import Workspace

__all__ = [
    "PowerPushAblationResult",
    "run_powerpush_ablation",
    "SchedulingAblationResult",
    "run_scheduling_ablation",
]

#: (label, epoch_num, scan_threshold_fraction)
POWERPUSH_VARIANTS = (
    ("paper (8 epochs, n/4)", 8, 0.25),
    ("no-epochs (1 epoch, n/4)", 1, 0.25),
    ("scan-only (8 epochs, 0)", 8, 0.0),
    ("queue-only (8 epochs, inf)", 8, float("inf")),
)

SCHEDULERS = ("fifo", "lifo", "max-residue")


@dataclass
class PowerPushAblationResult:
    """(dataset, variant) -> average seconds and residue updates."""

    seconds: dict[str, dict[str, float]] = field(default_factory=dict)
    updates: dict[str, dict[str, float]] = field(default_factory=dict)
    #: (dataset, variant) -> the largest ``r_sum`` over the sources
    max_r_sum: dict[str, dict[str, float]] = field(default_factory=dict)
    l1_thresholds: dict[str, float] = field(default_factory=dict)

    def rows(self) -> list[list[str]]:
        rows = []
        for dataset in self.seconds:
            for label, _, _ in POWERPUSH_VARIANTS:
                rows.append(
                    [
                        dataset,
                        label,
                        format_seconds(self.seconds[dataset][label]),
                        f"{self.updates[dataset][label]:.3e}",
                    ]
                )
        return rows

    def claims(self) -> list[Claim]:
        claims: list[Claim] = []
        paper, flat = POWERPUSH_VARIANTS[0][0], POWERPUSH_VARIANTS[1][0]
        for dataset, updates in self.updates.items():
            l1_threshold = self.l1_thresholds[dataset]
            claims.append((f"{dataset}: {paper} needs at most 1.05x the updates of {flat} "
                           f"({updates[paper]:.3e} vs {updates[flat]:.3e})",
                           updates[paper] <= updates[flat] * 1.05))
            claims += [
                (f"{dataset} {label}: r_sum <= lambda (largest {r_sum:.2e}, "
                 f"lambda {l1_threshold:.0e})", r_sum <= l1_threshold)
                for label, r_sum in self.max_r_sum[dataset].items()
            ]
        return claims

    def render(self) -> str:
        table = format_table(
            ["dataset", "variant", "avg time", "avg residue updates"],
            self.rows(),
            title="Ablation A1 — PowerPush design choices",
        )
        return f"{table}\n\n{format_claims(self.claims())}"


def run_powerpush_ablation(
    workspace: Workspace | None = None,
) -> PowerPushAblationResult:
    """Run the PowerPush configuration grid."""
    workspace = workspace or Workspace()
    config = workspace.config
    result = PowerPushAblationResult()
    for name in config.datasets:
        graph = workspace.graph(name)
        engine = workspace.engine(name)
        l1_threshold = config.l1_threshold(graph)
        sources = query_sources(graph, config.num_sources, config.seed)
        result.seconds[name] = {}
        result.updates[name] = {}
        result.max_r_sum[name] = {}
        result.l1_thresholds[name] = l1_threshold
        for label, epoch_num, scan_fraction in POWERPUSH_VARIANTS:
            pp_config = PowerPushConfig(
                epoch_num=epoch_num,
                scan_threshold_fraction=scan_fraction,
            )
            total_seconds = 0.0
            total_updates = 0
            max_r_sum = 0.0
            for source in sources.tolist():
                started = time.perf_counter()
                answer = engine.query(
                    source,
                    method="powerpush",
                    l1_threshold=l1_threshold,
                    config=pp_config,
                )
                total_seconds += time.perf_counter() - started
                total_updates += answer.counters.residue_updates
                max_r_sum = max(max_r_sum, answer.r_sum)
            result.seconds[name][label] = total_seconds / len(sources)
            result.updates[name][label] = total_updates / len(sources)
            result.max_r_sum[name][label] = max_r_sum
    return result


@dataclass
class SchedulingAblationResult:
    """(dataset, scheduler) -> pushes / updates on the scalar FwdPush."""

    pushes: dict[str, dict[str, float]] = field(default_factory=dict)
    updates: dict[str, dict[str, float]] = field(default_factory=dict)

    def rows(self) -> list[list[str]]:
        rows = []
        for dataset in self.pushes:
            for scheduler in SCHEDULERS:
                rows.append(
                    [
                        dataset,
                        scheduler,
                        f"{self.pushes[dataset][scheduler]:.0f}",
                        f"{self.updates[dataset][scheduler]:.3e}",
                    ]
                )
        return rows

    def claims(self) -> list[Claim]:
        return [
            (f"{dataset}: FIFO needs at most 1.2x LIFO's residue updates "
             f"({updates['fifo']:.3e} vs {updates['lifo']:.3e})",
             updates["fifo"] <= updates["lifo"] * 1.2)
            for dataset, updates in self.updates.items()
        ]

    def render(self) -> str:
        table = format_table(
            ["dataset", "scheduler", "avg pushes", "avg residue updates"],
            self.rows(),
            title="Ablation A2 — FwdPush scheduling orders (scalar loop)",
        )
        return f"{table}\n\n{format_claims(self.claims())}"


def run_scheduling_ablation(
    workspace: Workspace | None = None,
    *,
    r_max_scale: float = 1e-1,
) -> SchedulingAblationResult:
    """Compare push schedulers at ``r_max = r_max_scale / m``.

    The scalar loop is Python-speed — and LIFO/greedy orders only enjoy
    the ``O(1/r_max)`` bound, which is exactly what this ablation
    demonstrates — so it runs at a much milder threshold than the HP
    default.  The *relative* ordering of the schedulers is the target.
    """
    workspace = workspace or Workspace()
    config = workspace.config
    result = SchedulingAblationResult()
    for name in config.datasets:
        graph = workspace.graph(name)
        r_max = r_max_scale / max(graph.num_edges, 1)
        sources = query_sources(
            graph, min(config.num_sources, 2), config.seed
        )
        result.pushes[name] = {}
        result.updates[name] = {}
        for scheduler in SCHEDULERS:
            total_pushes = 0
            total_updates = 0
            for source in sources.tolist():
                answer = forward_push(
                    graph,
                    source,
                    alpha=config.alpha,
                    r_max=r_max,
                    scheduler=scheduler,
                )
                total_pushes += answer.counters.pushes
                total_updates += answer.counters.residue_updates
            result.pushes[name][scheduler] = total_pushes / len(sources)
            result.updates[name][scheduler] = total_updates / len(sources)
    return result
