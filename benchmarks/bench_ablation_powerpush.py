"""Benchmark A1 — ablation of PowerPush's design choices.

Quantifies the two Section-5 optimisations by disabling them one at a
time (see DESIGN.md A1): dynamic-threshold epochs (epoch_num 8 vs 1)
and the queue-to-scan switch (scan threshold n/4 vs 0 vs infinity).
"""

from __future__ import annotations

import pytest

from repro.core.powerpush import PowerPushConfig, power_push
from repro.experiments.ablations import run_powerpush_ablation
from repro.experiments.config import query_sources

_VARIANTS = {
    "paper": PowerPushConfig(epoch_num=8, scan_threshold_fraction=0.25),
    "no-epochs": PowerPushConfig(epoch_num=1, scan_threshold_fraction=0.25),
    "scan-only": PowerPushConfig(epoch_num=8, scan_threshold_fraction=0.0),
    "queue-only": PowerPushConfig(
        epoch_num=8, scan_threshold_fraction=float("inf")
    ),
}


@pytest.mark.parametrize("variant", list(_VARIANTS))
def test_powerpush_variant(benchmark, workspace, variant):
    dataset = workspace.config.datasets[0]
    graph = workspace.graph(dataset)
    source = int(query_sources(graph, 1, workspace.config.seed)[0])
    l1_threshold = workspace.config.l1_threshold(graph)
    config = _VARIANTS[variant]

    result = benchmark(
        power_push,
        graph,
        source,
        l1_threshold=l1_threshold,
        config=config,
    )
    assert result.r_sum <= l1_threshold
    benchmark.extra_info["residue_updates"] = result.counters.residue_updates


def test_ablation_report(benchmark, workspace, write_report):
    result = benchmark.pedantic(
        run_powerpush_ablation, args=(workspace,), rounds=1, iterations=1
    )
    write_report("ablation_powerpush", result.render())
    for dataset, by_variant in result.updates.items():
        # The paper's design (epochs) should not need more updates than
        # the single-epoch variant.
        assert (
            by_variant["paper (8 epochs, n/4)"]
            <= by_variant["no-epochs (1 epoch, n/4)"] * 1.05
        ), dataset
