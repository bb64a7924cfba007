"""Benchmark A2 — ablation of FwdPush scheduling orders.

Compares FIFO (the analysed Algorithm 2 order), LIFO, and greedy
max-residue on Algorithm 1's scalar loop,
:func:`repro.core.fwdpush.forward_push` (a plain function, not a
registered solver), counting pushes and residue updates to
termination.  Theorem 4.3's message is that the
FIFO order achieves the O(m log(1/lambda)) bound; this ablation shows
it is also (near-)best in practice among simple orders.
"""

from __future__ import annotations

import pytest

from repro.core.fwdpush import forward_push
from repro.experiments.ablations import run_scheduling_ablation
from repro.experiments.config import query_sources

_R_MAX_SCALE = 1e-2  # scalar-loop friendly; relative ordering is the target


@pytest.mark.parametrize("scheduler", ["fifo", "lifo", "max-residue"])
def test_scheduler(benchmark, workspace, scheduler):
    dataset = workspace.config.datasets[0]
    graph = workspace.graph(dataset)
    source = int(query_sources(graph, 1, workspace.config.seed)[0])
    r_max = _R_MAX_SCALE / graph.num_edges

    result = benchmark.pedantic(
        forward_push,
        args=(graph, source),
        kwargs={"r_max": r_max, "scheduler": scheduler},
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["pushes"] = result.counters.pushes
    benchmark.extra_info["residue_updates"] = result.counters.residue_updates


def test_scheduling_report(benchmark, workspace, write_report):
    result = benchmark.pedantic(
        run_scheduling_ablation, args=(workspace,), rounds=1, iterations=1
    )
    write_report("ablation_scheduling", result.render())
    for dataset, by_scheduler in result.updates.items():
        # FIFO should not lose badly to LIFO anywhere.
        assert (
            by_scheduler["fifo"] <= by_scheduler["lifo"] * 1.2
        ), dataset
