"""Benchmark F4 — Figure 4: high-precision query time per dataset.

Two layers:

* per-(dataset, algorithm) pytest-benchmark timings — the raw data
  behind Figure 4's bars, measured by the benchmark machinery itself;
* the figure harness run, which produces the ``c.cx``-annotated table
  (written to ``results/fig4.txt``) and the paper-shape assertions.
"""

from __future__ import annotations

import pytest

from repro.bepi.solver import bepi_query
from repro.core.fifo_fwdpush import fifo_forward_push
from repro.core.power_iteration import power_iteration
from repro.core.powerpush import power_push
from repro.experiments.config import query_sources
from repro.experiments.fig4 import run_fig4

_ALGORITHMS = ("PowerPush", "BePI", "FIFO-FwdPush", "PowItr")


def _query_once(workspace, dataset, algorithm, source):
    graph = workspace.graph(dataset)
    l1_threshold = workspace.config.l1_threshold(graph)
    if algorithm == "PowerPush":
        return power_push(graph, source, l1_threshold=l1_threshold)
    if algorithm == "PowItr":
        return power_iteration(graph, source, l1_threshold=l1_threshold)
    if algorithm == "FIFO-FwdPush":
        return fifo_forward_push(graph, source, l1_threshold=l1_threshold)
    index = workspace.bepi_index(dataset)
    return bepi_query(graph, index, source, delta=l1_threshold)


def pytest_generate_tests(metafunc):
    if {"dataset", "algorithm"} <= set(metafunc.fixturenames):
        from repro.experiments.config import bench_config

        datasets = bench_config().datasets
        metafunc.parametrize(
            "dataset,algorithm",
            [(d, a) for d in datasets for a in _ALGORITHMS],
            ids=[f"{d}-{a}" for d in datasets for a in _ALGORITHMS],
        )


def test_hp_query(benchmark, workspace, dataset, algorithm):
    """One high-precision query, timed by pytest-benchmark."""
    graph = workspace.graph(dataset)
    if algorithm == "BePI":
        workspace.bepi_index(dataset)  # exclude construction, as paper
    source = int(query_sources(graph, 1, workspace.config.seed)[0])
    result = benchmark(_query_once, workspace, dataset, algorithm, source)
    if result.residue is not None:
        assert result.r_sum <= workspace.config.l1_threshold(graph)


def test_fig4_report(benchmark, workspace, write_report):
    result = benchmark.pedantic(
        run_fig4, args=(workspace,), rounds=1, iterations=1
    )
    write_report("fig4", result.render())
    for dataset, by_method in result.seconds.items():
        # Paper shape: PowerPush beats BePI's query time on all but the
        # smallest dataset; at NumPy scale we assert it is never more
        # than 1.5x BePI anywhere and faster somewhere.
        assert (
            by_method["PowerPush"] <= 1.5 * by_method["BePI"]
        ), dataset
    wins = sum(
        by_method["PowerPush"] <= by_method["BePI"]
        for by_method in result.seconds.values()
    )
    assert wins >= max(1, len(result.seconds) - 1)
