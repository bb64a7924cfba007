"""Benchmark F7 — Figure 7: approximate query time vs eps.

Per-(algorithm, eps) pytest-benchmark timings on one dataset plus the
full figure harness with the paper's shape assertions:

* SpeedPPR-Index is the fastest approximate method across eps;
* every sampling method slows down as eps shrinks, while the
  high-precision PowerPush baseline stays flat;
* SpeedPPR's own cost grows much slower than FORA's (log(1/eps) vs
  1/eps — the Theorem 6.1 improvement).
"""

from __future__ import annotations

import pytest

from repro.baselines.fora import fora
from repro.baselines.resacc import resacc
from repro.core.speedppr import speed_ppr
from repro.experiments.config import query_sources
from repro.experiments.fig7 import run_fig7

_METHODS = ("SpeedPPR", "SpeedPPR-Index", "FORA", "FORA-Index", "ResAcc")
_EPS_POINTS = (0.5, 0.1)


def _approx_query(workspace, dataset, method, epsilon, source, salt):
    graph = workspace.graph(dataset)
    rng = workspace.rng(salt=salt)
    if method == "SpeedPPR":
        return speed_ppr(graph, source, epsilon=epsilon, rng=rng)
    if method == "SpeedPPR-Index":
        return speed_ppr(
            graph,
            source,
            epsilon=epsilon,
            walk_index=workspace.speedppr_index(dataset),
        )
    if method == "FORA":
        return fora(graph, source, epsilon=epsilon, rng=rng)
    if method == "FORA-Index":
        return fora(
            graph,
            source,
            epsilon=epsilon,
            walk_index=workspace.fora_index(dataset, min(_EPS_POINTS)),
        )
    return resacc(graph, source, epsilon=epsilon, rng=rng)


@pytest.mark.parametrize("epsilon", _EPS_POINTS, ids=lambda e: f"eps{e}")
@pytest.mark.parametrize("method", _METHODS)
def test_approx_query(benchmark, workspace, method, epsilon):
    dataset = workspace.config.datasets[0]
    graph = workspace.graph(dataset)
    if method.endswith("Index"):
        _approx_query(workspace, dataset, method, epsilon, 0, 0)  # warm index
    source = int(query_sources(graph, 1, workspace.config.seed)[0])
    salt_holder = [0]

    def run():
        salt_holder[0] += 1
        return _approx_query(
            workspace, dataset, method, epsilon, source, salt_holder[0]
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.estimate.shape[0] == graph.num_nodes


def test_fig7_report(benchmark, workspace, write_report):
    result = benchmark.pedantic(
        run_fig7, args=(workspace,), rounds=1, iterations=1
    )
    write_report("fig7", result.render())

    eps = result.epsilons
    small, large = eps.index(min(eps)), eps.index(max(eps))
    for dataset, by_method in result.seconds.items():
        # SpeedPPR-Index fastest approximate method at the smallest eps.
        fastest = min(
            by_method[m][small]
            for m in ("SpeedPPR", "FORA", "FORA-Index", "ResAcc")
        )
        assert by_method["SpeedPPR-Index"][small] <= fastest * 1.25, dataset
        # Sampling cost grows as eps shrinks.
        assert (
            by_method["FORA"][small] > by_method["FORA"][large]
        ), dataset
        # SpeedPPR scales better than FORA from large to small eps.
        speed_growth = by_method["SpeedPPR"][small] / max(
            by_method["SpeedPPR"][large], 1e-9
        )
        fora_growth = by_method["FORA"][small] / max(
            by_method["FORA"][large], 1e-9
        )
        assert speed_growth <= fora_growth, dataset
