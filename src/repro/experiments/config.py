"""Experiment configuration, with environment overrides for quick runs.

The paper's full protocol (six datasets, 30 random sources, five eps
values; :func:`full_config`, ``repro-ppr run --full``) runs in minutes
at our default synthetic scales.  ``repro-ppr run`` without ``--full``
uses :func:`bench_config`, which honours two environment variables:

* ``REPRO_BENCH_DATASETS`` — comma-separated dataset subset,
* ``REPRO_BENCH_SOURCES``  — number of random query sources.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError
from repro.generators.datasets import dataset_names
from repro.graph.digraph import DiGraph

__all__ = ["ExperimentConfig", "bench_config", "full_config", "query_sources"]

#: eps values of Figures 7-8, in the paper's order (large to small).
EPSILONS = (0.5, 0.4, 0.3, 0.2, 0.1)

#: alpha used everywhere in the paper.
ALPHA = 0.2


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every experiment runner."""

    datasets: tuple[str, ...] = tuple(dataset_names())
    num_sources: int = 5
    alpha: float = ALPHA
    epsilons: tuple[float, ...] = EPSILONS
    seed: int = 2021
    trace_stride_edges: int = 4  # paper: sample every 4*m edge pushes

    def l1_threshold(self, graph: DiGraph) -> float:
        """The paper's HP default ``lambda = min(1e-8, 1/m)``."""
        return min(1e-8, 1.0 / max(graph.num_edges, 1))


def full_config() -> ExperimentConfig:
    """The paper's full protocol (30 sources, all datasets, all eps)."""
    return ExperimentConfig(num_sources=30)


def bench_config() -> ExperimentConfig:
    """Configuration for ``repro-ppr run`` without ``--full``.

    Defaults to a representative 3-dataset subset and 3 sources so
    ``repro-ppr run all`` finishes in about a minute; see the module
    docstring for the environment overrides.
    """
    names = os.environ.get("REPRO_BENCH_DATASETS", "")
    if names:
        datasets = tuple(part.strip() for part in names.split(",") if part.strip())
        known = set(dataset_names())
        unknown = [d for d in datasets if d not in known]
        if unknown:
            raise ParameterError(
                f"unknown datasets in REPRO_BENCH_DATASETS: {unknown}; "
                f"available: {sorted(known)}"
            )
    else:
        datasets = ("dblp-s", "pokec-s", "orkut-s")
    sources_raw = os.environ.get("REPRO_BENCH_SOURCES", "3")
    try:
        num_sources = int(sources_raw)
    except ValueError as exc:
        raise ParameterError(
            f"REPRO_BENCH_SOURCES={sources_raw!r} is not an integer"
        ) from exc
    if num_sources < 1:
        raise ParameterError("REPRO_BENCH_SOURCES must be >= 1")
    return ExperimentConfig(datasets=datasets, num_sources=num_sources)


def query_sources(
    graph: DiGraph, count: int, seed: int = 2021
) -> np.ndarray:
    """The paper's protocol: ``count`` sources uniformly at random.

    Deterministic given ``(graph size, seed)`` so all algorithms answer
    the same queries.
    """
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed + graph.num_nodes)
    return rng.integers(0, graph.num_nodes, size=count, dtype=np.int64)
