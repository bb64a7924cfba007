"""Shared fixtures for the test-suite.

Fixtures provide the canonical small graphs (including the paper's
Figure 1 example), deterministic RNGs, and medium random graphs for the
integration tests.  Everything is seeded — a failing test reproduces.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.generators.chung_lu import power_law_digraph
from repro.graph.build import (
    complete_graph,
    cycle_graph,
    from_edges,
    paper_example_graph,
    star_graph,
)
from repro.serving.shm import SEGMENT_PREFIX, live_segments


@pytest.fixture
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def paper_graph():
    """The 5-node graph of the paper's Figure 1 (source v1 = node 0)."""
    return paper_example_graph()


@pytest.fixture
def tiny_cycle():
    """Directed 4-cycle: simplest strongly connected fixture."""
    return cycle_graph(4)


@pytest.fixture
def tiny_complete():
    """Complete digraph on 5 nodes."""
    return complete_graph(5)


@pytest.fixture
def dead_end_graph():
    """Star with out-only edges: every leaf is a dead end."""
    return star_graph(4, bidirectional=False, name="dead-end-star")


@pytest.fixture
def two_node_graph():
    """a <-> b: the smallest graph with non-trivial PPR."""
    return from_edges([(0, 1), (1, 0)], name="two-node")


@pytest.fixture(scope="session")
def medium_graph():
    """A 300-node scale-free digraph shared by the slower tests."""
    return power_law_digraph(
        300, 1800, rng=np.random.default_rng(777), name="medium"
    )


@pytest.fixture(scope="session")
def small_random_graphs():
    """A family of random digraphs with varying density (session-cached)."""
    graphs = []
    for seed, (n, m) in enumerate([(20, 60), (50, 200), (80, 700)]):
        graphs.append(
            power_law_digraph(
                n, m, rng=np.random.default_rng(1000 + seed), name=f"rand-{n}"
            )
        )
    return graphs


@pytest.fixture
def no_leaked_segments():
    """Fail the test if it leaves one of our shared-memory segments
    behind — in this process's cleanup registry or in ``/dev/shm``."""

    def snapshot():
        shm_dir = Path("/dev/shm")
        on_disk = sorted(shm_dir.glob(SEGMENT_PREFIX + "*")) if shm_dir.is_dir() else []
        return live_segments(), on_disk

    before = snapshot()
    yield
    assert snapshot() == before


def assert_close(a, b, atol=1e-10, msg=""):
    """Array closeness helper with a tight default tolerance."""
    np.testing.assert_allclose(a, b, atol=atol, rtol=0, err_msg=msg)
