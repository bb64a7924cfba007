"""Shared fixtures for the test-suite.

Fixtures provide the canonical small graphs (including the paper's
Figure 1 example), deterministic RNGs, and medium random graphs for the
integration tests.  Everything is seeded — a failing test reproduces.
"""

from __future__ import annotations

import os
import time
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
def register_spec():
    """``register_solver`` for one test.  The registry is process-global
    and registration has no inverse, so the three tables are restored
    afterwards and a throwaway spec cannot leak into the next test."""
    from repro.api import registry

    tables = (registry._REGISTRY, registry._ALIASES, registry._DISPLAY_NAMES)
    saved = [table.copy() for table in tables]
    yield registry.register_solver
    for table, snapshot in zip(tables, saved):
        table.clear()
        table.update(snapshot)


def _shm_files() -> set[str]:
    """Names of the shared-memory segments in ``/dev/shm`` that this
    process created (the pid is in the name; another test run on the
    same machine has its own)."""
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():
        return set()
    mine = f"{SEGMENT_PREFIX}_{os.getpid():x}_*"
    return {path.name for path in shm_dir.glob(mine)}


@pytest.fixture
def shm_files():
    """The function listing our segments in ``/dev/shm`` right now."""
    return _shm_files


def _mapped_segments(pid: int) -> set[str]:
    """Names of our segments in the address space of process ``pid``
    (Linux), unlinked ones included."""
    names = set()
    for line in Path(f"/proc/{pid}/maps").read_text().splitlines():
        path = line.split(None, 5)[-1]
        if path.startswith("/dev/shm/" + SEGMENT_PREFIX):
            names.add(path.removeprefix("/dev/shm/").removesuffix(" (deleted)"))
    return names


@pytest.fixture
def mapped_segments():
    """The function listing the segments a process maps; skips the
    test where ``/proc/<pid>/maps`` does not exist."""
    if not Path("/proc/self/maps").is_file():
        pytest.skip("needs /proc/<pid>/maps")
    return _mapped_segments


@pytest.fixture
def wait_for():
    """``wait_for(condition, what)``: poll until ``condition()`` holds;
    fail the test, naming ``what``, after ``timeout`` seconds."""

    def wait(condition, what, timeout=30.0):
        deadline = time.monotonic() + timeout
        while not condition():
            assert time.monotonic() < deadline, f"timed out waiting for {what}"
            time.sleep(0.02)

    return wait


@pytest.fixture
def no_leaked_segments():
    """Fail the test if it leaves one of our shared-memory segments
    behind — in this process's cleanup registry or in ``/dev/shm``."""
    before = live_segments(), _shm_files()
    yield
    assert (live_segments(), _shm_files()) == before


@pytest.fixture(autouse=True)
def _guard_segments(request):
    """Every serving and durability test runs under
    ``no_leaked_segments``: each graph update creates and retires a
    segment, so any test that builds a dispatcher can leak one.
    Function-scoped, so the baseline is taken after the module- and
    session-scoped fixtures (which may own segments) are set up."""
    if request.module.__name__.startswith(("test_serving", "test_durability")):
        request.getfixturevalue("no_leaked_segments")


def assert_close(a, b, atol=1e-10, msg=""):
    """Array closeness helper with a tight default tolerance."""
    np.testing.assert_allclose(a, b, atol=atol, rtol=0, err_msg=msg)
