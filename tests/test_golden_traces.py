"""Golden-trace regression tests: every solver vs committed vectors.

A 200-node scale-free graph is committed as an edge list
(``tests/data/golden/graph_edges.txt``) together with the PPR vector
each registered solver produces on it under pinned parameters/seeds
(``tests/data/golden/golden_vectors.npz``).  Kernel refactors that
change any numeric path — push order, sweep vectorisation, walk
simulation, index construction — fail here instead of drifting
silently.

Tolerances are deliberately tight: deterministic solvers must match to
1e-12 (their float op sequence is part of the contract), stochastic
solvers likewise because their seeded RNG stream is pinned, and BePI
gets 1e-8 of slack for the scipy sparse factorisation.

Regenerate after an *intentional* numeric change (then justify the
diff in review), naming the solvers the change is meant to move — the
other vectors are then kept byte for byte, and ``UNMOVED_SHA256`` below
says so in the diff::

    PYTHONPATH=src python tests/test_golden_traces.py --regenerate powerpush fora

Without names, the graph fixture and every vector are rewritten.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import solve, solver_specs
from repro.core.fwdpush import forward_push
from repro.core.sim_fwdpush import simultaneous_forward_push
from repro.graph.build import from_edges

# Dependency floor: every solver against the committed golden vectors.
pytestmark = pytest.mark.floor

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"
GRAPH_FILE = GOLDEN_DIR / "graph_edges.txt"
VECTORS_FILE = GOLDEN_DIR / "golden_vectors.npz"

NUM_NODES = 200
SOURCES = (0, 17)

#: Pinned parameters per registered solver.  Every canonical solver
#: name with a registry-direct answer must appear here — the coverage
#: test enforces it, so adding a solver without committing its golden
#: trace fails CI.  (A ``tracked`` solver answers only from the pair an
#: engine maintains; its bytes are pinned against PowerPush in
#: test_incremental.py / test_engine_dynamic.py.)
CASES: dict[str, dict] = {
    "powerpush": {"l1_threshold": 1e-8},
    "powitr": {"l1_threshold": 1e-8},
    "fifo-fwdpush": {"l1_threshold": 1e-8},
    "bepi": {"delta": 1e-10},
    "montecarlo": {"num_walks": 2000, "seed": 11},
    "speedppr": {"epsilon": 0.4, "seed": 11},
    "fora": {"epsilon": 0.4, "seed": 11},
    "resacc": {"epsilon": 0.4, "seed": 11},
}

#: Golden vectors of plain functions that are not registered solvers,
#: checked through a direct call: SimFwdPush (Lemma 4.1's reference)
#: and Algorithm 1's FIFO loop (ablation A2).  Their keys keep the
#: names they were committed under.
REFERENCE_CASES = {
    "simfwdpush": lambda graph, source: simultaneous_forward_push(
        graph, source, l1_threshold=1e-8
    ),
    "fwdpush-scheduled": lambda graph, source: forward_push(
        graph, source, r_max=1e-5
    ),
}

#: Every name with a committed golden vector.
GOLDEN_CASES = (*CASES, *REFERENCE_CASES)

#: Comparison tolerance per method (absolute, rtol=0).
ATOL = {name: 1e-12 for name in GOLDEN_CASES}
ATOL["bepi"] = 1e-8


def load_golden_graph():
    edges = np.loadtxt(GRAPH_FILE, dtype=np.int64)
    return from_edges(
        [(int(u), int(v)) for u, v in edges],
        num_nodes=NUM_NODES,
        name="golden-200",
    )


def compute_vector(graph, method: str, source: int) -> np.ndarray:
    if method in REFERENCE_CASES:
        return REFERENCE_CASES[method](graph, source).estimate
    return solve(graph, source, method, **CASES[method]).estimate


#: The solvers whose vectors moved when the sweep went asynchronous.
#: ``fifo-fwdpush`` and ``fora`` (through it) run PowerPush's queue
#: rounds with one ``async_sweep`` at every queue-to-scan switch and move
#: with that kernel; ``powerpush`` and ``speedppr`` run PowerPush's scan
#: phase (``async_sweep``'s loop plus the epoch-end extrapolation) and
#: move with either.  The ``speedppr`` golden is the live path (no walk index):
#: SpeedPPR-Index skips PowerPush and is pinned in
#: ``tests/test_speedppr.py::TestIndexVariant`` instead.
SWEEP_SOLVERS = frozenset({"powerpush", "fifo-fwdpush", "speedppr", "fora"})

#: Digest of every other solver's committed vectors (sorted by key),
#: unchanged since before the sweep went asynchronous.
UNMOVED_SHA256 = (
    "3f86ef2faee6a3c9780b0cdc18cf0ecc"
    "d34b35425323b1562f00196b486aab64"
)


def unmoved_digest(archive) -> str:
    digest = hashlib.sha256()
    for key in sorted(archive.files):
        if key.split("__")[0] not in SWEEP_SOLVERS:
            digest.update(archive[key].tobytes())
    return digest.hexdigest()


def regenerate(methods: tuple[str, ...] = ()) -> None:
    """Write the golden vectors of ``methods`` (maintainer tool).

    With no ``methods``: the graph fixture and every solver's vectors.
    """
    from repro.generators.chung_lu import power_law_digraph

    unknown = set(methods) - set(GOLDEN_CASES)
    if unknown:
        sys.exit(f"no golden case for {sorted(unknown)}")
    if methods:
        with np.load(VECTORS_FILE) as archive:
            vectors = {key: archive[key] for key in archive.files}
    else:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        graph = power_law_digraph(
            NUM_NODES, 1400, rng=np.random.default_rng(2021), name="golden-200"
        )
        sources_arr, targets_arr = graph.edge_array()
        np.savetxt(
            GRAPH_FILE,
            np.column_stack([sources_arr, targets_arr]),
            fmt="%d",
            header="golden 200-node scale-free graph (u v per line)",
        )
        vectors = {}
    graph = load_golden_graph()  # round-trip, exactly what tests will see
    for method in methods or GOLDEN_CASES:
        for source in SOURCES:
            vectors[f"{method}__{source}"] = compute_vector(
                graph, method, source
            )
    np.savez_compressed(VECTORS_FILE, **vectors)
    with np.load(VECTORS_FILE) as archive:
        print(
            f"wrote {VECTORS_FILE.name}: {len(methods or GOLDEN_CASES)} solvers "
            f"recomputed, {len(vectors)} vectors, "
            f"UNMOVED_SHA256 = {unmoved_digest(archive)}"
        )


class TestFixtures:
    def test_fixture_files_committed(self):
        assert GRAPH_FILE.is_file(), "golden graph fixture missing"
        assert VECTORS_FILE.is_file(), "golden vectors fixture missing"

    def test_every_registered_solver_has_a_case(self):
        direct = {spec.name for spec in solver_specs() if not spec.tracked}
        missing = direct - set(CASES)
        assert not missing, (
            f"solvers without golden traces: {sorted(missing)} — add a "
            f"CASES entry and regenerate the fixture"
        )

    def test_solvers_off_the_sweep_kernel_did_not_move(self):
        with np.load(VECTORS_FILE) as archive:
            assert unmoved_digest(archive) == UNMOVED_SHA256, (
                "a committed vector of a solver outside SWEEP_SOLVERS "
                "changed; regenerate only the solvers meant to move"
            )

    def test_graph_shape_is_stable(self):
        graph = load_golden_graph()
        assert graph.num_nodes == NUM_NODES
        assert graph.num_edges > 1000
        assert not graph.has_dead_ends


def test_block_path_reproduces_golden_powerpush_bytes():
    """power_push_block rows == the committed powerpush vectors, exactly.

    The name is a per-source loop now (the benchmark ladder still calls
    it), so against the golden fixture the tolerance stays zero.
    """
    from repro.core.powerpush import power_push_block

    graph = load_golden_graph()
    results = power_push_block(
        graph, list(SOURCES), **CASES["powerpush"]
    )
    with np.load(VECTORS_FILE) as archive:
        for source, result in zip(SOURCES, results):
            expected = archive[f"powerpush__{source}"]
            assert np.array_equal(result.estimate, expected), (
                f"block row for source {source} is not byte-identical to "
                f"the golden powerpush vector"
            )


def test_engine_batch_block_reproduces_golden_bytes():
    """An engine batch — a per-source loop — matches the fixture too."""
    from repro.api import PPREngine

    graph = load_golden_graph()
    engine = PPREngine(graph)
    results = engine.batch_query(
        list(SOURCES), "powerpush", **CASES["powerpush"]
    )
    with np.load(VECTORS_FILE) as archive:
        for source, result in zip(SOURCES, results):
            assert np.array_equal(
                result.estimate, archive[f"powerpush__{source}"]
            )


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("method", sorted(GOLDEN_CASES))
def test_solver_matches_golden_trace(method, source):
    graph = load_golden_graph()
    with np.load(VECTORS_FILE) as archive:
        expected = archive[f"{method}__{source}"]
    actual = compute_vector(graph, method, source)
    np.testing.assert_allclose(
        actual,
        expected,
        rtol=0,
        atol=ATOL[method],
        err_msg=(
            f"{method} drifted from its golden trace (source {source}); "
            f"if the numeric change is intentional, regenerate via "
            f"'python tests/test_golden_traces.py --regenerate'"
        ),
    )


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        regenerate(tuple(sys.argv[sys.argv.index("--regenerate") + 1 :]))
    else:
        print(__doc__)
        sys.exit(1)
