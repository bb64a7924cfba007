"""Micro-benchmarks of the computational kernels.

Not a paper artefact, but the substrate behind every figure: one
global sweep (a Power-Iteration step), one small frontier push (the
local path), a batch of random walks, and the block (multi-source)
variants.  These pin down the constants that the algorithm-level
benchmarks build on, and make kernel-level performance regressions
visible in isolation.

Also runnable as a script — the CI smoke step and the
``repro-ppr bench-kernels`` subcommand share its measurement body
(:func:`repro.perf.run_kernel_bench`)::

    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke

The smoke run times block vs per-source ``batch_query`` at B in
{8, 32} — plus every requested kernel backend (numpy reference, numba
when installed; warm-up runs excluded from the timings) on the same
workload — writes ``results/BENCH_kernels.json`` (speedup, ns/edge,
scratch-allocation counts, per-backend seconds and speedups — uploaded
as a CI artifact next to ``BENCH_serving.json``), and exits nonzero
only when an answer diverges: a block row from its per-source
baseline, or a backend beyond the 1e-9 L1 tolerance from the numpy
reference.  Correctness blocks, timing informs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.kernels import (
    async_sweep,
    block_global_sweep,
    frontier_push,
    global_sweep,
    sweep_active,
)
from repro.core.residues import BlockPushState, PushState
from repro.perf.kernels import run_kernel_bench
from repro.walks.engine import simulate_walk_stops

#: The block path should beat the per-source loop by at least this at
#: B=32 on the smoke graph; below it the smoke run warns (CI's summary
#: shows the number) without failing the job — only a correctness
#: mismatch is a hard failure.
TARGET_SPEEDUP = 3.0

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
DEFAULT_JSON = RESULTS_DIR / "BENCH_kernels.json"


@pytest.fixture(scope="module")
def kernel_graph(request):
    from repro.experiments.config import bench_config
    from repro.generators.datasets import load_dataset

    graph = load_dataset(bench_config().datasets[-1])
    return graph.warm_push_caches()


def test_global_sweep(benchmark, kernel_graph):
    """One full mat-vec sweep (a PowItr iteration)."""

    def run():
        state = PushState(kernel_graph, 0)
        global_sweep(state)
        return state

    state = benchmark(run)
    assert state.r_sum < 1.0


def test_async_sweep(benchmark, kernel_graph):
    """One chunked asynchronous sweep (a PowerPush scan pass)."""

    def run():
        state = PushState(kernel_graph, 0)
        async_sweep(state)
        return state

    state = benchmark(run)
    assert state.r_sum < 1.0


def test_frontier_push_small(benchmark, kernel_graph):
    """Local push of a 64-node frontier (queue-phase workload)."""
    rng = np.random.default_rng(0)
    frontier = np.sort(
        rng.choice(kernel_graph.num_nodes, size=64, replace=False)
    ).astype(np.int64)

    def run():
        state = PushState(kernel_graph, 0)
        state.residue[:] = 1.0 / kernel_graph.num_nodes
        state.refresh_r_sum()
        frontier_push(state, frontier)
        return state

    state = benchmark(run)
    assert state.counters.pushes == 64


def test_sweep_active_mixed(benchmark, kernel_graph):
    """Auto-switching sweep at a mid-range threshold."""

    def run():
        state = PushState(kernel_graph, 0)
        for _ in range(3):
            sweep_active(state, 1e-5)
        return state

    state = benchmark(run)
    assert state.counters.pushes > 0


def test_walk_batch(benchmark, kernel_graph):
    """10k alpha-walks from random starts (Monte-Carlo workload)."""
    rng = np.random.default_rng(1)
    starts = rng.integers(
        0, kernel_graph.num_nodes, size=10_000, dtype=np.int64
    )

    def run():
        stops, steps = simulate_walk_stops(
            kernel_graph, starts, alpha=0.2, rng=rng, source=0
        )
        return stops

    stops = benchmark(run)
    assert stops.shape[0] == 10_000


def test_block_global_sweep(benchmark, kernel_graph):
    """One 16-row block mat-mat sweep vs state setup."""
    sources = list(range(16))

    def run():
        state = BlockPushState(kernel_graph, sources)
        block_global_sweep(state, np.arange(state.num_rows))
        return state

    state = benchmark(run)
    assert float(state.r_sum.max()) < 1.0


def test_block_batch_equivalence(benchmark, write_report):
    """The headline run: correctness blocks, timing only informs."""
    report = benchmark.pedantic(
        run_kernel_bench, kwargs={"repeats": 1}, rounds=1, iterations=1
    )
    write_report("kernels_block", report.render())
    assert report.identical, "block answers diverged from per-source solves"
    # Wall-clock ratios are machine-dependent — surfaced, not asserted.
    benchmark.extra_info["speedup_b32"] = report.speedup_at(32)


def main(argv: list[str] | None = None) -> int:
    """Script entry point; ``--smoke`` runs the seconds-scale CI check."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small deterministic run checking block == per-source",
    )
    # Default to None so --smoke only shrinks sizes the user left unset.
    parser.add_argument("--scale", type=int, default=None)
    parser.add_argument("--edges", type=int, default=None)
    parser.add_argument(
        "--batch-sizes",
        default="8,32",
        help="comma-separated batch sizes (default 8,32)",
    )
    parser.add_argument("--l1-threshold", type=float, default=1e-8)
    parser.add_argument("--alpha", type=float, default=0.2)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--backends",
        default="auto",
        help=(
            "comma-separated kernel backends to compare "
            "(default 'auto': numpy plus numba when importable)"
        ),
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_JSON,
        help=f"metrics JSON path (default {DEFAULT_JSON})",
    )
    args = parser.parse_args(argv)

    defaults = (8, 2_000) if args.smoke else (10, 16_000)
    scale, edges = (
        given if given is not None else fallback
        for given, fallback in zip((args.scale, args.edges), defaults)
    )
    batch_sizes = tuple(
        int(token) for token in args.batch_sizes.split(",") if token.strip()
    )
    if not batch_sizes:
        parser.error("--batch-sizes needs at least one integer")

    report = run_kernel_bench(
        scale=scale,
        edges=edges,
        batch_sizes=batch_sizes,
        l1_threshold=args.l1_threshold,
        alpha=args.alpha,
        seed=args.seed,
        repeats=args.repeats,
        backends=args.backends,
    )
    print(report.render())
    path = report.write_json(args.out)
    print(f"metrics written to {path}")

    # Timing is machine-dependent: WARN, don't fail (the CI contract
    # blocks on correctness only — a FAIL verdict means divergence).
    verdict = report.assessment(TARGET_SPEEDUP)
    print(verdict)
    return 1 if verdict.startswith("FAIL") else 0


if __name__ == "__main__":
    sys.exit(main())
