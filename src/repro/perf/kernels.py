"""Block-kernel benchmark: batched PowerPush vs the per-source loop.

Measures the tentpole claim of the multi-source kernel layer on one
serving-sized R-MAT graph: answering ``B`` high-precision queries with
one :func:`~repro.core.powerpush.power_push_block` solve versus looping
:meth:`~repro.api.engine.PPREngine.batch_query` one source at a time.
For every batch size it reports

* wall seconds of both paths and their ratio (the headline speedup),
* nanoseconds per residue update on the block path (the ns/edge cost
  the paper's operation counting normalises by),
* scratch-buffer reuse from the threaded
  :class:`~repro.core.workspace.Workspace` (allocation churn next to
  the timing numbers, so regressions in either show up together), and
* whether every block row is element-wise identical to its independent
  solve — the correctness half, which CI treats as blocking while the
  timing half is informational.

Backend comparison
------------------
The same run also times every requested **kernel backend**
(:mod:`repro.backends`) on the identical workload — single-source
PowerPush and the block solve at each batch size — with an untimed
warm-up per backend first, so JIT compilation (the numba backend's
``@njit(cache=True)`` first call) never lands inside a timed region.
Per backend the report carries best-of-``repeats`` seconds, the
speedup over the ``numpy`` reference, and the max L1 deviation from
the reference answers (compiled loops re-associate float sums, so the
gate is a tolerance — :data:`DEVIATION_TOLERANCE` — not bitwise
equality, which only the reference itself must satisfy).  Backends
requested but not importable (numba without the optional extra) are
recorded in ``skipped_backends`` rather than silently measured as
numpy-in-disguise.

Sweep kernels
-------------
One more section times the two whole-graph kernels side by side on the
reference backend: the synchronous :func:`~repro.core.kernels.global_sweep`
(what PowItr is built on, and what ``benchmarks/e2e/layers.py`` probes)
and the chunked :func:`~repro.core.kernels.async_sweep` of PowerPush's
scan phase — nanoseconds per edge of one call on a dense state, how
many calls of each alone bring ``r_sum`` from 1 to ``l1_threshold``,
and the resulting PowerPush/PowItr residue-update ratio (exact counts;
the paper's Figure 6 has it at roughly one half).

Consumed by ``benchmarks/bench_kernels.py --smoke`` (the CI artifact
``results/BENCH_kernels.json``) and ``repro-ppr bench-kernels``.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.api.engine import PPREngine
from repro.backends import (
    available_backends,
    get_backend,
    registered_backends,
)
from repro.core.kernels import async_sweep, global_sweep
from repro.core.power_iteration import power_iteration
from repro.core.powerpush import power_push, power_push_block
from repro.core.residues import PushState
from repro.core.workspace import Workspace
from repro.durability.atomic import atomic_write_json
from repro.errors import ParameterError
from repro.generators.rmat import rmat_digraph

__all__ = [
    "DEVIATION_TOLERANCE",
    "BackendMetrics",
    "KernelBatchMetrics",
    "KernelBenchReport",
    "SweepMetrics",
    "run_kernel_bench",
]

#: Max L1 deviation a non-reference backend may show against the numpy
#: answers before the bench verdict is a FAIL (compiled sequential sums
#: vs NumPy pairwise sums re-associate floats; beyond this is a bug).
DEVIATION_TOLERANCE = 1e-9


@dataclass
class KernelBatchMetrics:
    """Measurements for one batch size ``B``."""

    batch_size: int
    seconds_loop: float
    seconds_block: float
    identical: bool
    residue_updates: int
    workspace: dict[str, int]

    @property
    def speedup(self) -> float:
        """Per-source loop seconds over block seconds."""
        if self.seconds_block == 0.0:
            return 0.0
        return self.seconds_loop / self.seconds_block

    @property
    def ns_per_edge(self) -> float:
        """Block nanoseconds per residue update (edge pushing)."""
        if not self.residue_updates:
            return 0.0
        return self.seconds_block * 1e9 / self.residue_updates

    def as_dict(self) -> dict[str, Any]:
        return {
            "batch_size": self.batch_size,
            "seconds_loop": self.seconds_loop,
            "seconds_block": self.seconds_block,
            "speedup": self.speedup,
            "ns_per_edge_block": self.ns_per_edge,
            "residue_updates": self.residue_updates,
            "identical": self.identical,
            "workspace": dict(self.workspace),
        }


@dataclass
class BackendMetrics:
    """Timings of one kernel backend on the shared workload."""

    backend: str
    compiled: bool
    seconds_single: float
    #: batch size -> best block-solve seconds
    seconds_block: dict[int, float]
    #: max L1 distance of any answer from the numpy reference's
    max_l1_deviation: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "backend": self.backend,
            "compiled": self.compiled,
            "seconds_single": self.seconds_single,
            "seconds_block": {
                str(size): seconds
                for size, seconds in sorted(self.seconds_block.items())
            },
            "max_l1_deviation": self.max_l1_deviation,
        }


@dataclass
class SweepMetrics:
    """``global_sweep`` beside ``async_sweep`` (reference backend)."""

    ns_per_edge_global: float
    ns_per_edge_async: float
    #: calls of the kernel alone from ``e_s`` until ``r_sum <= l1_threshold``
    sweeps_to_l1_global: int
    sweeps_to_l1_async: int
    powerpush_residue_updates: int
    powitr_residue_updates: int

    @property
    def update_ratio(self) -> float:
        """PowerPush residue updates over PowItr's (Figure 6: ~0.5)."""
        return self.powerpush_residue_updates / self.powitr_residue_updates

    def as_dict(self) -> dict[str, Any]:
        return {
            **asdict(self),
            "powerpush_over_powitr_updates": self.update_ratio,
        }


@dataclass
class KernelBenchReport:
    """Everything one kernel bench run measured."""

    graph_name: str
    num_nodes: int
    num_edges: int
    l1_threshold: float
    alpha: float
    seed: int
    batches: list[KernelBatchMetrics] = field(default_factory=list)
    backends: list[BackendMetrics] = field(default_factory=list)
    skipped_backends: list[str] = field(default_factory=list)
    sweeps: SweepMetrics | None = None

    @property
    def identical(self) -> bool:
        """True when every batch matched its per-source baseline."""
        return all(batch.identical for batch in self.batches)

    @property
    def backends_within_tolerance(self) -> bool:
        """True when every measured backend stayed within the L1 gate."""
        return all(
            metrics.max_l1_deviation <= DEVIATION_TOLERANCE
            for metrics in self.backends
        )

    def speedup_at(self, batch_size: int) -> float:
        for batch in self.batches:
            if batch.batch_size == batch_size:
                return batch.speedup
        raise KeyError(f"no batch of size {batch_size} was measured")

    def backend_metrics(self, name: str) -> BackendMetrics:
        for metrics in self.backends:
            if metrics.backend == name:
                return metrics
        raise KeyError(f"backend {name!r} was not measured")

    def backend_speedup(
        self, name: str, batch_size: int | None = None
    ) -> float:
        """``name``'s speedup over the numpy reference on this workload.

        ``batch_size=None`` compares the single-source solve; a batch
        size compares the block solve of that width.
        """
        reference = self.backend_metrics("numpy")
        candidate = self.backend_metrics(name)
        if batch_size is None:
            base, other = reference.seconds_single, candidate.seconds_single
        else:
            base = reference.seconds_block[batch_size]
            other = candidate.seconds_block[batch_size]
        return base / other if other else 0.0

    def _backend_speedups(self) -> dict[str, Any]:
        """Per-backend speedups over numpy, for the JSON artifact."""
        if not any(m.backend != "numpy" for m in self.backends):
            return {}
        speedups: dict[str, Any] = {}
        for metrics in self.backends:
            if metrics.backend == "numpy":
                continue
            speedups[metrics.backend] = {
                "single_source": self.backend_speedup(metrics.backend),
                "block": {
                    str(size): self.backend_speedup(metrics.backend, size)
                    for size in sorted(metrics.seconds_block)
                },
            }
        return speedups

    def to_dict(self) -> dict[str, Any]:
        return {
            "graph": {
                "name": self.graph_name,
                "num_nodes": self.num_nodes,
                "num_edges": self.num_edges,
            },
            "l1_threshold": self.l1_threshold,
            "alpha": self.alpha,
            "seed": self.seed,
            "identical": self.identical,
            "batches": [batch.as_dict() for batch in self.batches],
            "backends": [metrics.as_dict() for metrics in self.backends],
            "backend_speedups": self._backend_speedups(),
            "skipped_backends": list(self.skipped_backends),
            "sweeps": self.sweeps.as_dict() if self.sweeps else None,
        }

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(path, self.to_dict())
        return path

    def assessment(self, target_speedup: float) -> str:
        """One-line verdict shared by every wrapper (script, CLI, CI).

        Correctness blocks, timing informs: a divergence is a FAIL, a
        speedup below ``target_speedup`` at the largest batch size only
        a WARN — keeping the wording in one place so the entry points
        cannot drift.
        """
        if not self.identical:
            return "FAIL: block answers diverged from the per-source baseline"
        if not self.backends_within_tolerance:
            worst = max(self.backends, key=lambda m: m.max_l1_deviation)
            return (
                f"FAIL: backend {worst.backend!r} deviated "
                f"{worst.max_l1_deviation:.3e} L1 from the numpy reference "
                f"(tolerance {DEVIATION_TOLERANCE:g})"
            )
        largest = max(batch.batch_size for batch in self.batches)
        speedup = self.speedup_at(largest)
        if speedup < target_speedup:
            best = max(batch.speedup for batch in self.batches)
            return (
                f"WARN: block speedup {speedup:.2f}x at B={largest} below "
                f"the {target_speedup:.1f}x target (best {best:.2f}x)"
            )
        # Compiled backends should clear 2x over the reference on both
        # the single-source and widest-block paths; like all timing
        # here this WARNs rather than fails.
        for metrics in self.backends:
            if not metrics.compiled:
                continue
            single = self.backend_speedup(metrics.backend)
            block = self.backend_speedup(metrics.backend, largest)
            if min(single, block) < 2.0:
                return (
                    f"WARN: backend {metrics.backend!r} speedup over numpy "
                    f"below the 2.0x target (single {single:.2f}x, "
                    f"B={largest} {block:.2f}x); answers within tolerance"
                )
        return (
            f"OK: block batch_query {speedup:.2f}x faster than the "
            f"per-source loop at B={largest}, element-wise identical answers"
        )

    def render(self) -> str:
        lines = [
            f"kernel bench [{self.graph_name}] n={self.num_nodes} "
            f"m={self.num_edges} l1={self.l1_threshold:g} alpha={self.alpha}",
        ]
        for batch in self.batches:
            ws = batch.workspace
            lines.append(
                f"  B={batch.batch_size:<3d} loop {batch.seconds_loop * 1e3:8.1f} ms   "
                f"block {batch.seconds_block * 1e3:8.1f} ms   "
                f"speedup {batch.speedup:5.2f}x   "
                f"{batch.ns_per_edge:6.1f} ns/edge   "
                f"identical={batch.identical}   "
                f"scratch {ws.get('reused', 0)}/{ws.get('requests', 0)} reused"
            )
        for metrics in self.backends:
            blocks = "   ".join(
                f"B={size} {seconds * 1e3:8.1f} ms"
                + (
                    f" ({self.backend_speedup(metrics.backend, size):.2f}x)"
                    if metrics.backend != "numpy"
                    else ""
                )
                for size, seconds in sorted(metrics.seconds_block.items())
            )
            single = f"single {metrics.seconds_single * 1e3:8.1f} ms"
            if metrics.backend != "numpy":
                single += f" ({self.backend_speedup(metrics.backend):.2f}x)"
            lines.append(
                f"  backend {metrics.backend:<6s} {single}   {blocks}   "
                f"max|dev|={metrics.max_l1_deviation:.1e}"
            )
        for name in self.skipped_backends:
            lines.append(f"  backend {name:<6s} skipped (not installed)")
        if self.sweeps is not None:
            sweeps = self.sweeps
            lines.append(
                f"  sweeps  global {sweeps.ns_per_edge_global:6.2f} ns/edge, "
                f"{sweeps.sweeps_to_l1_global} to l1   "
                f"async {sweeps.ns_per_edge_async:6.2f} ns/edge, "
                f"{sweeps.sweeps_to_l1_async} to l1   "
                f"PowerPush/PowItr residue updates "
                f"{sweeps.powerpush_residue_updates}/"
                f"{sweeps.powitr_residue_updates} = {sweeps.update_ratio:.2f}"
            )
        return "\n".join(lines)


def run_kernel_bench(
    *,
    scale: int = 8,
    edges: int = 2_000,
    batch_sizes: tuple[int, ...] = (8, 32),
    l1_threshold: float = 1e-8,
    alpha: float = 0.2,
    seed: int = 2021,
    repeats: int = 3,
    backends: tuple[str, ...] | str | None = None,
) -> KernelBenchReport:
    """Measure block vs per-source ``batch_query`` on one R-MAT graph.

    Both timed paths run through one :class:`PPREngine`
    (``block=True`` / ``block=False``), so the comparison is exactly
    the dispatch the serving scheduler performs — engine overhead on
    both sides.  One additional *untimed* :func:`power_push_block` run
    with a shared :class:`Workspace` reports scratch-buffer reuse and
    cross-checks the direct kernel entry point.  Timings take the best
    of ``repeats`` runs; the graph's push caches are warmed first so
    both sides time queries, not construction.

    ``backends`` names the kernel backends to compare on the same
    workload — a tuple of names, or the CLI's raw string form
    (``"auto"`` or a comma-separated list, parsed here so every entry
    point shares one parser).  The default (``None``/``"auto"``) is
    ``numpy`` plus ``numba`` when importable; the reference ``numpy``
    is always measured first.  Each backend gets one untimed warm-up
    solve before its timed runs so JIT compilation stays out of the
    numbers; unavailable backends are skipped and listed in the
    report.
    """
    if not batch_sizes:
        raise ParameterError("batch_sizes must name at least one batch size")
    backends = _parse_backends(backends)
    graph = rmat_digraph(
        scale, edges, rng=np.random.default_rng(seed), name="kernel-rmat"
    ).warm_push_caches()
    engine = PPREngine(graph, alpha=alpha, seed=seed)
    rng = np.random.default_rng(seed + 1)
    pool = rng.choice(
        graph.num_nodes, size=max(batch_sizes), replace=False
    ).tolist()

    report = KernelBenchReport(
        graph_name=graph.name,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        l1_threshold=l1_threshold,
        alpha=alpha,
        seed=seed,
    )
    for batch_size in batch_sizes:
        sources = pool[:batch_size]
        loop_best = float("inf")
        loop_results = None
        for _ in range(repeats):
            loop_results, elapsed = _timed(
                engine.batch_query,
                sources,
                "powerpush",
                l1_threshold=l1_threshold,
                block=False,
            )
            loop_best = min(loop_best, elapsed)

        block_best = float("inf")
        block_results = None
        for _ in range(repeats):
            block_results, elapsed = _timed(
                engine.batch_query,
                sources,
                "powerpush",
                l1_threshold=l1_threshold,
                block=True,
            )
            block_best = min(block_best, elapsed)
        # Untimed direct-kernel run: collects the scratch-buffer stats
        # and cross-checks the raw entry point against the engine path.
        workspace = Workspace()
        direct_results = power_push_block(
            graph,
            sources,
            alpha=alpha,
            l1_threshold=l1_threshold,
            workspace=workspace,
        )

        identical = all(
            np.array_equal(loop.estimate, block.estimate)
            and np.array_equal(loop.residue, block.residue)
            and np.array_equal(loop.estimate, direct.estimate)
            for loop, block, direct in zip(
                loop_results, block_results, direct_results
            )
        )
        updates = sum(
            result.counters.residue_updates for result in block_results
        )
        report.batches.append(
            KernelBatchMetrics(
                batch_size=batch_size,
                seconds_loop=loop_best,
                seconds_block=block_best,
                identical=identical,
                residue_updates=updates,
                workspace=workspace.stats(),
            )
        )

    _measure_backends(
        report,
        graph,
        pool,
        batch_sizes,
        l1_threshold=l1_threshold,
        alpha=alpha,
        repeats=repeats,
        backends=backends,
    )
    report.sweeps = _measure_sweeps(
        graph, pool[0], l1_threshold=l1_threshold, alpha=alpha, repeats=repeats
    )
    return report


def _measure_sweeps(
    graph, source: int, *, l1_threshold: float, alpha: float, repeats: int
) -> SweepMetrics:
    """Time and count the two whole-graph sweeps (see the module docstring)."""
    kernels = (
        lambda state: global_sweep(state, count_all_edges=False),
        async_sweep,
    )
    ns_per_edge, sweeps_to_l1 = [], []
    for sweep in kernels:
        state = PushState(graph, source, alpha)
        count = 0
        while state.r_sum > l1_threshold:
            sweep(state)
            count += 1
        sweeps_to_l1.append(count)
        # A dense state to time on: every node reachable holds residue.
        state = PushState(graph, source, alpha)
        for _ in range(6):
            sweep(state)
        best = min(_timed(sweep, state)[1] for _ in range(repeats))
        ns_per_edge.append(best * 1e9 / max(graph.num_edges, 1))
    solved = {
        solver: solver(
            graph, source, alpha=alpha, l1_threshold=l1_threshold
        ).counters.residue_updates
        for solver in (power_push, power_iteration)
    }
    return SweepMetrics(
        ns_per_edge_global=ns_per_edge[0],
        ns_per_edge_async=ns_per_edge[1],
        sweeps_to_l1_global=sweeps_to_l1[0],
        sweeps_to_l1_async=sweeps_to_l1[1],
        powerpush_residue_updates=solved[power_push],
        powitr_residue_updates=solved[power_iteration],
    )


def _parse_backends(
    backends: tuple[str, ...] | str | None,
) -> tuple[str, ...] | None:
    """Normalise the backends request; ``None`` means auto-detect."""
    if backends is None:
        return None
    if isinstance(backends, str):
        if backends.strip().lower() == "auto":
            return None
        backends = tuple(
            token.strip() for token in backends.split(",") if token.strip()
        )
    return tuple(backends)


def _measure_backends(
    report: KernelBenchReport,
    graph,
    pool: list[int],
    batch_sizes: tuple[int, ...],
    *,
    l1_threshold: float,
    alpha: float,
    repeats: int,
    backends: tuple[str, ...] | None,
) -> None:
    """Time each requested backend on the shared workload (see caller)."""
    if backends is None:
        # Auto: always consider numba so a numba-free environment shows
        # it explicitly under skipped_backends instead of omitting it.
        names = ["numpy", "numba"]
    else:
        # The reference is the denominator of every speedup: always
        # measure it, first, exactly once.
        names = ["numpy"] + [
            name for name in dict.fromkeys(backends) if name != "numpy"
        ]
    usable = set(available_backends())

    single_source = pool[0]
    #: per batch size, the numpy reference answers for the deviation gate
    reference: dict[int, list] = {}
    reference_single = None
    for name in names:
        if name not in usable:
            if name in registered_backends():
                report.skipped_backends.append(name)
                continue
            # Unknown spelling: let the registry raise its listing error.
            get_backend(name)
        backend = get_backend(name)
        # Untimed warm-up covering both code paths: first calls trigger
        # JIT compilation on compiled backends.
        power_push(
            graph,
            single_source,
            alpha=alpha,
            l1_threshold=l1_threshold,
            backend=backend,
        )
        warm = power_push_block(
            graph,
            pool[: max(batch_sizes)],
            alpha=alpha,
            l1_threshold=l1_threshold,
            backend=backend,
            workspace=Workspace(),
        )
        del warm

        single_best = float("inf")
        single_result = None
        for _ in range(repeats):
            single_result, elapsed = _timed(
                power_push,
                graph,
                single_source,
                alpha=alpha,
                l1_threshold=l1_threshold,
                backend=backend,
            )
            single_best = min(single_best, elapsed)

        block_seconds: dict[int, float] = {}
        deviation = 0.0
        for batch_size in batch_sizes:
            sources = pool[:batch_size]
            workspace = Workspace()
            block_best = float("inf")
            block_results = None
            for _ in range(repeats):
                block_results, elapsed = _timed(
                    power_push_block,
                    graph,
                    sources,
                    alpha=alpha,
                    l1_threshold=l1_threshold,
                    backend=backend,
                    workspace=workspace,
                )
                block_best = min(block_best, elapsed)
            block_seconds[batch_size] = block_best
            if name == "numpy":
                reference[batch_size] = block_results
            else:
                deviation = max(
                    deviation,
                    max(
                        float(
                            np.abs(ours.estimate - ref.estimate).sum()
                        )
                        for ours, ref in zip(
                            block_results, reference[batch_size]
                        )
                    ),
                )
        if name == "numpy":
            reference_single = single_result
        else:
            deviation = max(
                deviation,
                float(
                    np.abs(
                        single_result.estimate - reference_single.estimate
                    ).sum()
                ),
            )
        report.backends.append(
            BackendMetrics(
                backend=name,
                compiled=backend.compiled,
                seconds_single=single_best,
                seconds_block=block_seconds,
                max_l1_deviation=deviation,
            )
        )


def _timed(fn, *args, **kwargs):
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started
