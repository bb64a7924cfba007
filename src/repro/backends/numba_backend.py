"""Numba-JIT compiled push kernels (the accelerated backend).

The reference frontier push is two compiled passes with frontier-sized
NumPy staging between them: scipy's ``csr_row_index`` gathers the
frontier's adjacency ranges into one compact array
(``kernels.gather_ranges``) and ``csc_matvec`` adds the shares into the
live residue in place (``kernels.scatter_add``) — ``O(frontier + its
edges)``, nothing sized by the graph.  The same recurrence as one
compiled loop over the CSR arrays touches every edge exactly once
instead of twice, keeps the share arithmetic in registers, needs a
single scratch vector for the entry residues and pays no per-call
NumPy dispatch — the transformation "Accelerating Personalized
PageRank Vector Computation" (PAPERS.md) reports its wins from.
The asynchronous scan sweep is compiled with the reference's chunk
schedule (``graph.sweep_plan()``): asynchronous between chunks,
simultaneous within one, so both backends push the same residues and
the equivalence tolerance below covers it too.

Everything here is gated on ``numba`` being importable, and the import
itself is **lazy**: this module only probes for the package
(``importlib.util.find_spec``), so ``import repro`` never pays numba's
multi-hundred-millisecond import; the real ``from numba import njit``
and the kernel compilation happen on the first
:class:`NumbaBackend` instantiation.  When numba is absent,
:data:`NUMBA_AVAILABLE` is False and the backend registry silently
serves the NumPy reference instead (with a one-time warning) —
``numba`` is an optional extra (``pip install repro-ppr[numba]``),
never a hard dependency.

Determinism: the compiled loops are deterministic (single-threaded, a
fixed sequential order), but they accumulate sums sequentially where
NumPy reduces pairwise, so answers agree with the reference to ~1e-12
L1 rather than bitwise.  The dead-end policy routing and operation
billing reuse the reference helpers in :mod:`repro.core.kernels`, so
those side channels cannot drift.
"""

from __future__ import annotations

import importlib.util
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from repro.backends.base import KernelBackend

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from numpy.typing import DTypeLike

    from repro.core.residues import PushState
    from repro.core.workspace import Workspace

__all__ = ["NUMBA_AVAILABLE", "numba_available", "NumbaBackend"]

#: Probe only — the actual import is deferred to first backend use.
NUMBA_AVAILABLE = importlib.util.find_spec("numba") is not None


def numba_available() -> bool:
    """Whether the compiled backend can actually run here."""
    return NUMBA_AVAILABLE


def _scratch(
    workspace: Workspace | None,
    key: str,
    size: int,
    dtype: DTypeLike = np.float64,
) -> np.ndarray:
    """A pooled buffer when a workspace is threaded, else a fresh one."""
    if workspace is not None:
        return workspace.buffer(key, size, dtype)
    return np.empty(size, dtype=np.dtype(dtype))


#: Compiled-kernel namespace, built (and numba imported) on first use.
_KERNELS: SimpleNamespace | None = None


def _compiled_kernels() -> SimpleNamespace:
    global _KERNELS
    if _KERNELS is None:
        _KERNELS = _build_kernels()
    return _KERNELS


def _build_kernels() -> SimpleNamespace:
    """Import numba and define the jitted loops (first-use only).

    All of them mutate the passed arrays in place and return the
    bookkeeping scalars (masses, billing counts) the Python wrappers
    feed back into the state exactly like the reference kernels do.
    ``cache=True`` persists the compiled artefacts so the JIT cost is
    paid once per machine, not once per process.
    """
    from numba import njit

    @njit(cache=True)
    def frontier_push_loop(
        indptr: np.ndarray,
        indices: np.ndarray,
        residue: np.ndarray,
        reserve: np.ndarray,
        nodes: np.ndarray,
        r_old: np.ndarray,
        alpha: float,
    ) -> tuple[float, float, int, int]:
        """Simultaneous push of ``nodes``: settle pass then scatter pass.

        The two passes are what makes the loop *simultaneous*: every
        share is computed from the residues at entry (recorded into
        ``r_old``), never from mass deposited by an earlier node of
        the same frontier.
        """
        pushed_mass = 0.0
        for i in range(nodes.shape[0]):
            v = nodes[i]
            r = residue[v]
            r_old[i] = r
            reserve[v] += alpha * r
            residue[v] = 0.0
            pushed_mass += r
        scale = 1.0 - alpha
        dead_mass = 0.0
        edges = 0
        num_dead = 0
        for i in range(nodes.shape[0]):
            v = nodes[i]
            begin = indptr[v]
            end = indptr[v + 1]
            degree = end - begin
            if degree > 0:
                share = scale * r_old[i] / degree
                for e in range(begin, end):
                    residue[indices[e]] += share
                edges += degree
            else:
                dead_mass += scale * r_old[i]
                num_dead += 1
        return pushed_mass, dead_mass, edges, num_dead

    @njit(cache=True)
    def global_sweep_loop(
        pt_indptr: np.ndarray,
        pt_indices: np.ndarray,
        pt_data: np.ndarray,
        residue: np.ndarray,
        reserve: np.ndarray,
        out: np.ndarray,
        alpha: float,
        count_holders: bool,
        out_degree: np.ndarray,
    ) -> tuple[int, int]:
        """One Power-Iteration step: ``out = (1-alpha) * P^T r`` + reserves.

        Also counts the residue holders (and their degree mass) in the
        same pass when SimFwdPush-style billing is requested, so the
        billing never needs a second O(n) sweep.
        """
        n = residue.shape[0]
        scale = 1.0 - alpha
        holders = 0
        holder_degree = 0
        if count_holders:
            for v in range(n):
                if residue[v] > 0.0:
                    holders += 1
                    holder_degree += out_degree[v]
        for v in range(n):
            acc = 0.0
            for e in range(pt_indptr[v], pt_indptr[v + 1]):
                acc += pt_data[e] * residue[pt_indices[e]]
            out[v] = scale * acc
            reserve[v] += alpha * residue[v]
        return holders, holder_degree

    @njit(cache=True)
    def async_sweep_loop(
        indptr: np.ndarray,
        indices: np.ndarray,
        bounds: np.ndarray,
        residue: np.ndarray,
        pushed: np.ndarray,
        alpha: float,
    ) -> None:
        """Chunked asynchronous sweep over one residue vector.

        The reference's schedule (``repro.core.kernels.
        async_propagate``) as one loop: per chunk, snapshot and clear
        the chunk's residues, then scatter their shares into the live
        vector, so later chunks see them.  Targets receive their adds
        in ascending-source order, as in the reference.
        """
        scale = 1.0 - alpha
        for c in range(bounds.shape[0] - 1):
            lo = bounds[c]
            hi = bounds[c + 1]
            for v in range(lo, hi):
                pushed[v] = residue[v]
                residue[v] = 0.0
            for v in range(lo, hi):
                begin = indptr[v]
                end = indptr[v + 1]
                if end > begin:
                    share = scale * pushed[v] / (end - begin)
                    for e in range(begin, end):
                        residue[indices[e]] += share

    @njit(cache=True)
    def collect_active_loop(
        residue: np.ndarray,
        threshold_vec: np.ndarray,
        out_nodes: np.ndarray,
    ) -> int:
        """Gather active node ids (``r > threshold``) in ascending order."""
        count = 0
        for v in range(residue.shape[0]):
            if residue[v] > threshold_vec[v]:
                out_nodes[count] = v
                count += 1
        return count

    return SimpleNamespace(
        frontier_push=frontier_push_loop,
        global_sweep=global_sweep_loop,
        async_sweep=async_sweep_loop,
        collect_active=collect_active_loop,
    )


class NumbaBackend(KernelBackend):
    """Compiled push kernels; see the module docstring.

    Instantiation imports numba and materialises the jitted functions
    (the registry constructs backends lazily, so numpy-only usage
    never touches numba at all); the actual machine-code compilation
    still happens per-signature on first call, which the benchmark's
    warm-up runs keep out of every timed region.
    """

    name = "numba"
    compiled = True

    def __init__(self) -> None:
        self._kernels = _compiled_kernels()

    def global_sweep(
        self, state: PushState, *, count_all_edges: bool = True
    ) -> None:
        from repro.core.kernels import _apply_dead_end_mass

        graph = state.graph
        pt_indptr, pt_indices, pt_data = graph.pt_csr_arrays()
        dead = graph.dead_ends
        dead_mass = 0.0
        if dead.shape[0]:
            dead_mass = (1.0 - state.alpha) * float(state.residue[dead].sum())
        # A fresh output vector, rebound like the reference's mat-vec
        # result (one O(n) allocation per sweep on either backend).
        out = np.empty(graph.num_nodes, dtype=np.float64)
        holders, holder_degree = self._kernels.global_sweep(
            pt_indptr,
            pt_indices,
            pt_data,
            state.residue,
            state.reserve,
            out,
            state.alpha,
            not count_all_edges,
            graph.out_degree,
        )
        if count_all_edges:
            state.counters.count_bulk_pushes(graph.num_nodes, graph.num_edges)
        else:
            state.counters.count_bulk_pushes(int(holders), int(holder_degree))
        state.residue = out
        _apply_dead_end_mass(state, dead_mass)
        state.refresh_r_sum()

    def frontier_push(
        self,
        state: PushState,
        nodes: np.ndarray,
        *,
        workspace: Workspace | None = None,
    ) -> None:
        from repro.core.kernels import _apply_dead_end_mass

        if nodes.shape[0] == 0:
            return
        graph = state.graph
        r_old = _scratch(workspace, "nb_r_pushed", nodes.shape[0])
        pushed_mass, dead_mass, edges, num_dead = self._kernels.frontier_push(
            graph.out_indptr,
            graph.out_indices,
            state.residue,
            state.reserve,
            np.ascontiguousarray(nodes, dtype=np.int64),
            r_old,
            state.alpha,
        )
        state.counters.count_bulk_pushes(
            nodes.shape[0], int(edges) + int(num_dead)
        )
        _apply_dead_end_mass(state, float(dead_mass))
        state.note_r_sum_delta(-state.alpha * float(pushed_mass))

    def async_sweep(
        self, state: PushState, *, workspace: Workspace | None = None
    ) -> np.ndarray:
        from repro.core.kernels import _settle_async_sweep

        graph = state.graph
        pushed = _scratch(workspace, "nb_sweep_pushed", graph.num_nodes)
        self._kernels.async_sweep(
            graph.out_indptr,
            graph.out_indices,
            np.asarray(graph.sweep_plan().bounds, dtype=np.int64),
            state.residue,
            pushed,
            state.alpha,
        )
        return _settle_async_sweep(state, pushed)

    def sweep_active(
        self,
        state: PushState,
        r_max: float,
        *,
        threshold_vec: np.ndarray | None = None,
        workspace: Workspace | None = None,
    ) -> int:
        from repro.core.kernels import DENSE_SWEEP_FRACTION

        graph = state.graph
        if threshold_vec is None:
            threshold_vec = state.threshold_vector(r_max)
        active = _scratch(
            workspace, "nb_active_nodes", graph.num_nodes, np.int64
        )
        count = int(
            self._kernels.collect_active(state.residue, threshold_vec, active)
        )
        if count == 0:
            return 0
        if count <= DENSE_SWEEP_FRACTION * graph.num_nodes:
            self.frontier_push(state, active[:count], workspace=workspace)
        else:
            self.async_sweep(state, workspace=workspace)
        return count
