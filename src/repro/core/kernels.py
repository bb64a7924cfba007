"""Vectorised push kernels shared by the algorithm implementations.

Every push-family algorithm in the paper reduces to three bulk moves:

* a **global sweep** — push *every* node simultaneously; this is one
  Power-Iteration step and costs ``O(m)`` regardless of how much
  residue exists (implemented as one sparse mat-vec with the cached
  ``P^T``).  PowItr and SimFwdPush, synchronous by definition, are
  built on it;
* a **frontier push** — push only a given set of nodes, simultaneously;
  this costs ``O(sum of frontier degrees)`` (implemented as a gather
  of the frontier's adjacency ranges followed by one ``bincount``
  scatter); and
* an **asynchronous sweep** — push every node holding residue, chunk
  of the node range by chunk, each chunk seeing what the chunks before
  it pushed (the scan phase of PowerPush, and the dense side of
  FIFO-FwdPush and the refinement loop; cost model below).

The switch between the local and the global moves is exactly the
paper's "global sequential scan vs. local random access" trade-off
(Section 5): for small frontiers the gather/scatter wins; once the
frontier covers a sizeable fraction of the graph the contiguous scan
is faster.  :func:`sweep_active` chooses automatically using the same
kind of threshold PowerPush's queue-to-scan switch uses.

A fourth move touches no edge: :func:`extrapolate_window` repeats a
window of pushes already made ``k`` more times in ``O(n)``, by the
linearity of the push invariant.  PowerPush applies it to the last
sweep of every scan epoch.

Within one kernel call — within one chunk, for the asynchronous sweep —
pushes are *simultaneous*: contributions are computed from the residues
at entry.  The kernels mutate the :class:`PushState` in place and keep
its incremental ``r_sum`` and counters up to date.

The asynchronous sweep and its cost model
-----------------------------------------
:func:`async_sweep` follows ``graph.sweep_plan()``: ``SWEEP_CHUNKS``
contiguous node ranges of roughly equal edge count, cached on the
graph.  Per chunk it makes a handful of chunk-local ``O(chunk nodes)``
passes (copy the residues out, zero them, scale, divide by the degree)
and one scatter over the chunk's out-edges; per sweep, one ``O(n)``
settle (billing, reserves, ``r_sum``).  The scatter is scipy's
``csc_matvec`` run on the *forward* CSR — the chunk's rows of
``out_indptr``/``out_indices`` read as the columns of a sparse matrix
with all-one weights — which adds each share into the live residue
vector in place.  So a sweep reads neither ``P^T`` nor any per-edge
weight array (the transposed matrix's ``data`` is 8 bytes per edge the
mat-vec has to stream), and costs about the mat-vec's time per edge
(``kernels.global_sweep_ns_per_edge`` beside
``powerpush.ns_per_residue_update`` in a ``benchmarks/e2e`` traced
run) while needing little more than half as many sweeps to reach the
same ``r_sum``.

Summation order, and why results are bitwise-stable: the scatter walks
a chunk's nodes in ascending id and each node's edges in CSR order, so
a target accumulates its shares in ascending-source order, one IEEE add
at a time, chunks in ascending order — a fixed sequence that depends on
the graph alone, not on the block width, the workspace, or the thread
running it.  The all-one weight makes ``weight * share`` exact.  The
block kernel runs ``csc_matvecs`` over residues stored column-wise;
its inner ``axpy`` applies the same add to each column, so every
column sees the sequence of the single-source sweep.  What *does*
depend on node order is the answer itself: relabelling the graph
changes which residues are fresh when, hence which of the valid
answers (all within ``r_sum`` of the exact vector) comes out.

``P^T`` is still built by ``warm_push_caches`` (PowItr, SimFwdPush and
BePI read it) but is no longer part of the shared-memory image: a
shard that needs it builds it lazily.

Block (multi-source) kernels and their cost model
-------------------------------------------------
Each kernel has a block variant operating on a
:class:`~repro.core.residues.BlockPushState` with ``B`` residue rows.
Amortising the adjacency scan over simultaneous sources changes the
constants, not the asymptotics:

* :func:`block_global_sweep` is one sparse *mat-mat* ``P^T @ R^T``
  instead of ``B`` mat-vecs.  The ``O(m)`` pass over the CSR arrays —
  the memory-bound part — is paid **once** for all ``B`` rows; each
  nonzero touched streams ``B`` contiguous residue values, so the cost
  is ``O(m + m·B)`` flops behind a single ``O(m)`` index scan instead
  of ``B`` separate scans.
* :func:`block_async_sweep` shares the scan the same way: the rows'
  residues are transposed into an ``(n, B)`` scratch matrix for the
  sweep, each edge of a chunk is read once and adds ``B`` contiguous
  shares, and the result is transposed back.
* :func:`block_frontier_push` gathers the adjacency ranges of the
  **union** frontier once (``O(sum of union degrees)``) and scatters
  all rows through one flat 2-D ``bincount`` over ``row * n + target``
  indexes.  Rows pay only for their *own* active nodes' shares; nodes
  active in no row contribute exact ``+0.0`` terms, which keeps every
  row bitwise-identical to an independent single-source push while the
  index arithmetic is shared.
* the queue-to-scan switch is applied *per row* by the solver
  (:func:`~repro.core.powerpush.power_push_block`): rows still in
  their queue phase join the union gather while rows that went on to
  scan join the asynchronous sweep — the paper's density trade-off,
  decided independently for every source in the block.

Scratch buffers: the frontier kernels accept an optional
:class:`~repro.core.workspace.Workspace`; callers that push in a loop
(the solvers) thread one through so the frontier-sized temporaries are
reused instead of reallocated every call.  This, the bitwise gather
discipline above, and the ``backend=`` threading below are enforced
mechanically: ``repro-ppr lint`` (``repro.analysis``) checks
``workspace-discipline``, ``no-column-fancy-gather``, and
``backend-parity`` on every CI run — see CONTRIBUTING.md for the
invariant -> rule table.

Pluggable backends and what the compiled path removes
-----------------------------------------------------
Every kernel accepts an optional ``backend``
(:class:`~repro.backends.KernelBackend`); ``None`` — the default, and
what the ``numpy`` reference backend resolves to — runs the NumPy
bodies in this module, so golden traces stay byte-identical.  A
compiled backend (``numba``) replaces the *constant-factor* terms of
the cost model above, not its asymptotics:

* the frontier push's three ``O(total)`` staging passes (position
  cumsum, target gather, share ``repeat``) and the ``O(n)``
  ``bincount`` scatter collapse into **one** loop over the frontier's
  CSR ranges — each edge is touched exactly once and the share stays
  in a register, so a sparse late-epoch frontier costs
  ``O(sum of frontier degrees)`` with no ``O(n)``-sized scatter term
  and no per-call NumPy dispatch overhead;
* the global sweep's scipy mat-vec dispatch and the separate ``O(n)``
  reserve/billing passes fuse into one loop over ``P^T``;
* the asynchronous sweep's per-chunk NumPy passes and scipy dispatch
  become one loop over the forward CSR with the reference's chunk
  schedule, so both backends push the same residues;
* the block kernels drop the union-frontier staging entirely — the
  ``(B x total)`` share/weight matrices the 2-D ``bincount`` scatter
  needs (zero-filled even where a row is inactive) are replaced by
  per-row loops that only walk the row's own active ranges, run in
  parallel over the row dimension (``prange``).

Empty frontiers are handled *before* backend dispatch: a push with no
nodes (or a block push with no active mask) returns immediately
without requesting a single workspace buffer, so late epochs that
probe an exhausted frontier cost nothing on any backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from scipy.sparse._sparsetools import csc_matvec as _csc_matvec
from scipy.sparse._sparsetools import csc_matvecs as _csc_matvecs

from repro.core.residues import BlockPushState, PushState
from repro.core.workspace import Workspace
from repro.errors import ParameterError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    # Runtime import would be circular: repro.backends pulls in
    # repro.core at its own import time.  Dispatch below only calls
    # methods on the passed object, so the type is annotation-only.
    from repro.backends.base import KernelBackend

try:  # pragma: no cover - import guard for exotic scipy builds
    from scipy.sparse._sparsetools import csr_matvecs as _csr_matvecs
except ImportError:  # pragma: no cover
    _csr_matvecs = None

__all__ = [
    "frontier_edge_targets",
    "global_sweep",
    "frontier_push",
    "async_propagate",
    "extrapolate_window",
    "async_sweep",
    "sweep_active",
    "block_global_sweep",
    "block_frontier_push",
    "block_async_sweep",
]

# Fraction of all nodes above which `sweep_active` abandons the
# gather/scatter path for the contiguous mat-vec.  Mirrors PowerPush's
# scan_threshold = n/4 default.
DENSE_SWEEP_FRACTION = 0.25

# Shared zero-length results for the empty-frontier fast paths: late
# epochs probe exhausted/dead frontiers often, and those probes should
# allocate nothing at all (see the regression tests).
_EMPTY_INT32 = np.empty(0, dtype=np.int32)
_EMPTY_INT32.flags.writeable = False
_EMPTY_INT64 = np.empty(0, dtype=np.int64)
_EMPTY_INT64.flags.writeable = False


def frontier_edge_targets(
    graph, nodes: np.ndarray, *, workspace: Workspace | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the out-adjacency lists of ``nodes``.

    Returns ``(targets, counts)`` where ``targets`` is the concatenation
    of each node's out-neighbour list (in node order) and ``counts``
    holds each node's out-degree.  This is the vectorised "multi-range
    gather" that replaces the per-node random access of the scalar push
    loop.

    The gather positions are built by an in-place boundary-delta cumsum
    (first element of each range, ``+1`` within a range) instead of the
    old ``np.repeat`` + ``np.arange`` construction, which materialised
    three extra ``O(total)`` temporaries on every call.  With a
    ``workspace`` the position and target arrays are pooled scratch
    buffers — the returned ``targets`` is then only valid until the
    next workspace request, so consume it before pushing again.
    """
    if nodes.shape[0] == 0:
        # Fast path: no nodes means no gather — return shared empties
        # without touching the workspace or allocating.
        return _EMPTY_INT32, _EMPTY_INT64
    indptr = graph.out_indptr
    starts = indptr[nodes]
    counts = (indptr[nodes + 1] - starts).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return _EMPTY_INT32, counts

    if workspace is not None:
        positions = workspace.buffer("gather_positions", total, np.int64)
    else:
        positions = np.empty(total, dtype=np.int64)
    live = counts > 0
    starts_live = starts[live]
    # Fully written below ([0] then the cumsum), so empty scratch is safe.
    offsets_live = _scratch(
        workspace, "gather_offsets", starts_live.shape[0], np.int64
    )
    offsets_live[0] = 0
    np.cumsum(counts[live][:-1], out=offsets_live[1:])
    # positions = cumsum of [start_0, 1, 1, ..., jump_1, 1, 1, ...]
    # where jump_k re-bases the running value onto range k's start.
    positions[:] = 1
    positions[0] = starts_live[0]
    if starts_live.shape[0] > 1:
        range_ends = starts_live[:-1] + np.diff(offsets_live)
        positions[offsets_live[1:]] = starts_live[1:] - range_ends + 1
    np.cumsum(positions, out=positions)

    if workspace is not None:
        targets = workspace.buffer(
            "gather_targets", total, graph.out_indices.dtype
        )
        np.take(graph.out_indices, positions, out=targets)
    else:
        targets = graph.out_indices[positions]
    return targets, counts


def global_sweep(
    state: PushState,
    *,
    count_all_edges: bool = True,
    backend: "KernelBackend | None" = None,
) -> None:
    """One simultaneous push of every node — a Power-Iteration step.

    ``pi_hat += alpha * r`` and ``r <- (1 - alpha) * r P`` via the
    cached transposed transition matrix; dead-end mass follows the
    state's policy.

    Parameters
    ----------
    count_all_edges:
        When True (PowItr semantics) the sweep is billed ``m`` residue
        updates — the global approach touches every edge.  When False
        (SimFwdPush semantics) only the out-degrees of nodes holding
        residue are billed.
    backend:
        Optional non-reference :class:`~repro.backends.KernelBackend`
        to run the sweep on; ``None`` runs the NumPy body below.
    """
    if backend is not None:
        backend.global_sweep(state, count_all_edges=count_all_edges)
        return
    graph = state.graph
    r = state.residue
    alpha = state.alpha

    state.reserve += alpha * r
    moved = graph.transition_matrix_transpose().dot((1.0 - alpha) * r)

    dead = graph.dead_ends
    dead_mass = 0.0
    if dead.shape[0]:
        dead_mass = (1.0 - alpha) * float(r[dead].sum())

    if count_all_edges:
        state.counters.count_bulk_pushes(graph.num_nodes, graph.num_edges)
    else:
        holders = r > 0.0
        state.counters.count_bulk_pushes(
            int(np.count_nonzero(holders)),
            int(np.dot(graph.out_degree, holders)),
        )

    state.residue = moved
    _apply_dead_end_mass(state, dead_mass)
    state.refresh_r_sum()


def frontier_push(
    state: PushState,
    nodes: np.ndarray,
    *,
    workspace: Workspace | None = None,
    backend: "KernelBackend | None" = None,
) -> None:
    """Simultaneously push exactly ``nodes`` (gather/scatter path).

    Contributions are based on the residues at entry; the pushed nodes'
    residues are zeroed first so self-loop edges re-deposit correctly.

    An empty ``nodes`` returns before dispatching to any backend and
    before requesting any workspace buffer (the empty-frontier fast
    path late epochs rely on).
    """
    if nodes.shape[0] == 0:
        return
    if backend is not None:
        backend.frontier_push(state, nodes, workspace=workspace)
        return
    graph = state.graph
    alpha = state.alpha
    r_pushed = state.residue[nodes].copy()
    pushed_mass = float(r_pushed.sum())

    state.reserve[nodes] += alpha * r_pushed
    state.residue[nodes] = 0.0

    targets, counts = frontier_edge_targets(graph, nodes, workspace=workspace)
    live = counts > 0
    if targets.shape[0]:
        shares = _scratch(workspace, "frontier_shares", nodes.shape[0], np.float64)
        shares[:] = 0.0
        shares[live] = (1.0 - alpha) * r_pushed[live] / counts[live]
        contributions = np.repeat(shares, counts)
        state.residue += np.bincount(
            targets, weights=contributions, minlength=graph.num_nodes
        )

    dead_mass = (1.0 - alpha) * float(r_pushed[~live].sum())
    num_dead = int((~live).sum())
    state.counters.count_bulk_pushes(
        nodes.shape[0], int(targets.shape[0]) + num_dead
    )
    _apply_dead_end_mass(state, dead_mass)
    state.note_r_sum_delta(-alpha * pushed_mass)


def sweep_active(
    state: PushState,
    r_max: float,
    *,
    threshold_vec: np.ndarray | None = None,
    workspace: Workspace | None = None,
    backend: "KernelBackend | None" = None,
) -> int:
    """Push all currently-active nodes once; return how many were pushed.

    Chooses between the local gather/scatter path and the global path
    depending on the frontier size (more than ``DENSE_SWEEP_FRACTION``
    of the nodes active means global), anew on every call — the loop of
    FIFO-FwdPush and of :func:`~repro.core.refinement.refine_to_r_max`,
    which push until no node is active.  The global path is
    one :func:`async_sweep`, which pushes *every* residue-holding node
    (not only the active ones): the scan walks the whole edge array
    either way, and masking would add several ``O(n)`` passes to it.
    Pushing an inactive node is always legal (it only converts more
    residue), so the l1-error guarantee is unaffected.

    Parameters
    ----------
    threshold_vec:
        Optional precomputed ``out_degree * r_max`` array.  Callers
        that sweep repeatedly at a fixed ``r_max`` (epoch loops) pass
        it to avoid recomputing the products every sweep.
    """
    if backend is not None:
        return backend.sweep_active(
            state,
            r_max,
            threshold_vec=threshold_vec,
            workspace=workspace,
        )
    graph = state.graph
    if threshold_vec is None:
        active = state.active_mask(r_max)
    else:
        active = state.residue > threshold_vec
    num_active = int(np.count_nonzero(active))
    if num_active == 0:
        return 0

    if num_active <= DENSE_SWEEP_FRACTION * graph.num_nodes:
        frontier_push(state, np.flatnonzero(active), workspace=workspace)
    else:
        async_sweep(state, workspace=workspace)
    return num_active


def async_propagate(
    graph,
    residue: np.ndarray,
    pushed: np.ndarray,
    alpha: float,
    *,
    workspace: Workspace | None = None,
) -> None:
    """One chunked asynchronous sweep over raw residue arrays.

    For each chunk of ``graph.sweep_plan()`` in node-id order: record
    the chunk's current residues into ``pushed``, take them off
    ``residue``, and scatter ``(1 - alpha) * pushed / out_degree`` along
    the chunk's out-edges straight into the live ``residue`` — so a
    later chunk pushes mass that reached it during this very sweep.
    Afterwards ``pushed[v]`` is what node ``v`` pushed; settling
    ``alpha * pushed`` into a reserve, billing, and the mass dead ends
    pushed (which has no edge to travel on) are the caller's.

    ``residue`` and ``pushed`` are C-contiguous float64 of shape
    ``(n,)`` — or ``(n, R)`` for ``R`` independent residue vectors
    stored column-wise, whose columns then go through the same
    operations in the same order as ``R`` separate calls.  Residues may
    be negative (:mod:`repro.core.incremental`).
    """
    if not (residue.flags.c_contiguous and pushed.flags.c_contiguous):
        raise ParameterError(
            "async_propagate scatters in place and needs C-contiguous arrays"
        )
    plan = graph.sweep_plan()
    n = graph.num_nodes
    single = residue.ndim == 1
    vecs = 1 if single else residue.shape[1]
    degree = plan.degree if single else plan.degree[:, None]
    flat = residue.reshape(-1)
    scale = 1.0 - alpha
    for c in range(len(plan.bounds) - 1):
        lo, hi = plan.bounds[c], plan.bounds[c + 1]
        if lo == hi:
            continue
        live, snapshot = residue[lo:hi], pushed[lo:hi]
        shares = _scratch(
            workspace, "sweep_shares", (hi - lo) * vecs, np.float64
        ).reshape(live.shape)
        snapshot[...] = live
        live[...] = 0.0
        np.multiply(snapshot, scale, out=shares)
        shares /= degree[lo:hi]
        indptr, indices, ones = plan.columns(c)
        if single:
            _csc_matvec(n, hi - lo, indptr, indices, ones, shares, flat)
        else:
            _csc_matvecs(
                n, hi - lo, vecs, indptr, indices, ones,
                shares.reshape(-1), flat,
            )


def extrapolate_window(
    reserve: np.ndarray,
    residue: np.ndarray,
    settled: np.ndarray,
    r_before: np.ndarray,
) -> bool:
    """Repeat a window of pushes ``k`` more times without touching an edge.

    The window — any sequence of pushes, dead-end routing included —
    moved ``settled`` into ``reserve`` and took the residues from
    ``r_before`` to ``residue``.  The push invariant is linear, so with
    ``fall = r_before - residue`` the pair ``(reserve + k * settled,
    residue - k * fall)`` satisfies it for every ``k``.  Applied here
    with the largest ``k`` that carries no residue across zero:
    ``min(residue / fall)`` over the entries that moved towards zero,
    stepped one float towards zero so that ``|k * fall| <= |residue|``
    holds exactly there.  Non-negative residues therefore stay
    non-negative, and signed ones (:mod:`repro.core.incremental`) keep
    their signs, which makes the change in ``sum(|residue|)`` linear in
    ``k``; the window is applied only when that sum falls — always, for
    non-negative residues, whose sum falls by ``k * sum(settled)``.
    When each sweep repeats the one before scaled by ``gamma``, ``k`` is
    ``gamma / (1 - gamma)`` — the whole geometric tail; when some entry
    reached zero in the window it is 0 and nothing happens.

    All four are float64 of shape ``(n,)``; ``settled`` and ``r_before``
    are consumed.  Elementwise operations, one ``min`` and one sign-only
    test, so strided views get the same bits.  Returns whether the
    window was applied; the caller refreshes its ``r_sum``.
    """
    fall = np.subtract(r_before, residue, out=r_before)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = residue / fall
    # Towards zero: same signs, or a residue at zero that moved (k = 0).
    # Entries that did not move give inf or nan and never bind.
    k = ratio[ratio >= 0.0].min(initial=np.inf)
    if k == np.inf:
        return False
    k = np.nextafter(k, 0.0)
    # No sign changes, so sum(|residue|) moves by -k * sum(sign * fall).
    # A product and a sum, not np.dot: BLAS can take milliseconds to
    # wake its threads for a vector this size.
    if not (k > 0.0 and (np.sign(residue) * fall).sum() > 0.0):
        return False
    fall *= k
    residue -= fall
    settled *= k
    reserve += settled
    return True


def async_sweep(
    state: PushState,
    *,
    workspace: Workspace | None = None,
    backend: "KernelBackend | None" = None,
) -> np.ndarray:
    """Push every residue-holding node once, with the freshest residues.

    The scan-phase sweep of PowerPush (Algorithm 3): unlike
    :func:`global_sweep` it is *asynchronous* — see
    :func:`async_propagate` — so one sweep does the work of nearly two
    synchronous ones.  Billed like ``global_sweep(count_all_edges=
    False)``: one push per node that held residue when its chunk was
    reached, one residue update per out-edge of those nodes.

    Returns what the sweep settled into the reserve (``alpha`` times
    what each node pushed) — scratch, valid until the next sweep
    through the same workspace; :func:`extrapolate_window` consumes it.
    """
    if backend is not None:
        return backend.async_sweep(state, workspace=workspace)
    pushed = _scratch(
        workspace, "sweep_pushed", state.graph.num_nodes, np.float64
    )
    async_propagate(
        state.graph, state.residue, pushed, state.alpha, workspace=workspace
    )
    return _settle_async_sweep(state, pushed)


def _settle_async_sweep(state: PushState, pushed: np.ndarray) -> np.ndarray:
    """Bill, route dead-end mass and settle reserves after a propagation.

    Shared by every backend's :func:`async_sweep`; scales ``pushed`` by
    ``alpha`` in place and returns it (the sweep's reserve gain).
    """
    graph = state.graph
    holders = pushed != 0.0
    state.counters.count_bulk_pushes(
        int(np.count_nonzero(holders)),
        int(np.dot(graph.out_degree, holders)),
    )
    dead = graph.dead_ends
    if dead.shape[0]:
        _apply_dead_end_mass(
            state, (1.0 - state.alpha) * float(pushed[dead].sum())
        )
    pushed *= state.alpha
    state.reserve += pushed
    state.refresh_r_sum()
    return pushed


def _apply_dead_end_mass(state: PushState, dead_mass: float) -> None:
    """Route mass emitted by dead ends according to the state's policy."""
    if dead_mass == 0.0:
        return
    if state.dead_end_policy == "redirect-to-source":
        state.residue[state.source] += dead_mass
    elif state.dead_end_policy == "uniform-teleport":
        state.residue += dead_mass / state.graph.num_nodes
    else:  # self-loop handled structurally; mass cannot appear here
        raise AssertionError(
            "structural self-loop graphs cannot emit dead-end mass"
        )


# ----------------------------------------------------------------------
# Block (multi-source) kernels
# ----------------------------------------------------------------------
# Bitwise-equality discipline: every per-row float value below is
# produced by the same operation sequence the single-source kernels
# apply — compact gathers of a row's own active nodes for the sums
# (never masked sums, whose pairwise grouping differs), elementwise
# broadcasts for the products, and scatters whose only extra terms are
# exact ``+0.0`` additions.  The sparse mat-mat accumulates each output
# column over the same nonzeros in the same order as the mat-vec, so it
# is bitwise-identical per column.  The equivalence tests pin all of
# this down.


def _scratch(
    workspace: Workspace | None, key: str, size: int, dtype
) -> np.ndarray:
    """A pooled buffer when a workspace is threaded, else a fresh one."""
    if workspace is not None:
        return workspace.buffer(key, size, dtype)
    return np.empty(size, dtype=dtype)


def _is_identity(rows: np.ndarray, num_rows: int) -> bool:
    """Whether ``rows`` is exactly ``0..num_rows-1`` in order.

    The O(B) check guards the in-place whole-block fast paths: a
    permuted (or duplicated) full-size ``rows`` must take the general
    gather path, otherwise per-row quantities would be routed to the
    wrong rows.
    """
    return rows.shape[0] == num_rows and bool(
        (rows == np.arange(num_rows)).all()
    )


def _block_propagate(
    graph, scaled: np.ndarray, workspace: Workspace | None
) -> np.ndarray:
    """``P^T @ scaled.T`` into pooled buffers; returns the ``(n, R)`` result.

    Calls the same scipy CSR kernel ``P^T.dot`` dispatches to
    (``csr_matvecs`` accumulates each output column over the nonzeros
    in mat-vec order, so columns are bitwise mat-vec results), but
    skips the dispatch layers and reuses the transpose/result scratch
    — at serving-size graphs those per-call costs rival the numeric
    work.  The result is only valid until the next call with the same
    workspace.
    """
    matrix = graph.transition_matrix_transpose()
    num_rows, n = scaled.shape
    if _csr_matvecs is None or workspace is None:
        return matrix.dot(np.ascontiguousarray(scaled.T))
    operand = workspace.buffer2d("matmat_in", n, num_rows)
    operand[:] = scaled.T
    moved = workspace.buffer2d("matmat_out", n, num_rows)
    moved[:] = 0.0
    _csr_matvecs(
        n,
        n,
        num_rows,
        matrix.indptr,
        matrix.indices,
        matrix.data,
        operand.reshape(-1),
        moved.reshape(-1),
    )
    return moved


def block_global_sweep(
    state: BlockPushState,
    rows: np.ndarray,
    *,
    count_all_edges: bool = False,
    workspace: Workspace | None = None,
    backend: "KernelBackend | None" = None,
) -> None:
    """One Power-Iteration step for every row in ``rows`` at once.

    One sparse mat-mat with the cached ``P^T`` replaces ``len(rows)``
    mat-vecs: the CSR index scan — the memory-bound part of a sweep —
    is paid once for the whole block.
    """
    if rows.shape[0] == 0:
        return
    if backend is not None:
        backend.block_global_sweep(
            state, rows, count_all_edges=count_all_edges, workspace=workspace
        )
        return
    graph = state.graph
    alpha = state.alpha
    # Sweeping the whole block in order (the common lockstep case)
    # works on the matrices in place; a strict subset — or a permuted
    # full set — pays one gather/scatter pair.
    whole_block = _is_identity(rows, state.num_rows)
    r_block = state.residue if whole_block else state.residue[rows]

    if whole_block:
        state.reserve += alpha * r_block
    else:
        state.reserve[rows] += alpha * r_block
    scaled = (1.0 - alpha) * r_block
    # One O(m) scan of the CSR arrays serves every row: the mat-mat
    # streams each nonzero's len(rows) right-hand values contiguously,
    # and the per-column accumulation order matches the mat-vec's, so
    # each row lands bitwise where its own mat-vec would.
    moved = _block_propagate(graph, scaled, workspace)

    dead_masses = _block_dead_masses(state, r_block)

    if count_all_edges:
        state.count_bulk_pushes(rows, graph.num_nodes, graph.num_edges)
    else:
        # Billing is integer arithmetic — vectorising it across rows is
        # exact by construction.
        holders = r_block > 0.0
        state.count_bulk_pushes(
            rows,
            np.count_nonzero(holders, axis=1),
            holders @ graph.out_degree,
        )

    if whole_block:
        state.residue[:] = moved.T
    else:
        state.residue[rows] = moved.T
    _finish_block_sweep(state, rows, whole_block, dead_masses)


def _block_dead_masses(
    state: BlockPushState, pushed: np.ndarray
) -> np.ndarray | None:
    """``(1 - alpha) *`` what each row of ``pushed`` (``(R, n)``) had on dead ends.

    Reduced over a C-contiguous ``(R, D)`` compact gather (np.take; the
    plain ``[:, dead]`` fancy index yields a transposed buffer whose
    strided rows reduce *sequentially*, not pairwise): each row of the
    row-wise reduction is then the same pairwise sum over the same 1-D
    values the single-source kernel reduces.
    """
    dead = state.graph.dead_ends
    if not dead.shape[0]:
        return None
    gathered = np.ascontiguousarray(np.take(pushed, dead, axis=1))
    return (1.0 - state.alpha) * gathered.sum(axis=1)


def _finish_block_sweep(
    state: BlockPushState,
    rows: np.ndarray,
    whole_block: bool,
    dead_masses: np.ndarray | None,
) -> None:
    """Route each row's dead-end mass, then refresh the rows' ``r_sum``."""
    if dead_masses is not None:
        policy = state.dead_end_policy
        if policy == "redirect-to-source":
            state.residue[rows, state.sources[rows]] += dead_masses
        elif policy == "uniform-teleport":
            spread = (dead_masses / state.graph.num_nodes)[:, None]
            if whole_block:
                state.residue += spread
            else:
                state.residue[rows] += spread
        elif np.any(dead_masses != 0.0):
            # self-loop handled structurally; mass cannot appear here
            raise AssertionError(
                "structural self-loop graphs cannot emit dead-end mass"
            )
    # One row-wise reduction replaces per-row refresh calls;
    # bitwise-equal to summing each contiguous row on its own.
    if whole_block:
        state.r_sum[:] = state.residue.sum(axis=1)
    else:
        state.r_sum[rows] = state.residue[rows].sum(axis=1)


def block_async_sweep(
    state: BlockPushState,
    rows: np.ndarray,
    *,
    workspace: Workspace | None = None,
    backend: "KernelBackend | None" = None,
) -> np.ndarray | None:
    """One :func:`async_sweep` for every row in ``rows`` at once.

    The rows' residues are laid out column-wise for the sweep, so each
    edge of a chunk is read once and scatters ``len(rows)`` contiguous
    shares; every row goes through :func:`async_propagate`'s operations
    in the order its own single-source sweep applies them, which keeps
    it bitwise-identical to that sweep.

    Returns the ``(len(rows), n)`` reserve gains, row ``i`` being what
    :func:`async_sweep` returns for ``rows[i]`` (``None`` for no rows).
    """
    if rows.shape[0] == 0:
        return None
    if backend is not None:
        return backend.block_async_sweep(state, rows, workspace=workspace)
    n = state.graph.num_nodes
    num_rows = rows.shape[0]
    whole_block = _is_identity(rows, state.num_rows)
    live = _scratch(workspace, "sweep_live", n * num_rows, np.float64)
    live = live.reshape(n, num_rows)
    live[:] = (state.residue if whole_block else state.residue[rows]).T
    pushed = _scratch(workspace, "sweep_pushed", n * num_rows, np.float64)
    pushed = pushed.reshape(n, num_rows)
    async_propagate(state.graph, live, pushed, state.alpha, workspace=workspace)
    if whole_block:
        state.residue[:] = live.T
    else:
        state.residue[rows] = live.T
    return _settle_block_async_sweep(state, rows, pushed.T)


def _settle_block_async_sweep(
    state: BlockPushState, rows: np.ndarray, pushed: np.ndarray
) -> np.ndarray:
    """Block form of :func:`_settle_async_sweep`; ``pushed`` is ``(R, n)``.

    Shared by every backend's :func:`block_async_sweep`; scales
    ``pushed`` by ``alpha`` in place and returns it.
    """
    whole_block = _is_identity(rows, state.num_rows)
    holders = pushed != 0.0
    state.count_bulk_pushes(
        rows,
        np.count_nonzero(holders, axis=1),
        holders @ state.graph.out_degree,
    )
    dead_masses = _block_dead_masses(state, pushed)
    pushed *= state.alpha
    if whole_block:
        state.reserve += pushed
    else:
        state.reserve[rows] += pushed
    _finish_block_sweep(state, rows, whole_block, dead_masses)
    return pushed


def block_frontier_push(
    state: BlockPushState,
    rows: np.ndarray,
    masks: np.ndarray,
    *,
    workspace: Workspace | None = None,
    backend: "KernelBackend | None" = None,
) -> None:
    """Push each row's own frontier through one shared gather/scatter.

    Parameters
    ----------
    rows:
        Row indices into the block, aligned with ``masks``.
    masks:
        ``(len(rows), n)`` boolean matrix; ``masks[i]`` is row
        ``rows[i]``'s frontier.  Every row must have at least one
        active node (callers filter empty frontiers, mirroring the
        single-source kernel's early return).

    The adjacency ranges of the **union** frontier are gathered once;
    rows scatter through a single flat ``bincount`` over
    ``local_row * n + target`` indexes.  A union node inactive in some
    row contributes an exact ``+0.0`` there, so each row's result is
    bitwise what :func:`frontier_push` on its own frontier produces.

    An empty ``rows`` (or all-empty ``masks``) returns before backend
    dispatch without requesting any workspace buffer.
    """
    if rows.shape[0] == 0:
        return
    if backend is not None:
        backend.block_frontier_push(state, rows, masks, workspace=workspace)
        return
    graph = state.graph
    alpha = state.alpha
    n = graph.num_nodes
    num_rows = rows.shape[0]

    # Row-major nonzero: per row, active columns ascending — the exact
    # node order the single-source kernel pushes in.
    local_rows, cols = np.nonzero(masks)
    if cols.shape[0] == 0:
        return
    global_rows = rows[local_rows]
    r_pushed = state.residue[global_rows, cols]
    degrees = graph.out_degree[cols]
    live = degrees > 0

    # Per-row segment boundaries within the flattened (row, col) pairs.
    frontier_sizes = np.count_nonzero(masks, axis=1)
    segments = _scratch(workspace, "block_segments", num_rows + 1, np.int64)
    segments[0] = 0
    np.cumsum(frontier_sizes, out=segments[1:])

    state.reserve[global_rows, cols] += alpha * r_pushed
    state.residue[global_rows, cols] = 0.0

    union_mask = masks.any(axis=0)
    union_nodes = np.flatnonzero(union_mask)
    targets, counts = frontier_edge_targets(
        graph, union_nodes, workspace=workspace
    )
    total = int(targets.shape[0])
    if total:
        # Shares are laid out over the *live* union nodes only: a dead
        # union node contributes no edges, so the single-source
        # ``np.repeat(shares, counts)`` skips it anyway and the
        # per-edge values are identical.  Building contributions as a
        # gather (share of the edge's owner) instead of a repeat lets
        # the big (R x total) weight matrix live in pooled scratch.
        live_union = counts > 0
        live_nodes = union_nodes[live_union]
        num_live = live_nodes.shape[0]
        live_positions = np.searchsorted(live_nodes, cols[live])

        shares = _scratch(
            workspace, "push_shares", num_rows * num_live, np.float64
        ).reshape(num_rows, num_live)
        shares[:] = 0.0
        shares[local_rows[live], live_positions] = (
            (1.0 - alpha) * r_pushed[live] / degrees[live]
        )

        # edge -> live-owner index, by the same boundary-delta cumsum
        # trick the gather uses (0 within a range, +1 at boundaries).
        edge_owner = _scratch(workspace, "scatter_owner", total, np.int64)
        edge_owner[:] = 0
        live_counts = counts[live_union]
        if num_live > 1:
            # Fully written by the cumsum, so empty scratch is safe.
            bounds = _scratch(
                workspace, "scatter_bounds", num_live - 1, np.int64
            )
            np.cumsum(live_counts[:-1], out=bounds)
            edge_owner[bounds] = 1
            edge_owner[0] = 0
            np.cumsum(edge_owner, out=edge_owner)
        weights = _scratch(
            workspace, "scatter_weights", num_rows * total, np.float64
        ).reshape(num_rows, total)
        np.take(shares, edge_owner, axis=1, out=weights)

        flat_targets = _scratch(
            workspace, "scatter_targets", num_rows * total, np.int64
        )
        flat_view = flat_targets.reshape(num_rows, total)
        flat_view[:] = targets[None, :]
        flat_view += (np.arange(num_rows, dtype=np.int64) * n)[:, None]
        scattered = np.bincount(
            flat_targets,
            weights=weights.reshape(-1),
            minlength=num_rows * n,
        ).reshape(num_rows, n)
        state.residue[rows] += scattered

    # Billing vectorises (integers); the residue-mass sums stay per-row
    # compact-slice reductions of the grouped gather — identical 1-D
    # arrays (hence identical pairwise sums) to what the single-source
    # kernel reduces.
    any_dead = bool(np.any(~live))
    dead_counts = (
        np.bincount(local_rows[~live], minlength=num_rows)
        if any_dead
        else 0
    )
    degree_sums = np.add.reduceat(degrees, segments[:-1])
    state.count_bulk_pushes(rows, frontier_sizes, degree_sums + dead_counts)
    dead_in_row = ~live
    for position in range(num_rows):
        begin, end = int(segments[position]), int(segments[position + 1])
        row = int(rows[position])
        row_r = r_pushed[begin:end]
        pushed_mass = float(row_r.sum())
        if any_dead:
            row_dead = dead_in_row[begin:end]
            dead_mass = (1.0 - alpha) * float(row_r[row_dead].sum())
            _apply_block_dead_end_mass(state, row, dead_mass)
        state.note_r_sum_delta(row, -alpha * pushed_mass)


def _apply_block_dead_end_mass(
    state: BlockPushState, row: int, dead_mass: float
) -> None:
    """Route one row's dead-end mass according to the shared policy."""
    if dead_mass == 0.0:
        return
    if state.dead_end_policy == "redirect-to-source":
        state.residue[row, state.sources[row]] += dead_mass
    elif state.dead_end_policy == "uniform-teleport":
        state.residue[row] += dead_mass / state.graph.num_nodes
    else:  # self-loop handled structurally; mass cannot appear here
        raise AssertionError(
            "structural self-loop graphs cannot emit dead-end mass"
        )
