"""Vectorised push kernels shared by the algorithm implementations.

Every push-family algorithm in the paper reduces to three bulk moves:

* a **global sweep** — push *every* node simultaneously; this is one
  Power-Iteration step and costs ``O(m)`` regardless of how much
  residue exists (implemented as one sparse mat-vec with the cached
  ``P^T``).  PowItr and SimFwdPush, synchronous by definition, are
  built on it;
* a **frontier push** — push only a given set of nodes, simultaneously;
  this costs ``O(frontier + sum of frontier degrees)`` and nothing
  sized by the graph (implemented as one compiled gather of the
  frontier's adjacency ranges, :func:`gather_ranges`, followed by one
  compiled in-place scatter, :func:`scatter_add` — below); and
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
settle (billing, reserves, ``r_sum``).  The scatter is
:func:`scatter_add` — scipy's ``csc_matvec`` run on the *forward* CSR,
the chunk's rows of ``out_indptr``/``out_indices`` read as the columns
of a sparse matrix with all-one weights — which adds each share into
the live residue vector in place.  So a sweep reads neither ``P^T``
nor any per-edge weight array (the transposed matrix's ``data`` is 8
bytes per edge the mat-vec has to stream), and costs about the
mat-vec's time per edge
(``kernels.global_sweep_ns_per_edge`` beside
``powerpush.ns_per_residue_update`` in a ``benchmarks/e2e`` traced
run) while needing little more than half as many sweeps to reach the
same ``r_sum``.

Summation order, and why results are bitwise-stable: the scatter walks
a chunk's nodes in ascending id and each node's edges in CSR order, so
a target accumulates its shares in ascending-source order, one IEEE add
at a time, chunks in ascending order — a fixed sequence that depends on
the graph alone, not on the workspace or the thread running it.  The
all-one weight makes ``weight * share`` exact.  What *does* depend on
node order is the answer itself: relabelling the graph changes which
residues are fresh when, hence which of the valid answers (all within
``r_sum`` of the exact vector) comes out.

``P^T`` is still built by ``warm_push_caches`` (PowItr, SimFwdPush and
BePI read it) but is no longer part of the shared-memory image: a
shard that needs it builds it lazily.

The gather/scatter pair under every local push
----------------------------------------------
:func:`gather_ranges` copies arbitrary ranges of an index array —
whole adjacency lists, or prefixes — into one compact array in a
single pass of scipy's ``csr_row_index``, and :func:`scatter_add` adds
one value per range into a vector at every index of the range, in
place, in a single pass of the ``csc_matvec`` the sweep scatters with.
:func:`frontier_propagate` (under :func:`frontier_push` and
``IncrementalPPR``'s signed frontier sweep) and the walk-index read of
:func:`~repro.core.mc_phase.monte_carlo_refine` are built on the pair,
so a local push touches each frontier edge twice (copy, add), stages
only pointers and fences per frontier node, and has no ``O(n)`` term —
the cost the paper's analysis of the local side assumes (measured
times: README, "Kernels"; limits: :func:`gather_ranges`).  A
target accumulates its shares on top of its residue one add at a time,
``r + c_1 + c_2 + ...``, in an order fixed by the frontier and the CSR,
as for the sweep.

Scratch buffers: the frontier kernels accept an optional
:class:`~repro.core.workspace.Workspace`; callers that push in a loop
(the solvers) thread one through so the frontier-sized temporaries are
reused instead of reallocated every call.  This is enforced
mechanically: ``repro-ppr lint`` (``repro.analysis``) checks
``workspace-discipline`` on every CI run — see CONTRIBUTING.md for the
invariant -> rule table.

PowerPush has no multi-source kernel: a batch is a per-source loop
(README, "Why PowerPush has no block path").  :func:`block_global_sweep`
is what is left of one, kept for the benchmark ladder alone.
"""

from __future__ import annotations

import numpy as np

from repro.core.residues import BlockPushState, PushState
from repro.core.workspace import Workspace
from repro.errors import GraphConstructionError, ParameterError

# The one import site of the two private scipy entry points the push
# kernels are built on; tests/test_core_gather_scatter.py pins their
# behaviour at the dtypes used here.
try:
    from scipy.sparse._sparsetools import (
        csc_matvec as _csc_matvec,
        csr_row_index as _csr_row_index,
    )
except ImportError as exc:  # pragma: no cover - depends on the scipy build
    import scipy

    raise ImportError(
        f"repro's push kernels are built on csr_row_index and csc_matvec of "
        f"the private module scipy.sparse._sparsetools, and the installed "
        f"scipy {scipy.__version__} does not provide them"
    ) from exc

__all__ = [
    "gather_ranges",
    "scatter_add",
    "global_sweep",
    "frontier_push",
    "frontier_propagate",
    "async_propagate",
    "extrapolate_window",
    "async_sweep",
    "sweep_active",
]

# Fraction of all nodes above which `sweep_active` abandons the
# gather/scatter path for the contiguous mat-vec.  Mirrors PowerPush's
# scan_threshold = n/4 default.
DENSE_SWEEP_FRACTION = 0.25

# What int32 fences and pointers can address (a name so the guard's
# test can lower it).
_INT32_MAX = int(np.iinfo(np.int32).max)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _GrownConstant:
    """A process-wide read-only constant array, served by prefix.

    Grown geometrically *by replacement*: a caller keeps the array it
    was handed, so solves running on other threads are never left with
    a resized buffer, and every graph version shares one copy.
    """

    __slots__ = ("_make", "_array")

    def __init__(self, make) -> None:
        self._make = make
        self._array = make(0)

    def __call__(self, size: int) -> np.ndarray:
        array = self._array
        if array.shape[0] < size:
            array = _read_only(self._make(max(size, 2 * array.shape[0])))
            self._array = array
        return array[:size]


#: ``(pointers, gathered)`` of an empty gather, per supported dtype.
_NO_RANGES = {
    np.dtype(dtype): (
        _read_only(np.zeros(1, dtype=dtype)),
        _read_only(np.empty(0, dtype=dtype)),
    )
    for dtype in (np.int32, np.int64)
}

#: All-one edge weights of the scatter (``1.0 * share`` is exact); as
#: long as the widest single scatter so far, 8 bytes per target.
_ONES = _GrownConstant(lambda size: np.ones(size, dtype=np.float64))
#: The data array ``csr_row_index`` insists on copying: a byte per entry.
_ZERO_TAGS = _GrownConstant(lambda size: np.zeros(size, dtype=np.int8))
#: Rows ``0, 2, 4, ...`` of the interleaved fence array.
_EVEN_ROWS = _GrownConstant(
    lambda size: np.arange(0, 2 * size, 2, dtype=np.int32)
)


def gather_ranges(
    indices: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    *,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ``indices[starts[j] : starts[j] + counts[j]]`` over ``j``.

    Returns ``(pointers, gathered)``: range ``j`` of the input sits at
    ``gathered[pointers[j] : pointers[j + 1]]``, in input order — the
    layout :func:`scatter_add` consumes.  With ``indices`` a CSR
    adjacency array, ``starts = indptr[nodes]`` and ``counts`` the
    degrees this is the multi-range gather of a frontier's out-edges;
    shorter ``counts`` read prefixes (the walk-index read).

    One compiled pass: scipy's ``csr_row_index`` copies row ``i`` of a
    CSR matrix, ``Aj[Ap[i] : Ap[i + 1]]``, for a list of rows, so it is
    handed the interleaved fences ``[start_0, end_0, start_1, end_1,
    ...]`` as ``Ap`` and the even rows ``0, 2, 4, ...``.  It copies a
    data array alongside: a process-wide all-zero ``int8`` array (a
    byte per entry of the longest ``indices`` seen) into ``int8``
    scratch.

    ``indices`` is C-contiguous ``int32`` or ``int64`` (read-only and
    shared-memory arrays are fine) and fixes the dtype of the fences,
    of ``pointers`` and of ``gathered``; an ``int32`` array — or a
    gather — of more than 2**31 - 1 entries raises
    :class:`~repro.errors.GraphConstructionError`, as the sweep plan
    does.  ``starts`` and ``counts`` are any integer dtype, ``counts``
    non-negative, every range inside ``indices``.  With a ``workspace``
    both results are pooled scratch, valid until the next gather
    through it.
    """
    dtype = indices.dtype
    if dtype not in _NO_RANGES or not indices.flags.c_contiguous:
        raise ParameterError(
            f"gather_ranges reads C-contiguous int32 or int64 indices, "
            f"got {dtype}"
        )
    num = starts.shape[0]
    if num == 0:
        # Nothing to gather: no scratch requested, no kernel called.
        return _NO_RANGES[dtype]
    total = int(counts.sum())
    if dtype == np.int32 and max(total, indices.shape[0]) > _INT32_MAX:
        raise GraphConstructionError(
            f"gathering {total} of {indices.shape[0]} entries is more than "
            f"the int32 fences of the gather kernel can address"
        )
    pointers = _scratch(workspace, "gather_pointers", num + 1, dtype)
    pointers[0] = 0
    np.cumsum(counts, out=pointers[1:])
    fences = _scratch(workspace, "gather_fences", 2 * num, dtype)
    fences[0::2] = starts
    np.add(starts, counts, out=fences[1::2], casting="same_kind")
    gathered = _scratch(workspace, "gather_targets", total, dtype)
    tags = _scratch(workspace, "gather_tags", total, np.int8)
    _csr_row_index(
        num,
        _EVEN_ROWS(num),
        fences,
        indices,
        _ZERO_TAGS(indices.shape[0]),
        gathered,
        tags,
    )
    return pointers, gathered


def scatter_add(
    out: np.ndarray,
    pointers: np.ndarray,
    targets: np.ndarray,
    values: np.ndarray,
    *,
    workspace: Workspace | None = None,
) -> None:
    """``out[t] += values[j]`` for every ``t`` in range ``j`` of ``targets``.

    Range ``j`` is ``targets[pointers[j] : pointers[j + 1]]`` — what
    :func:`gather_ranges` returns, or a CSR ``indptr``/``indices`` pair.
    In place, duplicates accumulate, and each entry of ``out`` receives
    its additions one IEEE add at a time in ``targets`` order; values
    of either sign.  This is scipy's ``csc_matvec`` reading the ranges
    as the columns of an all-one sparse matrix, so nothing sized by
    ``out`` is allocated.

    ``out`` and ``values`` are C-contiguous float64 (anything else
    would make scipy add into a converted copy and drop the result);
    ``pointers`` are converted to the dtype of ``targets`` through the
    workspace when they differ.
    """
    if not (
        out.flags.c_contiguous
        and out.flags.writeable
        and out.dtype == np.float64
        and values.flags.c_contiguous
        and values.dtype == np.float64
    ):
        raise ParameterError(
            "scatter_add adds in place and needs C-contiguous float64 "
            "arrays (a writable one to add into)"
        )
    if pointers.dtype != targets.dtype:
        cast = _scratch(
            workspace, "scatter_pointers", pointers.shape[0], targets.dtype
        )
        cast[:] = pointers
        pointers = cast
    _csc_matvec(
        out.shape[0],
        values.shape[0],
        pointers,
        targets,
        _ONES(targets.shape[0]),
        values,
        out,
    )


def global_sweep(
    state: PushState,
    *,
    count_all_edges: bool = True,
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
    """
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
) -> None:
    """Simultaneously push exactly ``nodes`` (gather/scatter path).

    Contributions are based on the residues at entry; the pushed nodes'
    residues are zeroed first so self-loop edges re-deposit correctly.

    An empty ``nodes`` returns before requesting any workspace buffer
    (the empty-frontier fast path late epochs rely on).
    """
    if nodes.shape[0] == 0:
        return
    alpha = state.alpha
    pushed, counts, num_edges = frontier_propagate(
        state.graph, state.residue, nodes, alpha, workspace=workspace
    )
    state.reserve[nodes] += alpha * pushed

    dead = counts == 0
    num_dead = int(np.count_nonzero(dead))
    dead_mass = (1.0 - alpha) * float(pushed[dead].sum()) if num_dead else 0.0
    state.counters.count_bulk_pushes(nodes.shape[0], num_edges + num_dead)
    _apply_dead_end_mass(state, dead_mass)
    state.note_r_sum_delta(-alpha * float(pushed.sum()))


def frontier_propagate(
    graph,
    residue: np.ndarray,
    nodes: np.ndarray,
    alpha: float,
    *,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """One simultaneous push of ``nodes`` over a raw residue array.

    The local counterpart of :func:`async_propagate`: take the residues
    of ``nodes`` off ``residue`` — first, so a self-loop re-deposits —
    and add ``(1 - alpha) * r / out_degree``, computed from the residues
    at entry, to every out-neighbour in place: one :func:`gather_ranges`
    over the nodes' adjacency lists and one :func:`scatter_add`, so the
    call costs ``O(len(nodes) + their edges)`` and allocates nothing
    sized by the graph.  Returns ``(pushed, counts, num_edges)`` — what
    each node pushed, its out-degree, and the edges travelled; settling
    ``alpha * pushed`` into a reserve, billing, and the mass of nodes
    with no out-edge (``counts == 0``) are the caller's.

    ``nodes`` are distinct ids of any integer dtype; ``residue`` is
    C-contiguous float64 and may be negative
    (:mod:`repro.core.incremental`).  When no node has an out-edge no
    workspace buffer is requested.
    """
    indptr = graph.out_indptr
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    pushed = residue[nodes]
    residue[nodes] = 0.0
    num_edges = int(counts.sum())
    if num_edges:
        pointers, targets = gather_ranges(
            graph.out_indices, starts, counts, workspace=workspace
        )
        shares = _scratch(
            workspace, "frontier_shares", nodes.shape[0], np.float64
        )
        np.multiply(pushed, 1.0 - alpha, out=shares)
        # A node without out-edges owns an empty range: its share is
        # never read, it only must not divide by zero.
        shares /= np.maximum(counts, 1)
        scatter_add(residue, pointers, targets, shares, workspace=workspace)
    return pushed, counts, num_edges


def sweep_active(
    state: PushState,
    r_max: float,
    *,
    threshold_vec: np.ndarray | None = None,
    workspace: Workspace | None = None,
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
    graph = state.graph
    if threshold_vec is None:
        active = state.active_mask(r_max)
    else:
        active = state.residue > threshold_vec
    frontier = np.flatnonzero(active)
    num_active = frontier.shape[0]
    if num_active == 0:
        return 0

    if num_active <= DENSE_SWEEP_FRACTION * graph.num_nodes:
        frontier_push(state, frontier, workspace=workspace)
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
    ``(n,)``.  Residues may be negative (:mod:`repro.core.incremental`).
    """
    if not (residue.flags.c_contiguous and pushed.flags.c_contiguous):
        raise ParameterError(
            "async_propagate scatters in place and needs C-contiguous arrays"
        )
    plan = graph.sweep_plan()
    scale = 1.0 - alpha
    for c in range(len(plan.bounds) - 1):
        lo, hi = plan.bounds[c], plan.bounds[c + 1]
        if lo == hi:
            continue
        live, snapshot = residue[lo:hi], pushed[lo:hi]
        shares = _scratch(workspace, "sweep_shares", hi - lo, np.float64)
        snapshot[...] = live
        live[...] = 0.0
        np.multiply(snapshot, scale, out=shares)
        shares /= plan.degree[lo:hi]
        pointers, targets = plan.columns(c)
        scatter_add(residue, pointers, targets, shares, workspace=workspace)


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
    k = ratio.min(where=ratio >= 0.0, initial=np.inf)
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
    graph = state.graph
    pushed = _scratch(workspace, "sweep_pushed", graph.num_nodes, np.float64)
    async_propagate(
        graph, state.residue, pushed, state.alpha, workspace=workspace
    )
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


def _scratch(
    workspace: Workspace | None, key: str, size: int, dtype
) -> np.ndarray:
    """A pooled buffer when a workspace is threaded, else a fresh one."""
    if workspace is not None:
        return workspace.buffer(key, size, dtype)
    return np.empty(size, dtype=dtype)


# Harness-only: benchmarks/e2e/layers.py is the sole caller.
def block_global_sweep(
    state: BlockPushState, rows: np.ndarray, *, count_all_edges: bool = False
) -> None:
    """One :func:`global_sweep` for every row in ``rows``, as one mat-mat.

    ``P^T @ R^T`` scans the CSR arrays once for all rows and accumulates
    each output column over the same nonzeros in the same order as the
    mat-vec; the dead-end sums run over a C-contiguous ``np.take``
    gather (pairwise per row, like the 1-D sum), so every row ends
    bitwise where its own :func:`global_sweep` would.
    """
    graph, alpha = state.graph, state.alpha
    r_block = state.residue[rows]
    state.reserve[rows] += alpha * r_block
    moved = graph.transition_matrix_transpose().dot(
        np.ascontiguousarray(((1.0 - alpha) * r_block).T)
    )
    if count_all_edges:
        state.count_bulk_pushes(rows, graph.num_nodes, graph.num_edges)
    else:
        holders = r_block > 0.0
        state.count_bulk_pushes(
            rows, np.count_nonzero(holders, axis=1), holders @ graph.out_degree
        )
    state.residue[rows] = moved.T
    dead = graph.dead_ends
    if dead.shape[0]:
        gathered = np.ascontiguousarray(np.take(r_block, dead, axis=1))
        dead_masses = (1.0 - alpha) * gathered.sum(axis=1)
        if state.dead_end_policy == "redirect-to-source":
            state.residue[rows, state.sources[rows]] += dead_masses
        elif state.dead_end_policy == "uniform-teleport":
            state.residue[rows] += (dead_masses / graph.num_nodes)[:, None]
        elif np.any(dead_masses != 0.0):
            # self-loop handled structurally; mass cannot appear here
            raise AssertionError(
                "structural self-loop graphs cannot emit dead-end mass"
            )
    state.r_sum[rows] = state.residue[rows].sum(axis=1)
