"""Push kernels shared by the algorithm implementations.

Every push-family algorithm in the paper reduces to three bulk moves:

* a **global sweep** — push *every* node simultaneously; this is one
  Power-Iteration step and costs ``O(m)`` regardless of how much
  residue exists (implemented as one :func:`scatter_ranges` over every
  node's adjacency range, reading only ``out_indptr`` /
  ``out_indices``).  PowItr, synchronous by definition, is built on
  it, and so is :func:`~repro.core.pagerank.preference_pagerank`;
* a **frontier push** — push only a given set of nodes, simultaneously;
  this costs ``O(frontier + sum of frontier degrees)`` and nothing
  sized by the graph (implemented as one C loop over the frontier's
  adjacency ranges, :func:`scatter_ranges` — below); and
* an **asynchronous sweep** — push every node holding residue, node by
  node in ascending id, each push reading the residues the pushes
  before it left (the scan of PowerPush's Algorithm 3, and the dense
  side of FIFO-FwdPush; cost model below).  Given a ``threshold`` it
  pushes only the nodes with ``r > threshold[v]`` as it reaches them:
  Algorithm 3's active-only scan, which is all of SpeedPPR's
  post-refinement (:func:`~repro.core.refinement.refine_to_r_max`).

The switch between the local and the global moves is exactly the
paper's "global sequential scan vs. local random access" trade-off
(Section 5): for small frontiers the range scatter wins; once the
frontier covers a sizeable fraction of the graph the contiguous scan
is faster.  :func:`sweep_active` chooses automatically using the same
kind of threshold PowerPush's queue-to-scan switch uses.  The
refinement needs no switch: its active-only scan touches only the
active nodes' edges and replaced rounds of :func:`sweep_active` there
(on ``pokec-s`` x10 at ``W`` ~ 1e7: 7.0-7.9 -> 3.9 ms and 585 k ->
469 k residue updates a query, ~30 rounds -> ~15 passes).

A fourth move touches no edge: :func:`extrapolate_window` repeats a
window of pushes already made ``k`` more times in ``O(n)``, by the
linearity of the push invariant.  PowerPush applies it to the last
sweep of every scan epoch.

Within a global sweep or a frontier push, pushes are *simultaneous*:
contributions are computed from the residues at entry.  The kernels
mutate the :class:`PushState` in place and keep its incremental
``r_sum`` and counters up to date.

The asynchronous sweep and its cost model
-----------------------------------------
:func:`async_sweep` (over a :class:`PushState`) and :func:`settle_sweep`
(over raw arrays) run one C loop, :func:`extrapolate_window` a second
and :func:`scatter_ranges` a third: ``_kernels.c``, compiled with the
``cc`` on ``PATH`` on the first import of this module into
``__pycache__/_kernels-<key>.so`` — the key hashes the source, the
flags and the machine, so a warm import starts no process — and
called through :mod:`ctypes`.  There is no other implementation and
nothing to select; a missing or failing compiler is a
:class:`~repro.errors.KernelBuildError` (an ``ImportError``) at import.
The sweep is one pass over the node ids with the settle step fused in:
per node holding residue, its residue, reserve and settled entries,
and one add per out-edge into the live residue vector, reading only
``out_indptr`` / ``out_indices`` — no ``P^T``, no per-edge weight.
Per sweep the Python side adds one ``O(n)`` sum for ``r_sum``.  A
traced ``benchmarks/e2e`` run prints its cost per edge
(``powerpush.ns_per_residue_update``) beside the global sweep's
(``kernels.global_sweep_ns_per_edge``); because every push sees every
earlier push of the same sweep, a query needs fewer sweeps than with
any coarser freshness.

Summation order, and why results are bitwise-stable: nodes in
ascending id and each node's edges in CSR order, so a target
accumulates its shares one IEEE add at a time in a sequence that
depends on the graph alone, not on the thread running it.  The C
source is compiled with ``-ffp-contract=off`` (no fused multiply-add),
so every product and sum rounds on its own and the loops give the bits
of the same loops written in Python, on every architecture;
``tests/test_core_async_sweep.py`` and
``tests/test_core_gather_scatter.py`` check them against such
references.  What *does* depend on node order is the answer
itself: relabelling the graph changes which residues are fresh when,
hence which of the valid answers (all within ``r_sum`` of the exact
vector) comes out.

No push reads ``P^T``: every kernel here reads the out-CSR alone.  The
global sweep scatters ``(1 / d_u) * x_u`` — the product ``P^T``'s
mat-vec forms, not the division ``x_u / d_u``, which rounds
differently — along ``u``'s range for every ``u`` in ascending id,
which is the order in which the mat-vec sums row ``v`` of ``P^T``, so
it returns that mat-vec's bytes (``tests/test_core_global_sweep.py``
checks them against scipy).  Only BePI, BEAR and the harness-only
:func:`block_global_sweep` read ``P^T``, which the graph builds for
them lazily, on first use.

The range scatter under every local push
----------------------------------------
:func:`scatter_ranges` adds one value per range of an ``int32`` index
array into a vector at every index of the range, in place, in one C
loop: ranges in the order given, each range's entries in array order,
so a target accumulates its shares on top of what it held one add at a
time, ``r + c_1 + c_2 + ...``, in an order fixed by the frontier and
the CSR.  :func:`frontier_propagate` (under :func:`frontier_push`)
hands it the frontier's adjacency ranges, ``indptr[nodes]`` and the
out-degrees, and the walk-index read of
:func:`~repro.core.mc_phase.monte_carlo_refine` the first ``W_v``
stops of every node, so a local push touches each frontier edge once,
stages only one share per frontier node, and has no ``O(n)`` term —
the cost the paper's analysis of the local side assumes (measured
times: README, "Kernels").  The wrapper checks that every range lies
inside the index array; that every index lies inside the vector is the
caller's precondition, which a checked CSR
(:class:`~repro.graph.digraph.DiGraph`) and a checked
:class:`~repro.walks.index.WalkIndex` meet by construction.

PowerPush has no multi-source kernel: a batch is a per-source loop
(README, "Why PowerPush has no block path").  :func:`block_global_sweep`
is what is left of one, kept for the benchmark ladder alone.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.core.residues import BlockPushState, PushState
from repro.errors import KernelBuildError, ParameterError

__all__ = [
    "scatter_ranges",
    "global_sweep",
    "frontier_push",
    "frontier_propagate",
    "settle_sweep",
    "extrapolate_window",
    "async_sweep",
    "sweep_active",
]

_SOURCE = Path(__file__).with_name("_kernels.c")
# No -march=native (it measured slower), and no fused multiply-add, so
# the loops round like the same loops written in Python.
_CFLAGS = ("-std=c99", "-O3", "-fPIC", "-shared", "-ffp-contract=off")


def _build(cache_dir: Path) -> ctypes.CDLL:
    """Load ``_kernels.c`` compiled into ``cache_dir``, compiling it if absent.

    The library's name hashes the source, the flags and the machine, so
    an edited source or another architecture gets a fresh build and a
    warm load starts no process.  A build writes a private temporary
    file and renames it into place, so a process racing this one loads
    either no file or a complete one.
    """
    key = hashlib.sha256(
        b"\0".join(
            [_SOURCE.read_bytes(), " ".join(_CFLAGS).encode(),
             platform.machine().encode()]
        )
    ).hexdigest()[:16]
    library = cache_dir / f"_kernels-{key}.so"
    if not library.exists():
        try:
            _compile(library)
        except OSError as exc:
            raise KernelBuildError(
                f"repro's push kernels are C, compiled on first import with "
                f"the C compiler `cc`, and building {library} failed: {exc}"
            ) from exc
    lib = ctypes.CDLL(str(library))
    pointer, count = ctypes.c_void_p, ctypes.c_int64
    lib.repro_async_sweep.restype = ctypes.c_double
    lib.repro_async_sweep.argtypes = [
        count, pointer, pointer, ctypes.c_double,
        pointer, pointer, pointer, pointer, ctypes.POINTER(count),
    ]
    lib.repro_extrapolate_window.restype = ctypes.c_int
    lib.repro_extrapolate_window.argtypes = [count] + [pointer] * 4
    lib.repro_scatter_ranges.restype = ctypes.c_int
    lib.repro_scatter_ranges.argtypes = [
        count, pointer, pointer, count, pointer, pointer, pointer,
    ]
    return lib


def _compile(library: Path) -> None:
    library.parent.mkdir(parents=True, exist_ok=True)
    fd, partial = tempfile.mkstemp(
        prefix="_kernels-", suffix=".partial", dir=library.parent
    )
    os.close(fd)
    try:
        built = subprocess.run(
            ["cc", *_CFLAGS, "-o", partial, str(_SOURCE)],
            capture_output=True,
            text=True,
        )
        if built.returncode:
            raise KernelBuildError(
                f"`cc` could not compile {_SOURCE} "
                f"(exit {built.returncode}):\n{built.stderr}"
            )
        os.replace(partial, library)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


_LIB = _build(Path(__file__).with_name("__pycache__"))


def _address(array: np.ndarray, size: int, name: str) -> int:
    """The data pointer of a float64 ``(size,)`` array the C loops write.

    Checked here because a C loop handed anything else corrupts memory
    instead of raising.
    """
    if not (
        isinstance(array, np.ndarray)
        and array.dtype == np.float64
        and array.shape == (size,)
        and array.flags.c_contiguous
        and array.flags.writeable
    ):
        raise ParameterError(
            f"{name} must be a writable C-contiguous float64 array of shape "
            f"({size},)"
        )
    return array.ctypes.data


# Fraction of all nodes above which `sweep_active` abandons the
# range scatter for the asynchronous scan.  Mirrors PowerPush's
# scan_threshold = n/4 default.
DENSE_SWEEP_FRACTION = 0.25


def scatter_ranges(
    out: np.ndarray,
    targets: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    values: np.ndarray,
) -> None:
    """``out[t] += values[j]`` for every ``t`` in range ``j`` of ``targets``.

    Range ``j`` is ``targets[starts[j] : starts[j] + counts[j]]``: with
    ``targets`` a CSR adjacency array, ``starts = indptr[nodes]`` and
    ``counts`` the out-degrees it is a frontier's out-edges; shorter
    ``counts`` read prefixes (the walk-index read).  In place, ranges in
    order and each range in array order, duplicates accumulating one
    IEEE add at a time; values of either sign.  Nothing is allocated
    but copies of ``starts`` / ``counts`` that are not ``int64`` and of
    ``values`` that are not float64.

    ``targets`` is a C-contiguous ``int32`` array (read-only and
    shared-memory arrays are fine) whose entries index ``out``, a
    writable C-contiguous float64 vector; ``values`` holds one float64
    per range.  A range with a negative start or count, or reaching
    past the end of ``targets``, raises
    :class:`~repro.errors.ParameterError` before anything is added.
    """
    starts = np.ascontiguousarray(starts, dtype=np.int64)
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    values = np.ascontiguousarray(values, dtype=np.float64)
    num = starts.shape[0]
    if not (
        isinstance(targets, np.ndarray)
        and targets.dtype == np.int32
        and targets.ndim == 1
        and targets.flags.c_contiguous
    ):
        raise ParameterError("targets must be a C-contiguous int32 vector")
    if starts.shape != (num,) or counts.shape != (num,) or values.shape != (num,):
        raise ParameterError(
            "starts, counts and values must be vectors of one entry per range"
        )
    if _LIB.repro_scatter_ranges(
        num,
        starts.ctypes.data,
        counts.ctypes.data,
        targets.shape[0],
        targets.ctypes.data,
        values.ctypes.data,
        _address(out, np.size(out), "out"),
    ):
        raise ParameterError(
            f"a range reaches outside the {targets.shape[0]} targets"
        )


def global_sweep(
    state: PushState,
    *,
    count_all_edges: bool = True,
) -> None:
    """One simultaneous push of every node — a Power-Iteration step.

    ``pi_hat += alpha * r`` and ``r <- (1 - alpha) * r P`` by one
    range scatter over the out-CSR (:func:`_transition`); dead-end
    mass follows the state's policy.

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
    moved = _transition(graph, (1.0 - alpha) * r)

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


def _transition(graph, x: np.ndarray) -> np.ndarray:
    """``x P`` as a fresh array, in the bytes of ``P^T.dot(x)`` (module
    docstring); what dead ends hold goes nowhere, for the caller to route."""
    degree = graph.out_degree
    # A dead end owns an empty range: its value is never read, it only
    # must not divide by zero.
    shares = x * (1.0 / np.maximum(degree, 1))
    moved = np.zeros(graph.num_nodes)
    scatter_ranges(moved, graph.out_indices, graph.out_indptr[:-1], degree, shares)
    return moved


def frontier_push(state: PushState, nodes: np.ndarray) -> None:
    """Simultaneously push exactly ``nodes`` (the range-scatter path).

    Contributions are based on the residues at entry; the pushed nodes'
    residues are zeroed first so self-loop edges re-deposit correctly.

    An empty ``nodes`` returns at once (the empty-frontier fast path
    late epochs rely on); an id outside ``[0, n)`` raises
    :class:`~repro.errors.ParameterError` with the state untouched.
    """
    if nodes.shape[0] == 0:
        return
    alpha = state.alpha
    pushed, counts, num_edges = frontier_propagate(
        state.graph, state.residue, nodes, alpha
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
) -> tuple[np.ndarray, np.ndarray, int]:
    """One simultaneous push of ``nodes`` over a raw residue array.

    The local counterpart of :func:`settle_sweep`: take the residues
    of ``nodes`` off ``residue`` — first, so a self-loop re-deposits —
    and add ``(1 - alpha) * r / out_degree``, computed from the residues
    at entry, to every out-neighbour in place: one :func:`scatter_ranges`
    over the nodes' adjacency lists, so the call costs
    ``O(len(nodes) + their edges)`` and allocates nothing sized by the
    graph.  Returns ``(pushed, counts, num_edges)`` — what each node
    pushed, its out-degree, and the edges travelled; settling
    ``alpha * pushed`` into a reserve, billing, and the mass of nodes
    with no out-edge (``counts == 0``) are the caller's.

    ``nodes`` are distinct ids in ``[0, n)`` of any integer dtype, and
    ``residue`` is a writable C-contiguous float64 array of shape
    ``(n,)`` that may hold negative entries; anything else raises
    :class:`~repro.errors.ParameterError` before ``residue`` is touched.
    When no node has an out-edge nothing is scattered.
    """
    n = graph.num_nodes
    # The scatter adds at every out-neighbour id, so residue must span
    # all n of them.
    _address(residue, n, "residue")
    if nodes.shape[0] and (nodes.min() < 0 or nodes.max() >= n):
        raise ParameterError(f"frontier nodes must be ids in [0, {n})")
    indptr = graph.out_indptr
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    pushed = residue[nodes]
    residue[nodes] = 0.0
    num_edges = int(counts.sum())
    if num_edges:
        shares = pushed * (1.0 - alpha)
        # A node without out-edges owns an empty range: its share is
        # never read, it only must not divide by zero.
        shares /= np.maximum(counts, 1)
        scatter_ranges(residue, graph.out_indices, starts, counts, shares)
    return pushed, counts, num_edges


def sweep_active(
    state: PushState,
    r_max: float,
    *,
    threshold_vec: np.ndarray | None = None,
) -> int:
    """Push all currently-active nodes once; return how many were pushed.

    Chooses between the local range-scatter path and the global path
    depending on the frontier size (more than ``DENSE_SWEEP_FRACTION``
    of the nodes active means global), anew on every call — the loop of
    FIFO-FwdPush, which pushes until no node is active.
    (:func:`~repro.core.refinement.refine_to_r_max` runs the
    active-only scan, :func:`settle_sweep` with a threshold, instead.)
    The global path is one :func:`async_sweep`, which pushes *every*
    residue-holding node (not only the active ones), as PowerPush's
    scan does.
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
        frontier_push(state, frontier)
    else:
        async_sweep(state)
    return num_active


def settle_sweep(
    graph,
    residue: np.ndarray,
    reserve: np.ndarray,
    settled: np.ndarray,
    alpha: float,
    *,
    threshold: np.ndarray | None = None,
) -> tuple[int, int, float]:
    """One asynchronous sweep over raw arrays, the settle step fused in.

    For each node ``v`` in ascending id whose residue ``r`` is not zero
    (either sign: :mod:`repro.core.incremental` pushes negative mass) —
    or, given a ``threshold``, only where ``r > threshold[v]``: the
    active-only scan of Algorithm 3, with ``threshold = d_v * r_max`` —
    zero ``residue[v]`` first, so a self-loop re-deposits; settle
    ``settled[v] = alpha * r`` into ``reserve[v]``; and add
    ``(1 - alpha) * r / out_degree`` to every out-neighbour in the live
    ``residue`` — so a node pushes mass that reached it earlier in this
    very sweep.  ``settled[v]`` is 0 for a node not pushed.

    Returns ``(pushes, residue_updates, dead_mass)``: the nodes pushed,
    the sum of their out-degrees, and ``(1 - alpha) * r`` summed over the
    pushed nodes without an out-edge, which has no edge to travel on and
    is the caller's to route.

    ``residue``, ``reserve`` and ``settled`` are writable C-contiguous
    float64 arrays of shape ``(n,)``; ``threshold`` is a C-contiguous
    float64 array of shape ``(n,)`` that is only read (a read-only array
    is fine).  Anything else raises :class:`~repro.errors.ParameterError`
    before the C loop runs.
    """
    n = graph.num_nodes
    if threshold is not None and not (
        isinstance(threshold, np.ndarray)
        and threshold.dtype == np.float64
        and threshold.shape == (n,)
        and threshold.flags.c_contiguous
    ):
        raise ParameterError(
            f"threshold must be a C-contiguous float64 array of shape ({n},)"
        )
    counts = (ctypes.c_int64 * 2)()
    dead_mass = _LIB.repro_async_sweep(
        n,
        graph.out_indptr.ctypes.data,
        graph.out_indices.ctypes.data,
        alpha,
        _address(residue, n, "residue"),
        _address(reserve, n, "reserve"),
        _address(settled, n, "settled"),
        None if threshold is None else threshold.ctypes.data,
        counts,
    )
    return counts[0], counts[1], dead_mass


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

    Two passes of a C loop: the first finds ``k`` and the sign of the
    change in ``sum(|residue|)``, the second applies the window.
    ``reserve`` and ``residue`` are written and must be writable
    C-contiguous float64 arrays of shape ``(n,)``; ``settled`` and
    ``r_before`` are only read and may be strided views (they are then
    copied).  Returns whether the window was applied; the caller
    refreshes its ``r_sum``.
    """
    n = len(residue)
    out_reserve = _address(reserve, n, "reserve")
    out_residue = _address(residue, n, "residue")
    inputs = []
    for name, array in (("settled", settled), ("r_before", r_before)):
        if array.dtype != np.float64 or array.shape != (n,):
            raise ParameterError(
                f"{name} must be a float64 array of shape ({n},)"
            )
        inputs.append(np.ascontiguousarray(array))
    return bool(
        _LIB.repro_extrapolate_window(
            n,
            out_reserve,
            out_residue,
            inputs[0].ctypes.data,
            inputs[1].ctypes.data,
        )
    )


def async_sweep(state: PushState) -> np.ndarray:
    """Push every residue-holding node once, with the freshest residues.

    The scan-phase sweep of PowerPush (Algorithm 3): unlike
    :func:`global_sweep` it is *asynchronous* — see
    :func:`settle_sweep` — so one sweep does the work of nearly two
    synchronous ones.  Billed like ``global_sweep(count_all_edges=
    False)``: one push per node that held residue when the sweep
    reached it, one residue update per out-edge of those nodes.

    Returns what the sweep settled into the reserve (``alpha`` times
    what each node pushed), a fresh ``(n,)`` array;
    :func:`extrapolate_window` reads it.
    """
    settled = np.empty(state.graph.num_nodes)
    pushes, updates, dead_mass = settle_sweep(
        state.graph, state.residue, state.reserve, settled, state.alpha
    )
    state.counters.count_bulk_pushes(pushes, updates)
    _apply_dead_end_mass(state, dead_mass)
    state.refresh_r_sum()
    return settled


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


# Harness-only: benchmarks/e2e/layers.py is the sole caller.
def block_global_sweep(
    state: BlockPushState, rows: np.ndarray, *, count_all_edges: bool = False
) -> None:
    """One :func:`global_sweep` for every row in ``rows``, as one mat-mat.

    ``P^T @ R^T`` scans the CSR arrays once for all rows and accumulates
    each output column over the same nonzeros in the same order as the
    mat-vec whose bytes :func:`global_sweep` returns; the dead-end sums
    run over a C-contiguous ``np.take`` gather (pairwise per row, like
    the 1-D sum), so every row ends bitwise where its own
    :func:`global_sweep` would.
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
