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
  before it left (the scan of PowerPush's Algorithm 3, and
  FIFO-FwdPush's step once its frontier is wide; cost model below).
  Its active-only form, :func:`refine_passes`, pushes only the nodes
  with ``r > threshold[v]`` as it reaches them, pass after pass until
  a pass pushes nothing: all of SpeedPPR's post-refinement
  (:func:`~repro.core.refinement.refine_to_r_max`).

The switch between the local and the global moves is exactly the
paper's "global sequential scan vs. local random access" trade-off
(Section 5): for small frontiers the range scatter wins; once the
frontier covers a sizeable fraction of the graph the contiguous scan
is faster.  There is one switch, PowerPush's: :func:`queue_rounds`
stops before a frontier wider than ``scan_threshold`` (``n / 4`` by
default), where PowerPush goes on to its scan epochs and FIFO-FwdPush,
which holds its frontier to the same threshold, to one
:func:`async_sweep` before it resumes the rounds.  The refinement
needs no switch: its active-only scan touches only the active nodes'
edges and replaced rounds of the frontier push there (on ``pokec-s``
x10 at ``W`` ~ 1e7: 7.0-7.9 -> 3.9 ms and 585 k -> 469 k residue
updates a query, ~30 rounds -> ~15 passes).

A fourth move touches no edge: the extrapolation repeats a window of
pushes already made ``k`` more times in ``O(n)``, by the linearity of
the push invariant.  PowerPush applies it to the last sweep of every
scan epoch, inside :func:`scan_epochs` ("The PowerPush loop", below).

Within a global sweep or a frontier push, pushes are *simultaneous*:
contributions are computed from the residues at entry.  The kernels
mutate the :class:`PushState` in place and keep its incremental
``r_sum`` and counters up to date.

The asynchronous sweep and its cost model
-----------------------------------------
:func:`async_sweep` runs one C loop, :func:`queue_rounds` a second,
:func:`scan_epochs` a third (the sweep, the ``r_sum`` recount and the
extrapolation, in one call), :func:`refine_passes` a fourth,
:func:`scatter_ranges` a fifth, :func:`index_read` a sixth,
:func:`walk_halt` and :func:`walk_move` the random-walk engine's two
steps (below), and :func:`inverse_cdf` the Chung–Lu sampler's endpoint
draw: ``_kernels.c``, compiled with the
``cc`` on ``PATH`` on the first import of this module into
``__pycache__/_kernels-<key>.so`` — the key hashes the source, the
flags and the machine, so a warm import starts no process — and
called through :mod:`ctypes` by one path, ``_call``, which first checks
every scalar and array against the entry's row of the table ``_ENTRIES``.
There is no other implementation and nothing to select; a missing or
failing compiler is a :class:`~repro.errors.KernelBuildError` (an
``ImportError``) at import.
The sweep is one pass over the node ids with the settle step fused in:
per node holding residue, its residue, reserve and settled entries,
and one add per out-edge into the live residue vector, reading only
``out_indptr`` / ``out_indices`` — no ``P^T``, no per-edge weight.  A
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
``tests/test_core_async_sweep.py``,
``tests/test_core_gather_scatter.py`` and ``tests/test_mc_phase.py``
check them against such references.  What *does* depend on node order
is the answer itself: relabelling the graph changes which residues are fresh when,
hence which of the valid answers (all within ``r_sum`` of the exact
vector) comes out.

No push reads ``P^T``: every kernel here reads the out-CSR alone.  The
global sweep scatters ``(1 / d_u) * x_u`` — the product ``P^T``'s
mat-vec forms, not the division ``x_u / d_u``, which rounds
differently — along ``u``'s range for every ``u`` in ascending id,
which is the order in which the mat-vec sums row ``v`` of ``P^T``, so
it returns that mat-vec's bytes (``tests/test_core_global_sweep.py``
checks them against scipy).  Only BePI and the harness-only
:func:`block_global_sweep` read ``P^T``, which the graph builds for
them lazily, on first use.

The refinement in one call
--------------------------
:func:`refine_passes` runs every pass of the refinement in one C call:
the active-only scan, then the pass's dead-end mass routed by the
state's policy as :func:`_apply_dead_end_mass` routes it, until a pass
pushes nothing or the pass budget runs out.  No ``settled`` array is
written, and Python bills the pushes once, so a query does not pay,
per pass (20-25 a query from ``e_s`` on ``pokec-s`` x10 at ``epsilon =
0.5``), a ctypes call, three array checks, a bill and an ``n``-long
write that nothing reads; the bits are those of one call per pass.
Variants measured slower than this plain scan: a dirty-node bitmap, a bitmap set when a node crosses
its threshold, an 8-node skip-ahead block, and staged ``r_max`` (fewer
updates, more passes).

The PowerPush loop
------------------
A PowerPush query is one call of :func:`queue_rounds` and one of
:func:`scan_epochs`; ``IncrementalPPR``'s re-certification is one call
of the second, on signed residues and ``sum(|r|)``; a FIFO-FwdPush
query alternates calls of the first (with no ``r_sum`` target) with
single :func:`async_sweep` calls until no node is active.  Python
keeps what is set once per query: the epoch targets, the work budget,
and the :class:`~repro.errors.ConvergenceError` when a loop reports a
cap spent.
The queue rounds are :func:`frontier_push` over
``state.active_nodes(r_max)``, round after round, with the frontier
found, staged and scattered in C (an ``O(n)`` test per round, no mask
or id array built in Python).  The scan epochs copy the residue into a
window buffer, sweep, route the dead-end mass by policy and recount the
sum after every sweep; both loops take their sums of a vector — ``r_sum``
after a sweep or an extrapolation, ``sum(pushed)`` and the dead ends'
share of it in a round — as NumPy's pairwise summation, so each is the
bits of ``ndarray.sum()`` (``tests/test_core_pairwise_sum.py``) and the
loops return the bytes, counters and ``r_sum`` of the Python loop they
replaced (``reference_run`` in ``tests/test_core_powerpush.py``,
``reference_certify`` in ``tests/test_incremental.py``).  A traced
solve asks each loop to return after every round, sweep and
extrapolation, records a point, and resumes where it stopped: the same
arithmetic, so the same bytes.

The extrapolation: a window of pushes — any sequence, dead-end routing
included — moved ``settled`` into ``reserve`` and took the residues
from ``r_before`` to ``residue``.  The push invariant is linear, so
with ``fall = r_before - residue`` the pair ``(reserve + k * settled,
residue - k * fall)`` satisfies it for every ``k``.  It is applied
with the largest ``k`` that carries no residue across zero:
``min(residue / fall)`` over the entries that moved towards zero,
stepped one float towards zero so that ``|k * fall| <= |residue|``
holds exactly there.  Non-negative residues therefore stay
non-negative, and signed ones (:mod:`repro.core.incremental`) keep
their signs, which makes the change in ``sum(|residue|)`` linear in
``k``; the window is applied only when that sum falls — always, for
non-negative residues, whose sum falls by ``k * sum(settled)``.  When
each sweep repeats the one before scaled by ``gamma``, ``k`` is ``gamma
/ (1 - gamma)`` — the whole geometric tail; when some entry reached
zero in the window it is 0 and nothing happens.  Its first pass, which
finds ``k`` and the sign of the change, has no branch: in the first
epochs most entries are 0 / 0.

The range scatter under every local push
----------------------------------------
:func:`scatter_ranges` adds one value per range of an ``int32`` index
array into a vector at every index of the range, in place, in one C
loop: ranges in the order given, each range's entries in array order,
so a target accumulates its shares on top of what it held one add at a
time, ``r + c_1 + c_2 + ...``, in an order fixed by the frontier and
the CSR.  :func:`frontier_push` hands it the frontier's adjacency
ranges, ``indptr[nodes]`` and the out-degrees, and the live walk phase
of :func:`~repro.core.mc_phase.monte_carlo_refine` each node's block of
fresh stops, so a local push touches each frontier edge once, stages
only one share per frontier node, and has no ``O(n)`` term — the cost
the paper's analysis of the local side assumes (measured times:
README, "Kernels").  The wrapper checks that every range lies inside
the index array; that every index lies inside the vector is the
caller's precondition, which a checked CSR
(:class:`~repro.graph.digraph.DiGraph`) meets by construction.

:func:`index_read` is the same scatter for a walk index, with the
ranges worked out in the loop: node ``v`` holding ``r > 0`` reads its
first ``W_v = ceil(r * W)`` stops (at most ``K_v``), each adding
``r / max(W_v, 1)`` — the bytes of ``required_walks`` plus one
:func:`scatter_ranges`, without the dozen NumPy passes over the
residue that built the ranges.  The loop checks each range it reads
against the stops array, as :func:`scatter_ranges` does; that every
stop lies inside ``[0, n)`` a checked
:class:`~repro.walks.index.WalkIndex` meets by construction.

The random-walk steps
---------------------
Every alpha-walk in the package — the walk index's build, SpeedPPR's
and FORA's live walk phase, plain Monte-Carlo — is simulated by
:func:`~repro.walks.engine.simulate_walk_stops`, a Python loop over
steps that draws the step's uniforms with NumPy and hands them to two C
loops.  The draw order is the contract that keeps every seeded answer
the same: per step, ``rng.random(live)`` for the stops, then — only when
some survivor stands on a dead end under ``uniform-teleport`` —
``rng.integers(0, n, stuck)`` for its jumps, then ``rng.random(movers)``
for the neighbour choices.  :func:`walk_halt` consumes the first draw:
it records each halting walk's stop, compacts the survivors in order
and counts those on a dead end.  :func:`walk_move` consumes the other
two: the ``k``-th survivor that can move takes out-edge
``int(u_k * d_c)`` of its node ``c`` (the product rounds as NumPy's
does), and the ``t``-th on a dead end goes to the ``t``-th jump or to
the query source.  These are the stops, the step count and the
generator end state of the NumPy lock-step they replaced
(``reference_simulate_batch`` in ``tests/test_walks.py``), which paid
about ten fancy-indexing passes over the live walks a step; building
the ``pokec-s`` x10 index (940 029 walks, a shared 2-vCPU VM) went from
0.21-0.31 s to 0.07-0.12 s, of which drawing the uniforms alone is
about 0.05 s.

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
from collections import namedtuple
from functools import partial
from pathlib import Path

import numpy as np

from repro.core.residues import BlockPushState, PushState, dead_end_degree
from repro.errors import KernelBuildError, ParameterError
from repro.instrumentation.counters import PushCounters
from repro.instrumentation.tracing import ConvergenceTrace

__all__ = [
    "scatter_ranges",
    "global_sweep",
    "frontier_push",
    "refine_passes",
    "index_read",
    "walk_halt",
    "walk_move",
    "queue_rounds",
    "scan_epochs",
    "async_sweep",
    "inverse_cdf_guide",
    "inverse_cdf",
]

_SOURCE = Path(__file__).with_name("_kernels.c")
# No -march=native (it measured slower), and no fused multiply-add, so
# the loops round like the same loops written in Python.  Loops start
# on 32-byte boundaries, so the sweep's 26-byte edge loop sits in one
# fetch window wherever the code around it moves it: unaligned, adding
# the PowerPush loops moved it to a place that measured 4-5 % slower.
_CFLAGS = (
    "-std=c99", "-O3", "-fPIC", "-shared", "-ffp-contract=off",
    "-falign-loops=32",
)
# After the source, so that the linker keeps libm (ceil).
_LDLIBS = ("-lm",)


# A parameter of a C entry point, made by the constructor of its role,
# and an entry point (``_ENTRIES``).
_Param = namedtuple(
    "_Param", "name dtype length nullable role", defaults=(None, None, False, "")
)
_id, _int, _real, _reads, _writes, _out = (
    partial(_Param, role=role)
    for role in ("id", "int", "real", "reads", "writes", "out")
)
_Entry = namedtuple("_Entry", "restype params fails", defaults=(None,))
# A scalar role's C type, the Python and NumPy numbers it takes, and
# their name.
_INTEGERS = (int, np.integer)
_SCALARS = {
    "id": (ctypes.c_int64, _INTEGERS, "an integer"),
    "int": (ctypes.c_int, _INTEGERS, "an integer or a bool"),
    "real": (ctypes.c_double, (*_INTEGERS, float, np.floating), "a real number"),
}

# What repro_queue_rounds and repro_scan_epochs return, in the order of
# their enum.
_DONE, _CAPPED, _STEPPED, _DEAD_END = 0, 1, 2, -1
_SELF_LOOP_MASS = "structural self-loop graphs cannot emit dead-end mass"
_SELF_LOOP = {_DEAD_END: (AssertionError, _SELF_LOOP_MASS)}
_I32, _I64, _F64 = np.dtype(np.int32), np.dtype(np.int64), np.dtype(np.float64)
# The parameters every push loop opens with: the out-CSR and the state.
_PUSH = (
    _id("n"), _reads("indptr", _I64, "n + 1"), _reads("indices", _I32), _real("alpha"),
    _writes("residue", _F64, "n"), _writes("reserve", _F64, "n"),
)

# The C entry points of _kernels.c, the one statement of what each takes:
# the return type, every parameter in C order by its role, and the
# statuses that are errors, each with its type and a message formatted
# over the arguments by name.  The roles:
#   _id      int64_t, an id or a count: an integer, not a bool;
#   _int     int, a flag or a code: an integer or a bool;
#   _real    double: a real number;
#   _reads   const T *: an array the loop reads;
#   _writes  T *: an array the loop writes, so it must be writable;
#   _out     int64_t * / double *: a ctypes array of that many out-counts,
#            made by the wrapper;
# an array with its dtype and its length: exactly a parameter's value
# ("n"), one more ("n + 1"), at least it (">= live") or any (none given).
# `_build` declares every entry from it, and `_call` checks every scalar
# and array against it before the loop runs and raises what a status says.
_ENTRIES = {
    "repro_async_sweep": _Entry(ctypes.c_double, (
        *_PUSH, _writes("settled", _F64, "n"), _out("counts", ctypes.c_int64, 2),
    )),
    "repro_refine": _Entry(ctypes.c_int64, (
        *_PUSH, _reads("threshold", _F64, "n"), _int("policy"), _id("source"),
        _id("max_passes"), _out("counts", ctypes.c_int64, 2),
    ), _SELF_LOOP),
    "repro_scatter_ranges": _Entry(ctypes.c_int, (
        _id("num"), _reads("starts", _I64, "num"), _reads("counts", _I64, "num"),
        _id("size"), _reads("targets", _I32, "size"),
        _reads("values", _F64, "num"), _writes("out", _F64),
    ), {1: (ParameterError, "a range reaches outside the {size} targets")}),
    "repro_index_read": _Entry(ctypes.c_int64, (
        _id("n"), _reads("indptr", _I64, "n + 1"), _id("size"),
        _reads("stops", _I32, "size"), _real("num_walks"),
        _reads("residue", _F64, "n"), _int("cap"), _writes("out", _F64, "n"),
        _out("counts", ctypes.c_int64, 2),
    ), {-2: (ParameterError, "a walk range reaches outside the {size} stops")}),
    "repro_extrapolate_window": _Entry(ctypes.c_int, (
        _id("n"), _writes("reserve", _F64, "n"), _writes("residue", _F64, "n"),
        _reads("settled", _F64, "n"), _reads("r_before", _F64, "n"),
    )),
    "repro_sum": _Entry(ctypes.c_double, (
        _reads("a", _F64, "n"), _id("n"), _int("absolute"),
    )),
    "repro_queue_rounds": _Entry(ctypes.c_int, (
        *_PUSH, _int("policy"), _id("source"), _real("dead_degree"),
        _real("r_max"), _real("l1_threshold"), _real("scan_threshold"),
        _id("max_updates"), _id("max_rounds"), _id("max_steps"),
        _writes("frontier", _I64, "n"), _writes("pushed", _F64, "n"),
        _out("r_sum", ctypes.c_double, 1), _out("counts", ctypes.c_int64, 3),
    ), _SELF_LOOP),
    "repro_scan_epochs": _Entry(ctypes.c_int, (
        *_PUSH, _writes("r_before", _F64, "n"), _writes("settled", _F64, "n"),
        _int("policy"), _id("source"), _int("absolute"), _id("num_epochs"),
        _reads("targets", _F64, "num_epochs"), _real("l1_threshold"),
        _id("max_updates"), _id("max_sweeps"), _id("max_steps"),
        _out("progress", ctypes.c_int64, 2), _out("measure", ctypes.c_double, 1),
        _out("counts", ctypes.c_int64, 4),
    ), _SELF_LOOP),
    "repro_walk_halt": _Entry(ctypes.c_int64, (
        _id("live"), _writes("walks", _I64, ">= live"),
        _writes("positions", _I64, ">= live"), _reads("uniforms", _F64, "live"),
        _real("alpha"), _reads("indptr", _I64), _writes("stops", _I64),
        _out("stuck", ctypes.c_int64, 1),
    )),
    "repro_walk_move": _Entry(None, (
        _id("live"), _writes("positions", _I64, ">= live"), _reads("indptr", _I64),
        _reads("indices", _I32), _reads("uniforms", _F64),
        _reads("jumps", _I64, nullable=True), _id("source"),
    )),
    "repro_inverse_cdf": _Entry(ctypes.c_int64, (
        _id("n"), _reads("cdf", _F64, "n"), _reads("guide", _I64, "n"),
        _id("size"), _reads("uniforms", _F64, "size"),
        _reads("sources", _I64, "size", nullable=True), _writes("out", _I64, "size"),
    )),
}


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
            [_SOURCE.read_bytes(), " ".join(_CFLAGS + _LDLIBS).encode(),
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
    for name, entry in _ENTRIES.items():
        function = getattr(lib, name)
        function.restype = entry.restype
        function.argtypes = [
            ctypes.POINTER(param.dtype) if param.role == "out"
            else _SCALARS[param.role][0] if param.role in _SCALARS
            else ctypes.c_void_p
            for param in entry.params
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
            ["cc", *_CFLAGS, "-o", partial, str(_SOURCE), *_LDLIBS],
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


def _call(name: str, *args):
    """Run the C entry point ``name`` on ``args`` once they pass its row
    of ``_ENTRIES``, and return its result unless it is an error status.

    A C loop handed a wrong type or a short array corrupts memory instead
    of raising, so every scalar and array is checked here first, scalars
    before arrays (so an array's length is an integer), and nothing is
    written when one fails.  An out-count is the wrapper's own, and ctypes
    checks its type.
    """
    params, fails = _ENTRIES[name].params, _ENTRIES[name].fails
    values = {param.name: value for param, value in zip(params, args)}
    for param, value in zip(params, args):
        if param.role in _SCALARS and not (
            isinstance(value, _SCALARS[param.role][1])
            and (param.role != "id" or not isinstance(value, bool))
        ):
            raise ParameterError(
                f"{param.name} must be {_SCALARS[param.role][2]}, got {value!r}"
            )
    status = getattr(_LIB, name)(*[
        _pointer(value, param, values) if param.role in ("reads", "writes")
        else value
        for param, value in zip(params, args)
    ])
    if fails and status in fails:
        error, message = fails[status]
        raise error(message.format(**values))
    return status


def _size(param: _Param, values: dict) -> tuple[int | None, bool]:
    """An array parameter's length over the arguments ``values`` by name,
    and whether it is a minimum; None for any length."""
    if param.length is None:
        return None, False
    name, _, extra = param.length.removeprefix(">= ").partition(" + ")
    return values[name] + int(extra or 0), param.length.startswith(">=")


def _pointer(value, param: _Param, values: dict) -> int | None:
    """The data pointer of array argument ``value``, checked against ``param``."""
    if value is None and param.nullable:
        return None
    size, at_least = _size(param, values)
    _check_vector(
        value, param.dtype, size, param.name, writes=param.role == "writes",
        at_least=at_least,
    )
    return value.ctypes.data


def _check_vector(
    array, dtype, size: int | None, name: str, *, writes: bool,
    at_least: bool = False,
) -> None:
    """Refuse anything but a C-contiguous ``dtype`` vector of ``size``
    entries (at least, or any when None), writable when the loop ``writes``."""
    if not (
        isinstance(array, np.ndarray)
        and array.dtype == dtype
        and array.ndim == 1
        and array.flags.c_contiguous
        and (array.flags.writeable or not writes)
        and (
            size is None
            or array.shape[0] == size
            or (at_least and array.shape[0] > size)
        )
    ):
        entries = "" if size is None else (
            f" of {'at least ' if at_least else ''}{size} entries"
        )
        raise ParameterError(
            f"{name} must be a{' writable' if writes else ''} C-contiguous "
            f"{np.dtype(dtype)} vector{entries}"
        )


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
    if starts.shape != (num,) or counts.shape != (num,) or values.shape != (num,):
        raise ParameterError(
            "starts, counts and values must be vectors of one entry per range"
        )
    _call(
        "repro_scatter_ranges", num, starts, counts, np.size(targets), targets,
        values, out,
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

    Take the residues of ``nodes`` off — first, so a self-loop
    re-deposits — and add ``(1 - alpha) * r / out_degree``, computed from
    the residues at entry, to every out-neighbour: one
    :func:`scatter_ranges` over the nodes' adjacency lists, so the call
    costs ``O(len(nodes) + their edges)`` and allocates nothing sized by
    the graph.  The reserve gets ``alpha * r``, the mass of nodes
    without an out-edge is routed by the state's policy, and ``r_sum``
    drops by ``alpha * sum(r)``.  Residues may be negative.

    ``nodes`` are distinct ids of any integer dtype.  An empty ``nodes``
    returns at once (the empty-frontier fast path late epochs rely on);
    an id outside ``[0, n)``, or a residue that is not a writable
    C-contiguous float64 vector of ``n`` entries, raises
    :class:`~repro.errors.ParameterError` with the state untouched.
    """
    if nodes.shape[0] == 0:
        return
    graph, residue, alpha = state.graph, state.residue, state.alpha
    n = graph.num_nodes
    # The scatter adds at every out-neighbour id, so residue must span
    # all n of them.
    _check_vector(residue, np.float64, n, "residue", writes=True)
    if nodes.min() < 0 or nodes.max() >= n:
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
    state.reserve[nodes] += alpha * pushed

    dead = counts == 0
    num_dead = int(np.count_nonzero(dead))
    dead_mass = (1.0 - alpha) * float(pushed[dead].sum()) if num_dead else 0.0
    state.counters.count_bulk_pushes(nodes.shape[0], num_edges + num_dead)
    _apply_dead_end_mass(state, dead_mass)
    state.note_r_sum_delta(-alpha * float(pushed.sum()))


# The C loops' dead-end policy codes, in the order of their enum.
_DEAD_END_CODES = {"redirect-to-source": 0, "uniform-teleport": 1, "self-loop": 2}


def _dead_end_code(dead_end_policy: str, source, n: int) -> int:
    """The C loops' code for ``dead_end_policy``, once ``source``, where
    ``"redirect-to-source"`` sends dead-end mass, is an id in ``[0, n)``."""
    if dead_end_policy not in _DEAD_END_CODES:
        raise ParameterError(f"unknown dead-end policy {dead_end_policy!r}")
    if not 0 <= source < n:
        raise ParameterError(f"source must be an id in [0, {n})")
    return _DEAD_END_CODES[dead_end_policy]


def refine_passes(
    graph,
    residue: np.ndarray,
    reserve: np.ndarray,
    alpha: float,
    threshold: np.ndarray,
    max_passes: int,
    *,
    source: int,
    dead_end_policy: str,
) -> tuple[int, int, int]:
    """Passes of the active-only scan until one pushes nothing: one C call.

    A pass pushes, in ascending id, each node ``v`` whose residue
    exceeds ``threshold[v]`` when the pass reaches it (Algorithm 3's
    active-only scan; ``threshold = d_v * r_max`` in
    :func:`~repro.core.refinement.refine_to_r_max`), as
    :func:`async_sweep` pushes.  After a pass that pushed, the mass its
    dead ends emitted is routed by ``dead_end_policy`` as
    :func:`_apply_dead_end_mass` routes it, ``source`` being where
    ``"redirect-to-source"`` sends it.  The loop stops at the first pass
    that pushes nothing or once ``max_passes`` passes have pushed.

    Returns ``(passes, pushes, residue_updates)``: the passes that
    pushed (``max_passes`` when the budget ran out), and the nodes pushed
    and the sum of their out-degrees over all of them.

    ``residue`` and ``reserve`` are writable C-contiguous float64 arrays
    of shape ``(n,)``; ``threshold`` is a C-contiguous float64 array of
    shape ``(n,)`` that is only read (a read-only array is fine);
    ``max_passes >= 1``; ``source`` is an id in ``[0, n)``.  Anything else
    raises :class:`~repro.errors.ParameterError` before the C loop runs.
    """
    n = graph.num_nodes
    policy = _dead_end_code(dead_end_policy, source, n)
    if max_passes < 1:
        raise ParameterError(f"max_passes must be at least 1, got {max_passes}")
    counts = (ctypes.c_int64 * 2)()
    passes = _call(
        "repro_refine", n, graph.out_indptr, graph.out_indices, alpha, residue,
        reserve, threshold, policy, source, max_passes, counts,
    )
    return passes, counts[0], counts[1]


def index_read(
    out: np.ndarray,
    residue: np.ndarray,
    indptr: np.ndarray,
    stops: np.ndarray,
    num_walks_w: float,
    *,
    cap: bool,
) -> tuple[int, int, int]:
    """Eq. 13 from a walk index, in place: one C loop over the nodes.

    For each ``v`` in ascending id with ``r = residue[v] > 0``, node
    ``v`` is owed ``W_v = ceil(r * W)`` walks and the index holds
    ``K_v = indptr[v + 1] - indptr[v]``.  Each of ``v``'s first ``W_v``
    stops ``u`` gets ``out[u] += r / max(W_v, 1)``: the bytes of
    :func:`~repro.core.mc_phase.required_walks` followed by one
    :func:`scatter_ranges`.  A short node (``W_v > K_v``) reads its
    ``K_v`` walks when ``cap``; otherwise the read stops there, ``out``
    part-written.

    Returns ``(walks, short_nodes, first_short)``: the walks read, the
    short nodes met, and the first of them (``-1`` when none).

    ``out`` is a writable C-contiguous float64 vector of shape ``(n,)``
    and ``residue`` a C-contiguous float64 one; ``indptr`` (``int64``,
    ``n + 1`` entries) and ``stops`` (C-contiguous ``int32`` ids in
    ``[0, n)``) are a checked :class:`~repro.walks.index.WalkIndex`'s.
    A wrong dtype, shape or layout raises
    :class:`~repro.errors.ParameterError` before the C loop runs, and a
    range to read that is not inside ``stops`` raises it from the loop,
    ``out`` part-written.
    """
    counts = (ctypes.c_int64 * 2)()
    first_short = _call(
        "repro_index_read", np.size(out), indptr, np.size(stops), stops,
        num_walks_w, residue, cap, out, counts,
    )
    return counts[0], counts[1], first_short


def walk_halt(
    graph,
    walks: np.ndarray,
    positions: np.ndarray,
    uniforms: np.ndarray,
    alpha: float,
    stops: np.ndarray,
) -> tuple[int, int]:
    """The halt step of a walk engine step, in place: one C loop.

    The live walks are the first ``len(uniforms)`` entries of ``walks``
    (walk ids) and ``positions`` (the nodes they stand on).  Walk
    ``walks[j]`` halts when ``uniforms[j] < alpha`` and ``stops[walks[j]]
    = positions[j]`` records where; the survivors are compacted, in
    order, to the front of ``walks`` and ``positions``.

    Returns ``(survivors, stuck)``: how many walks live on, and how many
    of those stand on a dead end — the size of the uniform teleport's
    draw in :func:`walk_move`.

    ``walks``, ``positions`` and ``stops`` are writable C-contiguous
    ``int64`` vectors and ``uniforms`` a C-contiguous float64 one; a
    wrong dtype, layout or length raises
    :class:`~repro.errors.ParameterError` before the loop runs.  That
    every walk id indexes ``stops`` and every position is a node id is
    the caller's precondition.
    """
    stuck = (ctypes.c_int64 * 1)()
    survivors = _call(
        "repro_walk_halt", np.size(uniforms), walks, positions, uniforms, alpha,
        graph.out_indptr, stops, stuck,
    )
    return survivors, stuck[0]


def walk_move(
    graph,
    positions: np.ndarray,
    live: int,
    stuck: int,
    uniforms: np.ndarray,
    jumps: np.ndarray | None,
    source: int,
) -> None:
    """The move step of a walk engine step, in place: one C loop.

    Over the ``live`` walks at the front of ``positions``, in order: the
    ``k``-th walk standing on a node ``c`` with out-degree ``d_c > 0``
    moves to ``out_indices[out_indptr[c] + int(uniforms[k] * d_c)]``, and
    the ``t``-th walk on a dead end to ``jumps[t]`` (the uniform
    teleport's draws) or, with ``jumps`` None, to ``source``.

    ``live`` and ``stuck`` are what :func:`walk_halt` returned for these
    positions; ``uniforms`` holds one float64 in ``[0, 1)`` per walk not
    on a dead end, and ``jumps`` one ``int64`` node id per walk on one.
    A wrong length, dtype or layout, or a ``source`` outside ``[0, n)``
    that a dead-end walk would move to, raises
    :class:`~repro.errors.ParameterError` before the loop runs.
    """
    if np.shape(uniforms) != (live - stuck,):
        raise ParameterError(f"need {live - stuck} uniforms, one per mover")
    if jumps is None:
        if stuck and not 0 <= source < graph.num_nodes:
            raise ParameterError(f"source must be an id in [0, {graph.num_nodes})")
    elif np.shape(jumps) != (stuck,):
        raise ParameterError(f"need {stuck} jumps, one per dead-end walk")
    _call(
        "repro_walk_move", live, positions, graph.out_indptr, graph.out_indices,
        uniforms, jumps, source,
    )


# A cap no count reaches: the caps are compared in int64.
_NO_CAP = 2**62


def queue_rounds(
    state: PushState,
    r_max: float,
    l1_threshold: float,
    scan_threshold: float,
    max_updates: int = _NO_CAP,
    *,
    max_rounds: int = _NO_CAP,
    trace: ConvergenceTrace | None = None,
) -> tuple[int, bool]:
    """Rounds of the whole active set over ``state``: one C call.

    PowerPush's queue phase, and FIFO-FwdPush's rounds between its
    sweeps.  While ``state.r_sum > l1_threshold``, one round pushes the
    frontier simultaneously, as :func:`frontier_push` pushes
    ``state.active_nodes(r_max)``: the residues at the round's start,
    staged and zeroed first, then scattered in frontier order; the
    reserve gets ``alpha * pushed``; the dead ends' mass,
    ``(1 - alpha) * sum(pushed of dead ends)``, is routed by the state's
    policy; and ``r_sum`` drops by ``alpha * sum(pushed)``.  The rounds
    stop at an empty frontier or at one above ``scan_threshold``, before
    pushing it.  ``state``'s counters are billed with the pushes and the
    residue updates (a dead end counts one).

    Returns ``(rounds, within_caps)``: the rounds run, and False when a
    round took ``state.counters.residue_updates`` above ``max_updates``
    or the rounds above ``max_rounds`` (the rounds stop there).  With
    ``trace``, the loop returns to Python after every round to record
    ``(residue_updates, r_sum)``, and computes the same bits.
    """
    graph, counters = state.graph, state.counters
    n = graph.num_nodes
    policy = _dead_end_code(state.dead_end_policy, state.source, n)
    frontier = np.empty(n, dtype=np.int64)
    pushed = np.empty(n)
    r_sum = (ctypes.c_double * 1)(state.r_sum)
    rounds = 0
    status = _STEPPED
    while status == _STEPPED:
        counts = (ctypes.c_int64 * 3)()
        status = _call(
            "repro_queue_rounds", n, graph.out_indptr, graph.out_indices,
            state.alpha, state.residue, state.reserve, policy, state.source,
            dead_end_degree(graph, state.dead_end_policy), r_max, l1_threshold,
            scan_threshold, max_updates - counters.residue_updates,
            max_rounds - rounds, 0 if trace is None else 1, frontier, pushed,
            r_sum, counts,
        )
        counters.count_bulk_pushes(counts[0], counts[1])
        rounds += counts[2]
        state.r_sum = r_sum[0]
        if status == _STEPPED:
            trace.maybe_record(counters.residue_updates, r_sum[0])
    return rounds, status == _DONE


def scan_epochs(
    graph,
    residue: np.ndarray,
    reserve: np.ndarray,
    alpha: float,
    targets,
    counters: PushCounters,
    *,
    l1_threshold: float,
    signed: bool = False,
    source: int = 0,
    dead_end_policy: str = "redirect-to-source",
    max_updates: int = _NO_CAP,
    max_sweeps: int = _NO_CAP,
    trace: ConvergenceTrace | None = None,
) -> tuple[int, float, bool]:
    """PowerPush's scan phase over raw arrays: one C call.

    Epoch ``i`` sweeps (:func:`async_sweep`'s loop, then the dead-end mass
    routed by ``dead_end_policy`` as :func:`_apply_dead_end_mass` routes
    it) while the residue's sum — of ``|residue|`` when ``signed`` —
    exceeds ``targets[i]``; the sum is recounted after every sweep, in
    the bits of ``residue.sum()`` (``np.abs(residue).sum()``).  An epoch
    that swept ends, while the sum is still above ``l1_threshold``, in an
    extrapolation of its last sweep (module docstring), after which the
    sum is recounted.  ``counters`` is billed with the pushes, the
    residue updates and the windows extrapolated (``extrapolations``).

    Returns ``(sweeps, sum, within_caps)``: the sweeps run, the final
    sum, and False when a sweep took ``counters.residue_updates`` above
    ``max_updates`` or the sweeps above ``max_sweeps`` (the loop stops
    there).  With ``trace``, the loop returns to Python after every sweep
    and extrapolation to record ``(residue_updates, sum)``, and computes
    the same bits.
    """
    n = graph.num_nodes
    policy = _dead_end_code(dead_end_policy, source, n)
    # The last sweep's window: the residue before it, and what it settled.
    r_before, settled = np.empty(n), np.empty(n)
    targets = np.ascontiguousarray(targets, dtype=np.float64)
    # The epoch the loop is in, and whether that epoch swept.
    progress = (ctypes.c_int64 * 2)()
    measure = (ctypes.c_double * 1)()
    sweeps = 0
    status = _STEPPED
    while status == _STEPPED:
        counts = (ctypes.c_int64 * 4)()
        status = _call(
            "repro_scan_epochs", n, graph.out_indptr, graph.out_indices, alpha,
            residue, reserve, r_before, settled, policy, source, signed,
            targets.shape[0], targets, l1_threshold,
            max_updates - counters.residue_updates, max_sweeps - sweeps,
            0 if trace is None else 1, progress, measure, counts,
        )
        counters.count_bulk_pushes(counts[0], counts[1])
        sweeps += counts[2]
        if counts[3]:
            counters.bump("extrapolations", counts[3])
        if status == _STEPPED:
            trace.maybe_record(counters.residue_updates, measure[0])
    return sweeps, measure[0], status == _DONE


def async_sweep(state: PushState) -> np.ndarray:
    """Push every residue-holding node once, with the freshest residues.

    The sweep of PowerPush's scan (Algorithm 3), here alone: FIFO-FwdPush
    runs it once its frontier is wide.  For each node ``v`` in ascending
    id whose residue ``r`` is not zero (either sign), zero
    ``residue[v]`` first, so a self-loop re-deposits; settle ``alpha *
    r`` into ``reserve[v]``; and add ``(1 - alpha) * r / out_degree`` to
    every out-neighbour in the live residue — so a node pushes mass that
    reached it earlier in this very sweep, and one sweep does the work
    of nearly two synchronous ones (:func:`global_sweep`).  The dead
    ends' ``(1 - alpha) * r`` is routed by the state's policy and
    ``r_sum`` recounted.  Billed like
    ``global_sweep(count_all_edges=False)``: one push per node that held
    residue when the sweep reached it, one residue update per out-edge
    of those nodes.

    Returns what the sweep settled into the reserve (``alpha`` times
    what each node pushed, 0 for a node not pushed), a fresh ``(n,)``
    array: the ``settled`` half of a window :func:`scan_epochs` can
    extrapolate.  A residue or reserve that is not a writable
    C-contiguous float64 vector of ``n`` entries raises
    :class:`~repro.errors.ParameterError` before the C loop runs.
    """
    graph = state.graph
    settled = np.empty(graph.num_nodes)
    counts = (ctypes.c_int64 * 2)()
    dead_mass = _call(
        "repro_async_sweep", graph.num_nodes, graph.out_indptr,
        graph.out_indices, state.alpha, state.residue, state.reserve, settled,
        counts,
    )
    state.counters.count_bulk_pushes(counts[0], counts[1])
    _apply_dead_end_mass(state, dead_mass)
    state.refresh_r_sum()
    return settled


def inverse_cdf_guide(cdf: np.ndarray) -> np.ndarray:
    """The guide table :func:`inverse_cdf` starts its searches from:
    ``guide[b] = np.searchsorted(cdf, b / n)`` for the ``n`` buckets of
    ``[0, 1)``, an ``int64`` vector of ``n`` entries."""
    n = np.shape(cdf)[0]
    return np.searchsorted(cdf, np.arange(n) / n).astype(np.int64, copy=False)


def inverse_cdf(
    cdf: np.ndarray,
    guide: np.ndarray,
    uniforms: np.ndarray,
    *,
    sources: np.ndarray | None = None,
) -> np.ndarray:
    """``np.searchsorted(cdf, uniforms)`` on a non-decreasing ``cdf``, in
    one C loop over the uniforms in draw order.

    Each uniform ``u`` starts at ``guide[floor(u * n)]``
    (:func:`inverse_cdf_guide`) and steps to the first index whose value
    is ``>= u``; ``u`` above ``cdf[-1]`` gives ``n``, as the search does.
    Drawn from the CDF itself, a uniform takes O(1) steps on average,
    and ties (a zero weight repeats a value) resolve as the search's.

    With ``sources`` (the indices of the draw before, through another
    CDF), returns instead the edge keys ``sources[i] * n + index_i`` of
    the pairs that are not self-loops, in draw order, written over
    ``sources``.  Every array is a C-contiguous vector of its dtype —
    ``cdf`` float64, ``guide`` ``int64`` of ``n`` entries with values in
    ``[0, n]``, ``uniforms`` float64, ``sources`` a writable ``int64``
    one per uniform — or :class:`~repro.errors.ParameterError` is raised
    before the loop runs.
    """
    size = np.size(uniforms)
    out = np.empty(size, dtype=np.int64) if sources is None else sources
    kept = _call(
        "repro_inverse_cdf", np.size(cdf), cdf, guide, size, uniforms, sources, out,
    )
    return out[:kept]


def _apply_dead_end_mass(state: PushState, dead_mass: float) -> None:
    """Route mass emitted by dead ends according to the state's policy."""
    if dead_mass == 0.0:
        return
    if state.dead_end_policy == "redirect-to-source":
        state.residue[state.source] += dead_mass
    elif state.dead_end_policy == "uniform-teleport":
        state.residue += dead_mass / state.graph.num_nodes
    else:  # self-loop handled structurally; mass cannot appear here
        raise AssertionError(_SELF_LOOP_MASS)


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
            raise AssertionError(_SELF_LOOP_MASS)
    state.r_sum[rows] = state.residue[rows].sum(axis=1)
