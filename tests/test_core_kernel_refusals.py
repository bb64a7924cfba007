"""What the kernel boundary refuses, row by row of its table.

Every C entry point is reached through ``repro.core.kernels._call``,
which checks each argument against the entry's row of ``_ENTRIES``
before the loop runs.  Here every array parameter of every entry is
handed, in turn, the wrong dtype, a non-contiguous view, one entry too
few (where the row states a length) and, where the loop writes it, a
read-only array, and every scalar a number of another kind: each must
raise ``ParameterError`` and leave every array as it was.  The same
holds through the wrappers for the arrays a caller hands in, and for
the mistyped scalars that once escaped as ``ctypes.ArgumentError``.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pytest

from repro.core import kernels
from repro.core.kernels import (
    index_read,
    queue_rounds,
    refine_passes,
    scan_epochs,
    walk_move,
)
from repro.core.residues import PushState
from repro.errors import ParameterError
from repro.graph.build import cycle_graph
from repro.instrumentation.counters import PushCounters

ALPHA = 0.2
GRAPH = cycle_graph(4)
# Counts that make every entry's loop a valid no-op on zeroed arrays.
COUNTS = {"n": 4, "num": 2, "size": 4, "live": 2, "num_epochs": 2}
OTHER_DTYPE = {np.float64: np.float32, np.int64: np.int32, np.int32: np.int64}


def valid_arguments(entry) -> list:
    """Arguments the entry takes: the 4-cycle's CSR, zeroed arrays of
    the stated lengths (4 where any), fresh out-counts and counts that
    fit them."""
    args = [
        COUNTS.get(param.name, 0) if param.role == "id"
        else ALPHA if param.role == "real"
        else 0 if param.role == "int"
        else None
        for param in entry.params
    ]
    counts = {param.name: arg for param, arg in zip(entry.params, args)}
    for i, param in enumerate(entry.params):
        if param.role == "out":
            args[i] = (param.dtype * param.length)()
        elif param.name in ("indptr", "indices"):
            args[i] = getattr(GRAPH, f"out_{param.name}").copy()
        elif args[i] is None:
            size, _ = kernels._size(param, counts)
            args[i] = np.zeros(4 if size is None else size, dtype=param.dtype)
    return args


def bad_arrays(array: np.ndarray, *, sized: bool, written: bool):
    yield "wrong dtype", array.astype(OTHER_DTYPE[array.dtype.type])
    strided = np.repeat(array, 2)[::2]
    assert not strided.flags.c_contiguous
    yield "non-contiguous", strided
    if sized:
        yield "one entry short", array[:-1].copy()
    if written:
        read_only = array.copy()
        read_only.flags.writeable = False
        yield "read-only", read_only


def array_cases():
    for name, entry in kernels._ENTRIES.items():
        for index, param in enumerate(entry.params):
            if param.role in ("reads", "writes"):
                yield pytest.param(name, index, id=f"{name}-{param.name}")


def snapshot(args) -> list:
    return [
        arg.tobytes() if isinstance(arg, np.ndarray) else bytes(arg)
        for arg in args
        if isinstance(arg, (np.ndarray, ctypes.Array))
    ]


@pytest.mark.parametrize("name", sorted(kernels._ENTRIES))
def test_the_valid_arguments_pass(name):
    kernels._call(name, *valid_arguments(kernels._ENTRIES[name]))


@pytest.mark.parametrize("name, index", array_cases())
def test_every_array_parameter_refuses_what_the_loop_cannot_take(name, index):
    entry = kernels._ENTRIES[name]
    param = entry.params[index]
    good = valid_arguments(entry)
    cases = list(
        bad_arrays(
            good[index],
            sized=param.length is not None,
            written=param.role == "writes",
        )
    )
    assert len(cases) >= 2
    for label, bad in cases:
        args = valid_arguments(entry)
        args[index] = bad
        before = snapshot(args)
        with pytest.raises(ParameterError, match=param.name):
            kernels._call(name, *args)
        assert snapshot(args) == before, label


MISTYPED = {"id": (2.5, True, None, "1"), "int": (2.5, None), "real": ("x", None)}


def scalar_cases():
    for name, entry in kernels._ENTRIES.items():
        for index, param in enumerate(entry.params):
            if param.role in MISTYPED:
                yield pytest.param(name, index, id=f"{name}-{param.name}")


@pytest.mark.parametrize("name, index", scalar_cases())
def test_every_scalar_parameter_refuses_another_type(name, index):
    entry = kernels._ENTRIES[name]
    param = entry.params[index]
    for bad in MISTYPED[param.role]:
        args = valid_arguments(entry)
        args[index] = bad
        before = snapshot(args)
        with pytest.raises(ParameterError, match=param.name):
            kernels._call(name, *args)
        assert snapshot(args) == before, bad


def test_a_nullable_array_takes_none():
    entry = kernels._ENTRIES["repro_walk_move"]
    args = valid_arguments(entry)
    args[[param.name for param in entry.params].index("jumps")] = None
    kernels._call("repro_walk_move", *args)


class TestThroughTheWrappers:
    """The arrays a caller hands in, refused before anything is written."""

    def test_queue_rounds_refuses_the_states_arrays(self):
        n = GRAPH.num_nodes
        for slot in ("residue", "reserve"):
            state = PushState(GRAPH, 0, ALPHA)
            for label, bad in bad_arrays(
                np.full(n, 0.5), sized=True, written=True
            ):
                setattr(state, slot, bad)
                other = state.reserve if slot == "residue" else state.residue
                before = other.tobytes()
                with pytest.raises(ParameterError, match=slot):
                    queue_rounds(state, 1e-4, 0.0, n, 10**6)
                assert other.tobytes() == before, label
                assert state.counters.pushes == 0

    def test_index_read_refuses_the_residue_and_the_index(self):
        n = GRAPH.num_nodes
        arrays = {
            "residue": np.full(n, 0.25),
            "indptr": np.arange(0, 2 * n + 1, 2, dtype=np.int64),
            "stops": np.arange(2 * n, dtype=np.int32) % n,
        }
        for slot in arrays:
            for label, bad in bad_arrays(
                arrays[slot], sized=slot != "stops", written=False
            ):
                out = np.zeros(n)
                given = {**arrays, slot: bad}
                with pytest.raises(ParameterError, match=slot):
                    index_read(
                        out, given["residue"], given["indptr"], given["stops"],
                        8.0, cap=True,
                    )
                assert not out.any(), label


def refine(**change):
    n = GRAPH.num_nodes
    residue, reserve, threshold = np.full(n, 0.5), np.zeros(n), np.zeros(n)
    kwargs = {
        "max_passes": 1, "source": 0, "dead_end_policy": "redirect-to-source",
        **change,
    }
    return (residue, reserve), lambda: refine_passes(
        GRAPH, residue, reserve, ALPHA, threshold, **kwargs
    )


def scan(alpha=ALPHA, **change):
    n = GRAPH.num_nodes
    residue, reserve = np.full(n, 0.5), np.zeros(n)
    return (residue, reserve), lambda: scan_epochs(
        GRAPH, residue, reserve, alpha, [0.0], PushCounters(),
        l1_threshold=0.0, **change,
    )


def read(num_walks_w):
    n = GRAPH.num_nodes
    out, residue = np.zeros(n), np.full(n, 0.25)
    indptr = np.arange(0, 2 * n + 1, 2, dtype=np.int64)
    stops = np.arange(2 * n, dtype=np.int32) % n
    return (out,), lambda: index_read(
        out, residue, indptr, stops, num_walks_w, cap=True
    )


def move(live):
    positions = np.arange(4, dtype=np.int64)
    return (positions,), lambda: walk_move(
        GRAPH, positions, live, 0, np.full(1, 0.5), None, 0
    )


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(lambda: refine(max_passes=2.5), id="refine-max_passes"),
        pytest.param(lambda: refine(source=1.5), id="refine-source"),
        pytest.param(lambda: scan(source=1.5), id="scan-source"),
        pytest.param(lambda: scan(max_sweeps=2.5), id="scan-max_sweeps"),
        pytest.param(lambda: scan(alpha="x"), id="scan-alpha"),
        pytest.param(lambda: read(None), id="index_read-num_walks_w"),
        pytest.param(lambda: move(1.0), id="walk_move-live"),
    ],
)
def test_a_mistyped_scalar_is_a_parameter_error(case):
    arrays, call = case()
    before = [array.tobytes() for array in arrays]
    with pytest.raises(ParameterError):
        call()
    assert [array.tobytes() for array in arrays] == before
