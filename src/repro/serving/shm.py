"""Shared-memory graph images for sharded serving.

The sharded serving tier (:mod:`repro.serving.sharded`) runs one
:class:`~repro.api.engine.PPREngine` per *process* so numpy solves
stop contending on the GIL.  Replicating a multi-GB CSR per
worker would defeat the point, so the arrays every push reads — the
out-CSR, ``out_indptr`` / ``out_indices`` — are placed once in a
single :mod:`multiprocessing.shared_memory` segment and every worker
maps the same physical pages read-only.  :meth:`SharedGraphImage.graph`
reconstructs a :class:`~repro.graph.digraph.DiGraph` over those
zero-copy views.  Nothing else is in the image: what a few solvers
derive from the out-CSR (backward push's in-CSR, BePI's ``P^T``) each
process builds lazily, on first use.

An image is immutable, so an evolving graph is a sequence of them:
each version is a fresh segment (a *generation*), exported once by the
parent and attached by every shard in place of the one before, which
the parent then unlinks — one exists at a time, and a shard maps one.
Answers travel the other way pickled through each shard's response
pipe: only cache misses reach a shard, so the pipe carries one reply
per solve.

Lifecycle discipline (enforced by the ``shm-discipline`` lint rule and
implemented in :class:`SharedGraphImage`):

* the **owner** (the process that created the segment) must
  :meth:`~SharedGraphImage.unlink` it **exactly once** — ``unlink`` is
  idempotent, guarded by the owning pid so a forked child that
  inherited the object can never unlink the parent's segment;
* **every** process that mapped the segment calls
  :meth:`~SharedGraphImage.close` (idempotent, best-effort: outstanding
  numpy views make the unmap fail benignly and the OS reclaims the
  mapping at process exit);
* an :mod:`atexit` fallback cleans owned segments even when the owner
  forgets, and the interpreter's ``resource_tracker`` backstops a
  SIGKILLed owner — a killed worker leaks nothing because workers
  never own segments;
* a forked worker first drops every mapping it inherited
  (:func:`close_inherited_segments`): an unlinked segment's pages live
  until the last mapping goes, so one would pin a retired generation.

Attachments are *untracked*: a non-owner registering with the resource
tracker would have the tracker unlink the segment when that process
exits, yanking the graph out from under its siblings (bpo-38119).  On
Python >= 3.13 this uses ``track=False``; earlier versions unregister
manually.
"""

from __future__ import annotations

import atexit
import os
import secrets
from dataclasses import dataclass
from multiprocessing import parent_process, shared_memory
from typing import Mapping

import numpy as np

from repro.errors import ParameterError
from repro.graph.digraph import DiGraph

__all__ = [
    "ArraySpec",
    "SharedGraphHandle",
    "SharedGraphImage",
    "SEGMENT_PREFIX",
    "close_inherited_segments",
    "live_segments",
]

#: Prefix of every segment this module creates; the serving benchmark
#: scans ``/dev/shm`` for it to assert nothing leaked.  Kept short:
#: POSIX shm names are limited to 31 bytes on some platforms.
SEGMENT_PREFIX = "rppr"

#: Byte alignment of each array within a segment (cache-line sized,
#: and a multiple of every dtype's itemsize we store).
_ALIGN = 64


def _aligned(size: int) -> int:
    """``size`` rounded up to a multiple of ``_ALIGN``."""
    return -(-size // _ALIGN) * _ALIGN


@dataclass(frozen=True)
class ArraySpec:
    """Location of one array inside the shared segment."""

    offset: int
    dtype: str
    shape: tuple[int, ...]

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= dim
        return count * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class SharedGraphHandle:
    """Picklable descriptor a worker needs to attach a graph image.

    Carries no live resources — send it through a
    ``multiprocessing`` pipe/queue or as a spawn argument and call
    :meth:`SharedGraphImage.attach` on the other side.
    """

    segment: str
    graph_name: str
    num_nodes: int
    num_edges: int
    arrays: Mapping[str, ArraySpec]


def _segment_name() -> str:
    """A short, unique POSIX shm name (pid + random token)."""
    return f"{SEGMENT_PREFIX}_{os.getpid():x}_{secrets.token_hex(3)}"


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to ``name`` without resource-tracker registration.

    A non-owning attachment must not be tracked: the tracker would
    unlink the segment when *this* process exits, destroying it for
    every sibling still serving from it (bpo-38119).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track= parameter
        segment = shared_memory.SharedMemory(name=name)
        if parent_process() is not None:
            # A multiprocessing child shares its parent's tracker:
            # this registration is the owner's own (names are a set),
            # and unregistering would race the (register, unregister)
            # pairs of siblings attaching the same segment just now.
            return segment
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:  # repro: allow[lock-discipline] -- best-effort
            # unregister: tracker internals moved; worst case is a
            # spurious "leaked shared_memory" warning at exit, never a
            # wrong unlink of a live segment from the owner side.
            pass
        return segment


#: Segments with cleanup still pending, keyed by id — the atexit hook
#: walks this so an owner that never called unlink (crash path, test
#: abort) still removes its segments from /dev/shm.
_LIVE_SEGMENTS: dict[int, "SharedGraphImage"] = {}
_ATEXIT_INSTALLED = False


def _cleanup_at_exit() -> None:
    for segment in list(_LIVE_SEGMENTS.values()):
        segment.cleanup()


def _register_live(segment: "SharedGraphImage") -> None:
    global _ATEXIT_INSTALLED
    _LIVE_SEGMENTS[id(segment)] = segment
    if not _ATEXIT_INSTALLED:
        atexit.register(_cleanup_at_exit)
        _ATEXIT_INSTALLED = True


def live_segments() -> list[str]:
    """Segment names this process still has cleanup pending for."""
    return sorted(
        segment.segment_name for segment in _LIVE_SEGMENTS.values()
    )


def close_inherited_segments() -> None:
    """Drop the mappings (and registry entries) a forked child got
    from its parent; call first thing in a worker, which then maps only
    what it attaches.  A no-op under spawn, which inherits nothing."""
    for segment in list(_LIVE_SEGMENTS.values()):
        segment.close()
    _LIVE_SEGMENTS.clear()


class SharedGraphImage:
    """One graph's out-CSR in a shared-memory segment.

    Construct through :meth:`export_graph` (owner side) or
    :meth:`attach` (worker side); the constructor itself is internal.
    Owns the segment's teardown discipline: owner-only, exactly-once,
    pid-guarded :meth:`unlink`; idempotent :meth:`close`;
    :meth:`cleanup` as the one-call teardown; the context manager; and
    registration with the atexit fallback that :func:`live_segments`
    reports.
    """

    def __init__(
        self,
        segment: shared_memory.SharedMemory,
        handle: SharedGraphHandle,
        *,
        owner: bool,
    ) -> None:
        self._segment: shared_memory.SharedMemory | None = segment
        self._name = segment.name
        self._handle = handle
        self._owner = owner
        #: pid that may unlink: a forked child inherits this object but
        #: must never destroy the parent's segment.
        self._owner_pid = os.getpid() if owner else -1
        self._unlinked = False
        _register_live(self)

    # -- construction ----------------------------------------------------
    @classmethod
    def export_graph(cls, graph: DiGraph) -> "SharedGraphImage":
        """Copy ``graph``'s out-CSR into a fresh shared segment.

        The calling process owns the segment and must :meth:`unlink` it
        exactly once when every worker is done (or rely on the atexit
        fallback).
        """
        # The arrays one image carries, in layout order.
        arrays: dict[str, np.ndarray] = {
            "out_indptr": graph.out_indptr,
            "out_indices": graph.out_indices,
        }
        specs: dict[str, ArraySpec] = {}
        total = 0
        for field, array in arrays.items():
            offset = _aligned(total)
            specs[field] = ArraySpec(
                offset=offset,
                dtype=str(array.dtype),
                shape=tuple(array.shape),
            )
            total = offset + array.nbytes
        segment = shared_memory.SharedMemory(
            name=_segment_name(), create=True, size=max(total, 1)
        )
        try:
            for field, spec in specs.items():
                view: np.ndarray = np.ndarray(
                    spec.shape,
                    dtype=spec.dtype,
                    buffer=segment.buf,
                    offset=spec.offset,
                )
                view[...] = arrays[field]
                del view  # keep no exported pointers into the buffer
            handle = SharedGraphHandle(
                segment=segment.name,
                graph_name=graph.name,
                num_nodes=graph.num_nodes,
                num_edges=graph.num_edges,
                arrays=specs,
            )
        except BaseException:
            # A half-built image must not leak its segment.
            try:
                segment.close()
            finally:
                segment.unlink()
            raise
        return cls(segment, handle, owner=True)

    @classmethod
    def attach(cls, handle: SharedGraphHandle) -> "SharedGraphImage":
        """Map an exported image in this process (zero-copy, untracked).

        The attachment never owns the segment: :meth:`unlink` refuses,
        and process exit releases only this mapping.
        """
        return cls(_attach_untracked(handle.segment), handle, owner=False)

    # -- accessors -------------------------------------------------------
    @property
    def segment_name(self) -> str:
        return self._name

    @property
    def owner(self) -> bool:
        """Whether this process created (and must unlink) the segment."""
        return self._owner

    @property
    def closed(self) -> bool:
        return self._segment is None

    def _buffer(self) -> memoryview:
        if self._segment is None:
            raise ParameterError(
                f"shared segment {self.segment_name!r} is closed"
            )
        return self._segment.buf

    @property
    def handle(self) -> SharedGraphHandle:
        """The picklable descriptor workers attach through."""
        return self._handle

    def _array(self, field: str) -> np.ndarray:
        spec = self._handle.arrays[field]
        view: np.ndarray = np.ndarray(
            spec.shape,
            dtype=spec.dtype,
            buffer=self._buffer(),
            offset=spec.offset,
        )
        view.flags.writeable = False
        return view

    def graph(self) -> DiGraph:
        """The shared graph as a :class:`DiGraph` over zero-copy views.

        The returned graph's CSR arrays alias the shared segment —
        construction is O(1) in the graph size.  Keep the image open for
        as long as the graph (or any engine built on it) is in use.
        """
        return DiGraph(
            self._array("out_indptr"),
            self._array("out_indices"),
            name=self._handle.graph_name,
            validate=False,
        )

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Release this process's mapping (idempotent, best-effort).

        Numpy views into the buffer keep it exported; if any are still
        alive the unmap raises ``BufferError`` internally, which is
        swallowed — the mapping is then reclaimed at process exit,
        which is safe because only :meth:`unlink` affects other
        processes.
        """
        segment = self._segment
        if segment is None:
            return
        self._segment = None
        try:
            segment.close()
        except BufferError:
            # Live views (graph/engine still referenced) pin the mmap;
            # the OS releases it with the process.  Deliberately not an
            # error: close() must be callable from teardown paths that
            # cannot prove every view is dead.
            pass
        if not self._owner:
            _LIVE_SEGMENTS.pop(id(self), None)

    def unlink(self) -> None:
        """Remove the segment from the system (owner only, exactly once).

        Idempotent; raises :class:`~repro.errors.ParameterError` when
        called on a non-owning attachment, and silently refuses in a
        forked child of the owner (the pid guard) so an inherited
        object can never destroy the parent's live segment.
        """
        if not self._owner:
            raise ParameterError(
                f"segment {self.segment_name!r} is attached, not owned; "
                f"only the process that created (exported) it may "
                f"unlink it"
            )
        if self._unlinked or os.getpid() != self._owner_pid:
            return
        self._unlinked = True
        _LIVE_SEGMENTS.pop(id(self), None)
        try:
            shared_memory.SharedMemory(name=self._name).unlink()
        except FileNotFoundError:
            # Already gone (resource-tracker backstop beat us to it).
            pass

    def cleanup(self) -> None:
        """Close, and unlink when owned: the one-call teardown.

        Safe from ``atexit`` and ``finally`` blocks in any process —
        non-owners only drop their mapping.
        """
        try:
            self.close()
        finally:
            if self._owner and os.getpid() == self._owner_pid:
                self.unlink()

    def __enter__(self) -> "SharedGraphImage":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.cleanup()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self.closed else "open"
        role = "owner" if self._owner else "attached"
        return (
            f"SharedGraphImage({self.segment_name!r}, "
            f"n={self._handle.num_nodes}, m={self._handle.num_edges}, "
            f"{role}, {state})"
        )
