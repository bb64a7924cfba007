"""Exception hierarchy for the :mod:`repro` library.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch a single base class.  Subclasses
are grouped by subsystem: graph construction and I/O, algorithm parameter
validation, and index management.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphFormatError(ReproError):
    """An edge list, file, or array describing a graph is malformed."""


class GraphConstructionError(ReproError):
    """A graph could not be assembled from otherwise well-formed input."""


class ParameterError(ReproError, ValueError):
    """An algorithm parameter is outside its documented domain.

    Inherits from :class:`ValueError` so generic callers that catch
    ``ValueError`` keep working.
    """


class NodeNotFoundError(ReproError, KeyError):
    """A node id is outside ``[0, n)`` for the graph in question."""


class IndexBuildError(ReproError):
    """A precomputed index (walk index or BePI index) failed to build."""


class IndexMismatchError(ReproError):
    """A precomputed index does not match the graph or query parameters."""


class KernelBuildError(ReproError, ImportError):
    """The C push kernels could not be compiled or loaded at import.

    Raised by the first import of :mod:`repro.core.kernels` when the C
    compiler ``cc`` is not on ``PATH`` or rejects the source; the message
    carries the compiler's error output.  Inherits from
    :class:`ImportError` because the library cannot be imported without
    them.
    """


class ConvergenceError(ReproError):
    """An iterative solver exhausted its iteration budget before converging."""


class DeadlineExceeded(ReproError, TimeoutError):
    """A request's deadline passed before an answer could be produced.

    Raised by the serving layer: at submit time when the budget is
    already spent, when a tier reaches a request whose deadline passed
    while it waited (it is failed instead of solved), and by the async
    front door when the solve outlives the remaining budget.  Inherits from
    :class:`TimeoutError` so generic timeout handlers keep working.
    """


class ServerOverloadedError(ReproError):
    """Admission control shed a request to protect the SLO.

    Raised by :class:`~repro.serving.frontdoor.AsyncFrontDoor` when
    predicted tail latency (or the in-flight bound) says admitting the
    request would blow the service-level objective and no degraded
    tier can absorb it.  The request was never enqueued; retrying
    later is safe.
    """


class WorkerUnavailableError(ReproError):
    """No shard could serve a request within its retry budget.

    Raised by :class:`~repro.serving.sharded.ShardedDispatcher` when a
    read has exhausted its deadline-aware retry budget — the routed
    worker kept dying, timing out, or sitting behind an open circuit
    breaker — or when every worker is gone and none will be respawned.
    Retrying is safe (answers are pure functions of ``(seed, source)``)
    but should go through fresh admission, not the failed future.
    """


class WalCorruptionError(ReproError):
    """A write-ahead log contains an unrecoverable mid-log corruption.

    Raised by :class:`~repro.durability.wal.WriteAheadLog` when a fully
    present frame fails its CRC32C check, when a non-final segment ends
    in a partial frame, or when record versions are not contiguous.  A
    *torn tail* — a partial final frame at the end of the last segment,
    the signature of a crash mid-append — is **not** this error: it is
    silently truncated on open, because fsync-before-ack means the torn
    record was never acknowledged.
    """


class CheckpointError(ReproError):
    """A checkpoint could not be written, read, or validated.

    Raised by :class:`~repro.durability.checkpoint.CheckpointStore`
    when a checkpoint directory is missing artefacts, fails checksum
    or fingerprint validation, or its manifest is malformed.
    """


class RecoveryError(ReproError):
    """Cold-restart recovery could not reach a consistent state.

    Raised by :class:`~repro.durability.manager.DurabilityManager` when
    the checkpoint + WAL-suffix replay does not reproduce the logged
    head version, when a replayed record's version range does not abut
    the recovered graph's version, or when durable state exists but is
    incompatible with the requested graph.
    """


class UnknownMethodError(ReproError, KeyError):
    """A method name does not resolve to any registered solver.

    Raised by the solver registry (:mod:`repro.api.registry`); the
    message lists every valid canonical name and alias.  Inherits from
    :class:`KeyError` so generic lookup callers keep working.
    """

    def __init__(self, name: str, valid: list[str]) -> None:
        self.name = name
        self.valid = list(valid)
        super().__init__(
            f"unknown method {name!r}; valid methods: {', '.join(self.valid)}"
        )

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message
        return self.args[0]

    def __reduce__(self):  # type: ignore[override]
        # Default exception pickling replays ``__init__(*args)`` with
        # the formatted message as the only arg, which does not match
        # this signature — and the sharded serving tier ships raised
        # exceptions across process boundaries, where a reconstruction
        # failure kills the dispatcher's collector thread.
        return (UnknownMethodError, (self.name, self.valid))
