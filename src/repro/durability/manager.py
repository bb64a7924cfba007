"""Orchestration: WAL + checkpoints + cold-restart recovery.

:class:`DurabilityManager` glues a :class:`~repro.durability.wal.WriteAheadLog`
and a :class:`~repro.durability.checkpoint.CheckpointStore` to one
:class:`~repro.graph.dynamic.DynamicGraph`:

* it attaches itself as the graph's WAL hook, buffering every
  journalled mutation;
* :meth:`flush` drains the buffer into one fsynced WAL record — the
  serving tier calls it *before* acknowledging a version
  (fsync-before-ack);
* at bootstrap, every ``checkpoint_every`` logged updates, and on
  demand it writes an atomic checkpoint, rotates the WAL, and prunes
  segments the checkpoint covers — not on
  :meth:`~repro.graph.dynamic.DynamicGraph.compact`, which changes the
  in-memory representation only;
* :meth:`recover` rebuilds the graph on a cold restart — load the
  latest checkpoint, replay the WAL suffix, and verify the result
  matches the log head version exactly.

Directory layout under the manager's root::

    wal/               wal-<seq>.log segments
    checkpoints/       ckpt-<version>/ directories + CHECKPOINT pointer
"""

from __future__ import annotations

from pathlib import Path

from ..errors import RecoveryError
from ..graph.digraph import DiGraph
from ..graph.dynamic import DynamicGraph, EdgeUpdate
from .checkpoint import CheckpointStore
from .wal import CrashHook, WalPosition, WriteAheadLog

__all__ = ["DurabilityManager", "open_durable_graph"]


class DurabilityManager:
    """Crash-consistent persistence for one :class:`DynamicGraph`.

    Parameters
    ----------
    directory:
        Root of the durable state (``wal/`` + ``checkpoints/``),
        created if missing.
    fsync:
        False skips the fsyncs (atomic-but-not-durable; benchmarks
        measuring the durability tax only).
    checkpoint_every:
        Write a checkpoint automatically once this many updates have
        been logged since the last one; None disables the automatic
        trigger (checkpoints still happen at bootstrap and on demand).
    crash_hook:
        Fault-injection hook threaded through to the WAL and the
        checkpoint store (see :mod:`repro.durability.crash`).
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        fsync: bool = True,
        checkpoint_every: int | None = None,
        crash_hook: CrashHook | None = None,
    ) -> None:
        if checkpoint_every is not None and checkpoint_every < 1:
            raise RecoveryError(
                f"checkpoint_every must be >= 1 or None, got {checkpoint_every}"
            )
        self._root = Path(directory)
        self._root.mkdir(parents=True, exist_ok=True)
        self._fsync = bool(fsync)
        self._checkpoint_every = checkpoint_every
        self._wal = WriteAheadLog(
            self._root / "wal", fsync=fsync, crash_hook=crash_hook
        )
        self._store = CheckpointStore(
            self._root / "checkpoints", fsync=fsync, crash_hook=crash_hook
        )
        self._graph: DynamicGraph | None = None
        self._engine: object | None = None
        self._pending: list[tuple[str, int, int]] = []
        self._updates_since_checkpoint = 0
        self._last_checkpoint_version: int | None = None
        self._replayed_records = 0
        self._closed = False

    # ------------------------------------------------------------------
    # introspection

    @property
    def directory(self) -> Path:
        return self._root

    @property
    def wal(self) -> WriteAheadLog:
        return self._wal

    @property
    def store(self) -> CheckpointStore:
        return self._store

    @property
    def graph(self) -> DynamicGraph | None:
        return self._graph

    @property
    def has_state(self) -> bool:
        """True when the directory holds recoverable durable state."""
        return self._store.latest() is not None

    @property
    def replayed_records(self) -> int:
        """WAL records replayed by the last :meth:`recover` call."""
        return self._replayed_records

    @property
    def pending_updates(self) -> int:
        """Buffered mutations not yet flushed to the WAL."""
        return len(self._pending)

    def stats(self) -> dict[str, int | None]:
        return {
            "wal_records": self._wal.record_count,
            "wal_head_version": self._wal.head_version,
            "wal_segments": len(self._wal.segments),
            "replayed_records": self._replayed_records,
            "pending_updates": len(self._pending),
            "last_checkpoint_version": self._last_checkpoint_version,
        }

    # ------------------------------------------------------------------
    # lifecycle

    def bootstrap(self, graph: DynamicGraph) -> DynamicGraph:
        """Adopt ``graph`` as the durable state of a virgin directory.

        Writes the initial covering checkpoint *before* any WAL record
        exists, so recovery is self-contained from the first update.
        """
        if self._store.latest() is not None:
            raise RecoveryError(
                f"{self._root} already holds durable state — recover() it "
                "instead of bootstrapping over it"
            )
        if self._wal.record_count:
            raise RecoveryError(
                f"{self._root} has WAL records but no covering checkpoint — "
                "refusing to bootstrap over an inconsistent directory"
            )
        info = self._store.write(graph, self._wal.position, engine=self._engine)
        self._last_checkpoint_version = info.version
        graph.attach_wal_hook(self)
        self._graph = graph
        return graph

    def recover(self) -> DynamicGraph:
        """Rebuild the graph from checkpoint + WAL suffix.

        Verifies record contiguity against the recovering graph's
        version and, at the end, that the recovered version equals the
        WAL head — any gap raises
        :class:`~repro.errors.RecoveryError`.
        """
        info = self._store.latest()
        if info is None:
            raise RecoveryError(
                f"{self._root} holds no durable state to recover "
                "(bootstrap() a graph first)"
            )
        graph = self._store.load(info)
        replayed = 0
        for record in self._wal.replay(after_version=info.version):
            start = record.version - len(record.updates)
            if start != graph.version:
                raise RecoveryError(
                    f"WAL record spans versions {start}..{record.version} "
                    f"but the recovering graph is at {graph.version} — "
                    "checkpoint and log disagree"
                )
            graph.apply_updates(record.updates)
            replayed += 1
        head = self._wal.head_version
        if head is not None and graph.version != head:
            raise RecoveryError(
                f"recovery replayed to version {graph.version} but the WAL "
                f"head is {head} — durable state is inconsistent"
            )
        self._replayed_records = replayed
        self._last_checkpoint_version = info.version
        graph.attach_wal_hook(self)
        self._graph = graph
        return graph

    def attach_engine(self, engine: object) -> None:
        """Include ``engine``'s built indexes in future checkpoints
        (duck-typed ``save_indexes``; avoids the api import cycle)."""
        self._engine = engine

    def close(self) -> None:
        """Flush pending updates and release the WAL file handle."""
        if self._closed:
            return
        if self._graph is not None and self._pending:
            self.flush()
        self._closed = True
        if self._graph is not None:
            self._graph.detach_wal_hook()
            self._graph = None
        self._wal.close()

    def __enter__(self) -> "DurabilityManager":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # DynamicGraph WAL-hook protocol

    def on_commit(self, entry: EdgeUpdate) -> None:
        self._pending.append((entry.op, entry.source, entry.target))

    def on_compact(self, graph: DynamicGraph) -> None:
        """Flush the pending WAL tail when the CSR is rebased.

        A rebase needs no checkpoint: :meth:`recover` rebuilds from the
        checkpoint's *logical* snapshot plus logical ``(op, u, v)``
        records, and neither depends on which CSR the overlay is
        layered on in memory.
        """
        self._flush_records()

    # ------------------------------------------------------------------
    # durability operations

    def flush(self) -> WalPosition | None:
        """Drain buffered mutations into one fsynced WAL record.

        The serving tier calls this before acknowledging a version —
        after it returns, the acknowledged state survives a crash.
        Returns the durable WAL position, or None if nothing was
        pending.  May trigger an automatic checkpoint.
        """
        position = self._flush_records()
        if (
            self._checkpoint_every is not None
            and self._updates_since_checkpoint >= self._checkpoint_every
        ):
            self.checkpoint()
        return position

    def _flush_records(self) -> WalPosition | None:
        if not self._pending:
            return None
        if self._graph is None:
            raise RecoveryError("no graph attached to this DurabilityManager")
        batch = self._pending
        self._pending = []
        position = self._wal.append(self._graph.version, batch)
        self._updates_since_checkpoint += len(batch)
        return position

    def checkpoint(self) -> WalPosition:
        """Write an atomic covering checkpoint now.

        Flushes pending updates, rotates the WAL so the checkpoint
        covers every sealed segment, writes the checkpoint (including
        the attached engine's indexes, when any), and prunes covered
        segments only after the new pointer is durable.
        """
        if self._graph is None:
            raise RecoveryError("no graph attached to this DurabilityManager")
        self._flush_records()
        self._wal.rotate()
        position = WalPosition(self._wal.segments[-1], 0)
        self._store.write(self._graph, position, engine=self._engine)
        # Pointer is durable: history before the new segment is
        # covered and can go.
        self._wal.prune_upto(position.segment)
        self._store.cleanup()
        self._updates_since_checkpoint = 0
        self._last_checkpoint_version = self._graph.version
        return position


def open_durable_graph(
    directory: str | Path,
    base: DiGraph | DynamicGraph | None = None,
    *,
    fsync: bool = True,
    checkpoint_every: int | None = None,
    crash_hook: CrashHook | None = None,
) -> tuple[DurabilityManager, DynamicGraph]:
    """Open (or create) durable state under ``directory``.

    When the directory already holds a checkpoint, the stored state is
    recovered and ``base`` is ignored — the disk is the source of
    truth.  Otherwise ``base`` (a :class:`DiGraph`, wrapped, or a
    :class:`DynamicGraph`, adopted as-is) seeds a fresh bootstrap;
    omitting it on a virgin directory raises
    :class:`~repro.errors.RecoveryError`.
    """
    manager = DurabilityManager(
        directory,
        fsync=fsync,
        checkpoint_every=checkpoint_every,
        crash_hook=crash_hook,
    )
    if manager.has_state:
        graph = manager.recover()
        return manager, graph
    if base is None:
        manager.close()
        raise RecoveryError(
            f"{directory} holds no durable state and no base graph was "
            "given to bootstrap from"
        )
    graph = base if isinstance(base, DynamicGraph) else DynamicGraph(base)
    manager.bootstrap(graph)
    return manager, graph
