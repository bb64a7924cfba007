"""Atomic checkpoints of a :class:`~repro.graph.dynamic.DynamicGraph`.

A checkpoint is a *directory* — the materialised CSR snapshot
(``graph.npz``), optionally the engine's saved indexes (reusing
:meth:`~repro.api.engine.PPREngine.save_indexes`), and a
``manifest.json`` recording the graph version, a content fingerprint,
per-artifact SHA-256 checksums, and the WAL position the checkpoint
covers.  Recovery = load the latest checkpoint + replay the WAL suffix
past its covered position.

Atomicity follows the same discipline as
:mod:`repro.durability.atomic`, lifted to directories:

1. build the checkpoint under a ``.tmp-`` prefix,
2. fsync every file and the tmp directory,
3. ``os.replace`` the tmp directory to its final ``ckpt-<version>``
   name and fsync the parent,
4. atomically rewrite the ``CHECKPOINT`` pointer file to name it.

A crash at any point leaves either the old pointer (a complete old
checkpoint plus an ignorable orphan) or the new pointer (a complete
new checkpoint); :meth:`CheckpointStore.cleanup` sweeps tmp debris and
unreferenced checkpoints on the next open.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import CheckpointError
from ..graph.digraph import DiGraph
from ..graph.dynamic import DynamicGraph
from ..graph.io import load_npz, save_npz
from .atomic import atomic_write_json, fsync_dir
from .wal import CrashHook, WalPosition

__all__ = ["CheckpointInfo", "CheckpointStore", "graph_fingerprint", "sha256_file"]

_POINTER_NAME = "CHECKPOINT"
_MANIFEST_NAME = "manifest.json"
_GRAPH_NAME = "graph.npz"
_INDEX_DIR = "indexes"
_FORMAT = 1


def graph_fingerprint(graph: DiGraph) -> str:
    """Content hash of a CSR snapshot — the staleness stamp for indexes.

    Hashing the actual adjacency arrays (not a session-local version
    counter) means a server restarted on the same persisted graph can
    warm-start, while an index saved for *any* other graph — including
    a same-shaped one — is refused.  The one definition: checkpoints
    and :meth:`~repro.api.engine.PPREngine.save_indexes` both stamp
    with it, so a recovered snapshot can adopt a checkpoint's saved
    indexes when (and only when) the WAL suffix was empty.
    """
    digest = hashlib.sha256()
    digest.update(np.int64(graph.num_nodes).tobytes())
    # Hash the arrays' own buffers: ``tobytes()`` would copy each one.
    digest.update(memoryview(np.ascontiguousarray(graph.out_indptr)))
    digest.update(memoryview(np.ascontiguousarray(graph.out_indices)))
    return digest.hexdigest()


def sha256_file(path: Path) -> str:
    """Streaming SHA-256 of a file, as recorded in every manifest."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class CheckpointInfo:
    """A durable checkpoint: graph ``version`` covering ``wal`` ."""

    name: str
    version: int
    wal: WalPosition
    path: Path

    @property
    def graph_path(self) -> Path:
        return self.path / _GRAPH_NAME

    @property
    def index_dir(self) -> Path:
        return self.path / _INDEX_DIR


class CheckpointStore:
    """Checkpoint directory manager under ``directory``.

    ``fsync=False`` (benchmarks only) keeps renames atomic but skips
    the durability syncs; ``crash_hook`` injects faults at the
    ``checkpoint-pre-rename`` / ``checkpoint-post-rename`` /
    ``checkpoint-post-pointer`` protocol points.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        fsync: bool = True,
        crash_hook: CrashHook | None = None,
    ) -> None:
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._fsync = bool(fsync)
        self._crash_hook = crash_hook
        self.cleanup()

    @property
    def directory(self) -> Path:
        return self._dir

    def _pointer_path(self) -> Path:
        return self._dir / _POINTER_NAME

    # ------------------------------------------------------------------
    # read side

    def latest(self) -> CheckpointInfo | None:
        """The checkpoint the pointer names, or None when virgin.

        A pointer naming a missing or invalid checkpoint raises
        :class:`~repro.errors.CheckpointError` — durable state was
        promised and cannot be produced.
        """
        pointer = self._pointer_path()
        if not pointer.exists():
            return None
        try:
            doc = json.loads(pointer.read_text())
            name = str(doc["dir"])
            version = int(doc["version"])
            wal = WalPosition(int(doc["wal"]["segment"]), int(doc["wal"]["offset"]))
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointError(
                f"{pointer}: malformed checkpoint pointer ({exc})"
            ) from exc
        path = self._dir / name
        if not path.is_dir():
            raise CheckpointError(
                f"checkpoint pointer names {name!r} but no such directory "
                f"exists under {self._dir}"
            )
        return CheckpointInfo(name, version, wal, path)

    def load(self, info: CheckpointInfo) -> DynamicGraph:
        """Rehydrate ``info`` into a :class:`DynamicGraph` at its version.

        Verifies the manifest's per-artifact SHA-256 and the CSR
        fingerprint before trusting a byte of it; any mismatch raises
        :class:`~repro.errors.CheckpointError`.
        """
        manifest_path = info.path / _MANIFEST_NAME
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, ValueError) as exc:
            raise CheckpointError(
                f"{manifest_path}: unreadable checkpoint manifest ({exc})"
            ) from exc
        if manifest.get("format") != _FORMAT:
            raise CheckpointError(
                f"{manifest_path}: unsupported checkpoint format "
                f"{manifest.get('format')!r} (expected {_FORMAT})"
            )
        if int(manifest.get("version", -1)) != info.version:
            raise CheckpointError(
                f"{manifest_path}: manifest version {manifest.get('version')} "
                f"disagrees with pointer version {info.version}"
            )
        checksums = manifest.get("checksums", {})
        for rel, expected in checksums.items():
            artefact = info.path / rel
            if not artefact.is_file():
                raise CheckpointError(
                    f"checkpoint {info.name}: artefact {rel!r} is missing"
                )
            actual = sha256_file(artefact)
            if actual != expected:
                raise CheckpointError(
                    f"checkpoint {info.name}: artefact {rel!r} failed its "
                    f"SHA-256 check (stored {expected[:12]}…, computed "
                    f"{actual[:12]}…) — refusing corrupt state"
                )
        base = load_npz(info.graph_path)
        fingerprint = manifest.get("graph", {}).get("fingerprint")
        if fingerprint != graph_fingerprint(base):
            raise CheckpointError(
                f"checkpoint {info.name}: graph.npz does not match the "
                "manifest's CSR fingerprint"
            )
        return DynamicGraph(base, initial_version=info.version)

    # ------------------------------------------------------------------
    # write side

    def write(
        self,
        graph: DynamicGraph,
        wal_position: WalPosition,
        *,
        engine: object | None = None,
    ) -> CheckpointInfo:
        """Write an atomic checkpoint of ``graph`` covering ``wal_position``.

        ``engine`` (a :class:`~repro.api.engine.PPREngine`, duck-typed
        to avoid the import cycle) additionally persists its built
        indexes via ``save_indexes`` inside the checkpoint directory.
        """
        version = graph.version
        name = f"ckpt-{version:012d}"
        final = self._dir / name
        existing = self.latest()
        if existing is not None and existing.name == name:
            return existing
        if final.exists():
            shutil.rmtree(final)
        tmp = self._dir / f".tmp-{name}"
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir()
        try:
            snap = graph.snapshot()
            save_npz(snap, tmp / _GRAPH_NAME)
            checksums = {_GRAPH_NAME: sha256_file(tmp / _GRAPH_NAME)}
            if engine is not None:
                index_dir = tmp / _INDEX_DIR
                index_dir.mkdir()
                engine.save_indexes(index_dir)  # type: ignore[attr-defined]
                for artefact in sorted(index_dir.iterdir()):
                    if artefact.is_file():
                        rel = f"{_INDEX_DIR}/{artefact.name}"
                        checksums[rel] = sha256_file(artefact)
            manifest = {
                "format": _FORMAT,
                "version": version,
                "wal": wal_position.as_dict(),
                "graph": {
                    "num_nodes": snap.num_nodes,
                    "num_edges": snap.num_edges,
                    "name": snap.name,
                    "fingerprint": graph_fingerprint(snap),
                },
                "checksums": checksums,
            }
            atomic_write_json(tmp / _MANIFEST_NAME, manifest, fsync=self._fsync)
            if self._fsync:
                self._fsync_tree(tmp)
            hook = self._crash_hook
            if hook is not None and hook.should("checkpoint-pre-rename"):
                hook.crash("checkpoint-pre-rename")
            os.replace(tmp, final)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        if self._fsync:
            fsync_dir(self._dir)
        hook = self._crash_hook
        if hook is not None and hook.should("checkpoint-post-rename"):
            # Checkpoint directory durable, pointer still old: recovery
            # must fall back to the previous checkpoint + full WAL.
            hook.crash("checkpoint-post-rename")
        atomic_write_json(
            self._pointer_path(),
            {"dir": name, "version": version, "wal": wal_position.as_dict()},
            fsync=self._fsync,
        )
        if hook is not None and hook.should("checkpoint-post-pointer"):
            # Pointer advanced but old checkpoints/segments not yet
            # pruned: recovery uses the new checkpoint and skips
            # already-covered WAL records.
            hook.crash("checkpoint-post-pointer")
        return CheckpointInfo(name, version, wal_position, final)

    def prune(self) -> int:
        """Remove checkpoints the pointer no longer references."""
        return self.cleanup()

    def cleanup(self) -> int:
        """Sweep tmp debris and unreferenced ``ckpt-*`` directories.

        Safe at any time: the pointed-at checkpoint is never touched.
        Returns the number of directories removed.
        """
        pointer = self._pointer_path()
        keep: str | None = None
        if pointer.exists():
            try:
                keep = str(json.loads(pointer.read_text()).get("dir"))
            except (OSError, ValueError):
                keep = None
        removed = 0
        for entry in self._dir.iterdir():
            if not entry.is_dir():
                continue
            if entry.name == keep:
                continue
            if entry.name.startswith(".tmp-") or entry.name.startswith("ckpt-"):
                shutil.rmtree(entry, ignore_errors=True)
                removed += 1
        return removed

    def _fsync_tree(self, root: Path) -> None:
        for dirpath, _dirnames, filenames in os.walk(root):
            for filename in filenames:
                fd = os.open(os.path.join(dirpath, filename), os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
            fsync_dir(dirpath)
