"""Readers-writer lock: many concurrent queries, exclusive graph updates.

The serving layer's consistency story rests on one primitive: every
read of engine state (cache lookup, version stamp, ``query``)
happens under a *shared* lock, and every graph transition
(``apply_updates`` + cache invalidation) under an *exclusive* one.  A
result computed under the read lock is therefore always computed at a
graph version that is current for the whole computation — the stale
reads the stress tests hunt for are impossible by construction.

The lock prefers writers: a waiting writer blocks *new* readers, so a
steady query stream cannot starve updates (readers already inside
finish first, then the writer runs).  It is not re-entrant — no
serving tier nests acquisitions.

Its state lives under one plain lock, its own or one its owner passes
in.  A serving tier builds it on the tier's mutex, so the mutex's
holder reads that state in the section it holds anyway: one section
finds no writer ahead and answers a cache hit, which then needs no
read share at all — while no writer is active the version cannot move,
and none can become active before the mutex is released.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

__all__ = ["RWLock"]


class RWLock:
    """Writer-preference readers-writer lock.

    Any number of readers may hold the lock at once; a writer holds it
    exclusively.  Use the :meth:`read` / :meth:`write` context managers
    rather than the raw acquire/release pairs.

    Parameters
    ----------
    lock:
        The plain lock the state lives under; a new one when ``None``.
        Its holder may call :meth:`writer_ahead`,
        :meth:`wait_for_writers` and :meth:`acquire_read_locked`;
        every other method takes it, so must not be called under it.
    """

    def __init__(self, lock: threading.Lock | None = None) -> None:
        self._cond = threading.Condition(
            threading.Lock() if lock is None else lock
        )
        self._active_readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    # -- for the holder of the underlying lock --------------------------
    def writer_ahead(self) -> bool:
        """Whether a writer holds the lock or waits for it, so a new
        reader would wait."""
        return self._writer_active or self._writers_waiting > 0

    def wait_for_writers(self) -> None:
        """Wait, releasing the underlying lock meanwhile, until
        :meth:`writer_ahead` is ``False``."""
        # Writer preference: queue behind waiting writers too, not
        # just the active one.
        while self.writer_ahead():
            self._cond.wait()

    def acquire_read_locked(self) -> None:
        """:meth:`acquire_read` for the holder of the underlying lock."""
        self.wait_for_writers()
        self._active_readers += 1

    # -- shared (read) side ---------------------------------------------
    def acquire_read(self) -> None:
        with self._cond:
            self.acquire_read_locked()

    def release_read(self) -> None:
        with self._cond:
            if self._active_readers <= 0:
                raise RuntimeError("release_read without a matching acquire")
            self._active_readers -= 1
            # Only writers wait for the reader count to reach zero.
            if self._active_readers == 0 and self._writers_waiting:
                self._cond.notify_all()

    @contextmanager
    def read(self) -> Iterator[None]:
        """Hold the lock in shared mode for the ``with`` body."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    # -- exclusive (write) side -----------------------------------------
    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._active_readers:
                    self._cond.wait()
                self._writer_active = True
            finally:
                self._writers_waiting -= 1

    def release_write(self) -> None:
        with self._cond:
            if not self._writer_active:
                raise RuntimeError("release_write without a matching acquire")
            self._writer_active = False
            self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        """Hold the lock exclusively for the ``with`` body."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RWLock(readers={self._active_readers}, "
            f"writer={self._writer_active}, "
            f"waiting_writers={self._writers_waiting})"
        )
