"""Tests for the readers-writer lock (:mod:`repro.serving.locks`)."""

import threading
import time

import pytest

from repro.serving.locks import RWLock


class TestRWLock:
    def test_readers_overlap(self):
        lock = RWLock()
        inside = threading.Barrier(3, timeout=5.0)

        def reader():
            with lock.read():
                inside.wait()  # all three readers inside simultaneously

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5.0)
        assert not any(t.is_alive() for t in threads)

    def test_writer_excludes_readers(self):
        lock = RWLock()
        writer_in = threading.Event()
        release_writer = threading.Event()
        reader_done = threading.Event()

        def writer():
            with lock.write():
                writer_in.set()
                release_writer.wait(5.0)

        def reader():
            with lock.read():
                reader_done.set()

        w = threading.Thread(target=writer)
        w.start()
        assert writer_in.wait(5.0)
        r = threading.Thread(target=reader)
        r.start()
        time.sleep(0.05)
        assert not reader_done.is_set()  # blocked behind the writer
        release_writer.set()
        assert reader_done.wait(5.0)
        w.join(5.0)
        r.join(5.0)

    def test_waiting_writer_blocks_new_readers(self):
        lock = RWLock()
        first_reader_in = threading.Event()
        release_first_reader = threading.Event()
        writer_done = threading.Event()
        second_reader_done = threading.Event()

        def first_reader():
            with lock.read():
                first_reader_in.set()
                release_first_reader.wait(5.0)

        def writer():
            with lock.write():
                writer_done.set()

        def second_reader():
            with lock.read():
                second_reader_done.set()

        r1 = threading.Thread(target=first_reader)
        r1.start()
        assert first_reader_in.wait(5.0)
        w = threading.Thread(target=writer)
        w.start()
        time.sleep(0.05)  # let the writer queue up
        r2 = threading.Thread(target=second_reader)
        r2.start()
        time.sleep(0.05)
        # writer preference: the late reader waits behind the writer
        assert not second_reader_done.is_set()
        assert not writer_done.is_set()
        release_first_reader.set()
        assert writer_done.wait(5.0)
        assert second_reader_done.wait(5.0)
        for t in (r1, w, r2):
            t.join(5.0)

    def test_sequential_read_write_cycles(self):
        lock = RWLock()
        for _ in range(3):
            with lock.read():
                pass
            with lock.write():
                pass

    def test_mismatched_releases_raise(self):
        lock = RWLock()
        with pytest.raises(RuntimeError):
            lock.release_read()
        with pytest.raises(RuntimeError):
            lock.release_write()


    def test_last_reader_wakes_only_a_waiting_writer(self, monkeypatch):
        lock = RWLock()
        notified = []
        notify_all = lock._cond.notify_all

        def counted():
            notified.append(lock._writers_waiting)
            notify_all()

        monkeypatch.setattr(lock._cond, "notify_all", counted)
        for _ in range(3):
            with lock.read():
                pass
        assert notified == []  # no writer waited: nothing to wake
        lock.acquire_read()
        writer_in = threading.Event()

        def writer():
            with lock.write():
                writer_in.set()

        w = threading.Thread(target=writer)
        w.start()
        while not lock._writers_waiting:
            time.sleep(0.001)
        lock.release_read()
        assert writer_in.wait(5.0)
        w.join(5.0)
        assert notified[0] == 1  # the release woke the waiting writer


class TestOnTheOwnersLock:
    """An RWLock built on a lock its owner holds: the owner reads and
    takes the read side inside a section of its own."""

    def test_the_state_lives_under_the_given_lock(self):
        mutex = threading.Lock()
        lock = RWLock(mutex)
        entered = threading.Event()

        def reader():
            with lock.read():
                entered.set()

        with mutex:
            r = threading.Thread(target=reader)
            r.start()
            # the reader needs the owner's lock to count itself in
            assert not entered.wait(0.05)
        assert entered.wait(5.0)
        r.join(5.0)
        assert not r.is_alive()

    def test_writer_ahead_while_a_writer_is_active(self):
        mutex = threading.Lock()
        lock = RWLock(mutex)
        with mutex:
            assert lock.writer_ahead() is False
        lock.acquire_write()
        try:
            with mutex:
                assert lock.writer_ahead() is True
        finally:
            lock.release_write()
        with mutex:
            assert lock.writer_ahead() is False
        # asking took nothing: the reader count is still zero
        with pytest.raises(RuntimeError):
            lock.release_read()

    def test_writer_ahead_while_a_writer_waits_behind_readers(self):
        mutex = threading.Lock()
        lock = RWLock(mutex)
        lock.acquire_read()
        writer_done = threading.Event()

        def writer():
            with lock.write():
                writer_done.set()

        w = threading.Thread(target=writer)
        w.start()
        deadline = time.monotonic() + 5.0
        while not lock._writers_waiting and time.monotonic() < deadline:
            time.sleep(0.001)
        assert lock._writers_waiting == 1
        # writer preference: a queued writer is ahead of new readers too
        with mutex:
            assert lock.writer_ahead() is True
        assert not writer_done.is_set()
        lock.release_read()
        assert writer_done.wait(5.0)
        w.join(5.0)
        assert not w.is_alive()
        with mutex:
            assert lock.writer_ahead() is False

    def test_the_owner_waits_out_a_writer_in_its_own_section(self):
        mutex = threading.Lock()
        lock = RWLock(mutex)
        lock.acquire_write()
        waited = threading.Event()

        def owner():
            with mutex:
                lock.wait_for_writers()
                assert not lock.writer_ahead()
                lock.acquire_read_locked()  # no writer ahead: no wait
                waited.set()

        o = threading.Thread(target=owner)
        o.start()
        # the waiting owner released the mutex: others still get it
        assert not waited.wait(0.05)
        with mutex:
            assert lock.writer_ahead()
        lock.release_write()
        assert waited.wait(5.0)
        o.join(5.0)
        assert not o.is_alive()
        # the share taken in the owner's section pairs with one release
        writer_in = threading.Event()

        def writer():
            with lock.write():
                writer_in.set()

        w = threading.Thread(target=writer)
        w.start()
        assert not writer_in.wait(0.05)
        lock.release_read()
        assert writer_in.wait(5.0)
        w.join(5.0)
        assert not w.is_alive()
        with pytest.raises(RuntimeError):
            lock.release_read()
