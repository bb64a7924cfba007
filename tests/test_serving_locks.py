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


class TestTryAcquireRead:
    def test_false_while_a_writer_is_active(self):
        lock = RWLock()
        lock.acquire_write()
        try:
            assert lock.try_acquire_read() is False
        finally:
            lock.release_write()
        # the failed try took nothing: the reader count is still zero
        with pytest.raises(RuntimeError):
            lock.release_read()

    def test_false_while_a_writer_waits_behind_readers(self):
        lock = RWLock()
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
        # writer preference: a queued writer refuses new readers too
        assert lock.try_acquire_read() is False
        assert not writer_done.is_set()
        lock.release_read()
        assert writer_done.wait(5.0)
        w.join(5.0)
        assert not w.is_alive()
        assert lock.try_acquire_read() is True
        lock.release_read()

    def test_each_success_pairs_with_one_release(self):
        lock = RWLock()
        assert lock.try_acquire_read() is True
        assert lock.try_acquire_read() is True  # readers share
        lock.release_read()
        # one reader still inside: a writer cannot get in yet
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
        with pytest.raises(RuntimeError):
            lock.release_write()
