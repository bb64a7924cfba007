"""Tests for :class:`repro.serving.sharded.ShardedDispatcher`.

The contract: N worker processes serve one shared-memory graph image
behind consistent-hash routing, and none of that machinery is allowed
to change an answer — every served byte matches the single-process
engine.  Updates broadcast as a versioned barrier; a killed worker is
detected, its pending requests rerouted, and teardown leaves zero
``/dev/shm`` segments behind.
"""

import contextlib
import os
import signal
import sys
import threading
import time
from concurrent.futures import CancelledError, Future

import numpy as np
import pytest

from repro.api import PPREngine
from repro.errors import (
    GraphConstructionError,
    NodeNotFoundError,
    ParameterError,
    UnknownMethodError,
)
from repro.generators.rmat import rmat_digraph
from repro.graph.build import from_edge_arrays
from repro.graph.dynamic import DynamicGraph, sample_edge_update
from repro.serving import EngineServer, ShardedDispatcher
from repro.serving.shm import SEGMENT_PREFIX, SharedGraphImage, live_segments
from repro.serving.supervisor import RestartPolicy

PARAMS = {"l1_threshold": 1e-6}


@pytest.fixture(scope="module")
def base():
    rng = np.random.default_rng(23)
    return rmat_digraph(8, 1500, rng=rng, name="shard-base")


@pytest.fixture(scope="module")
def dispatcher(base):
    with ShardedDispatcher(base, workers=2, alpha=0.2, seed=7) as disp:
        yield disp


def our_shm_files() -> set[str]:
    from pathlib import Path

    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():
        return set()
    return {
        p.name for p in shm_dir.iterdir()
        if p.name.startswith(SEGMENT_PREFIX)
    }


def assert_same_bytes(served, expected):
    """A served answer equals the serial engine's, vector for vector."""
    assert served.result.estimate.tobytes() == expected.estimate.tobytes()
    if expected.residue is None:
        assert served.result.residue is None
    else:
        assert served.result.residue.tobytes() == expected.residue.tobytes()


def pick_updates(graph):
    """Two deterministic edge inserts that are legal on ``graph``."""
    updates = []
    for u in (1, 2):
        v = next(
            v
            for v in range(graph.num_nodes)
            if v != u and not graph.has_edge(u, v)
        )
        updates.append(("add", u, v))
    return updates


def failing_batch(graph):
    """A valid insert followed by the insert of an edge that exists."""
    return [pick_updates(graph)[0], ("add", *next(graph.iter_edges()))]


def one_source_per_shard(disp, graph):
    return [
        next(s for s in range(graph.num_nodes) if disp.route(s) == worker)
        for worker in range(disp.configured_workers)
    ]


def engine_queries(disp):
    """Solves the shards have run, all of them together."""
    return sum(
        worker["engine_queries"]
        for worker in disp.stats()["per_worker"].values()
    )


@contextlib.contextmanager
def stopped(disp, worker):
    """SIGSTOP ``worker`` for the block: what is sent to it stays in
    flight until the block ends."""
    pid = disp._states[worker].process.pid
    os.kill(pid, signal.SIGSTOP)
    try:
        yield disp._states[worker]
    finally:
        os.kill(pid, signal.SIGCONT)


class TestWorkerLoop:
    """The shard's receive loop, driven in-process over plain queues."""

    def test_each_query_is_one_engine_query_in_fifo_order(self, base):
        """A shard calls its engine directly: no scheduler, no thread,
        no coalescing — a duplicate is a second solve (the dispatcher
        catches cacheable ones before they are sent).  A request that
        fails, or arrives past its deadline, is answered with its error
        while the rest of the burst is served as usual."""
        import queue

        from repro.errors import DeadlineExceeded
        from repro.serving.faults import WorkerFaultPlan
        from repro.serving.sharded import (
            WorkerConfig,
            _serve_messages,
            _Shard,
        )

        threads_before = set(threading.enumerate())
        extra_threads = set()

        class Replies(queue.Queue):
            def put(self, item, *args, **kwargs):
                extra_threads.update(set(threading.enumerate()) - threads_before)
                super().put(item, *args, **kwargs)

        requests, responses = queue.Queue(), Replies()
        # three misses, an out-of-range source, a duplicate, an expired one
        burst = [
            (3, None),
            (9, None),
            (base.num_nodes, None),
            (27, None),
            (9, None),
            (5, time.monotonic() - 1.0),
        ]
        good = {1: 3, 2: 9, 4: 27, 5: 9}
        shard = _Shard(WorkerConfig(alpha=0.2, seed=7))
        with SharedGraphImage.export_graph(base) as image:
            requests.put(("attach", 0, image.handle, 0))
            for req_id, (source, deadline) in enumerate(burst, start=1):
                requests.put(
                    ("query", req_id, source, "powerpush", dict(PARAMS),
                     deadline)
                )
            requests.put(("stats", 99))
            requests.put(("stop",))
            try:
                _serve_messages(
                    0, shard, requests, responses, WorkerFaultPlan(())
                )
                replies = []
                while not responses.empty():
                    replies.append(responses.get_nowait())
                kinds = [m[0] for m in replies if m[0] != "heartbeat"]
                assert kinds == [
                    "attached", "result", "result", "error",
                    "result", "result", "error", "stats",
                ]
                engine = PPREngine(base, alpha=0.2, seed=7)
                errors, answered = {}, {}
                for message in replies:
                    kind, req_id = message[0], message[1]
                    if kind == "error":
                        errors[req_id] = message[2]
                    if kind != "result":
                        continue
                    served = message[2]
                    result = served.result
                    answered[req_id] = (
                        result.estimate.tobytes(),
                        result.residue.tobytes(),
                        result.counters.as_dict(),
                    )
                    assert served.worker == 0
                    assert served.version == 0 and not served.cache_hit
                for req_id, source in good.items():
                    expected = engine.query(source, "powerpush", **PARAMS)
                    assert answered[req_id] == (
                        expected.estimate.tobytes(),
                        expected.residue.tobytes(),
                        expected.counters.as_dict(),
                    )
                assert isinstance(errors[3], NodeNotFoundError)
                assert isinstance(errors[6], DeadlineExceeded)
                (stats,) = [m[2] for m in replies if m[0] == "stats"]
                assert stats == {
                    "requests": len(burst),
                    "engine_queries": len(good),
                    "graph_version": 0,
                    "failures": 1,
                    "expired": 1,
                }
                assert not extra_threads
            finally:
                shard.close()

    def test_close_before_the_first_attach_is_a_no_op(self):
        from repro.serving.sharded import WorkerConfig, _Shard

        _Shard(WorkerConfig()).close()


class TestByteIdentity:
    def test_matches_serial_engine_and_thread_server(self, base, dispatcher):
        rng = np.random.default_rng(5)
        trace = [int(s) for s in rng.integers(0, base.num_nodes, size=24)]
        engine = PPREngine(base, alpha=0.2, seed=7)
        with EngineServer(base, alpha=0.2, seed=7) as thread_server:
            for source in trace:
                sharded = dispatcher.query(source, "powerpush", **PARAMS)
                threaded = thread_server.query(source, "powerpush", **PARAMS)
                serial = engine.query(source, "powerpush", **PARAMS)
                assert (
                    sharded.result.estimate.tobytes()
                    == serial.estimate.tobytes()
                )
                assert (
                    sharded.result.estimate.tobytes()
                    == threaded.result.estimate.tobytes()
                )
                # (the trace repeats a source: a hit has no shard)
                assert sharded.worker == (
                    None if sharded.cache_hit else dispatcher.route(source)
                )
                assert threaded.worker is None

    def test_batch_matches_serial(self, base, dispatcher):
        sources = list(range(0, 40, 3))
        engine = PPREngine(base, alpha=0.2, seed=7)
        served = dispatcher.batch(sources, "powerpush", **PARAMS)
        for source, answer in zip(sources, served):
            serial = engine.query(source, "powerpush", **PARAMS)
            assert answer.result.estimate.tobytes() == serial.estimate.tobytes()

    @pytest.mark.parametrize("method", ["powitr", "bepi"])
    def test_pt_readers_build_it_themselves(self, base, dispatcher, method):
        # The image carries no P^T (test_serving_shm.py): a shard asked
        # for a solver that reads it builds its own, and the answer
        # must not show it.
        engine = PPREngine(base, alpha=0.2, seed=7)
        for source in (0, 3, 17, 101):
            assert_same_bytes(
                dispatcher.query(source, method, **PARAMS),
                engine.query(source, method, **PARAMS),
            )

    @pytest.mark.parametrize(
        "alias", ["fora+", "fora-index", "speedppr-index"]
    )
    def test_variant_aliases_keep_their_implied_parameters(
        self, base, dispatcher, alias
    ):
        # Regression: the dispatcher sent the canonical method name with
        # the caller's raw params, so "fora+" reached the shard as plain
        # index-free "fora".
        engine = PPREngine(base, alpha=0.2, seed=7)
        for source in (3, 17):
            served = dispatcher.query(source, alias, epsilon=0.5, seed=3)
            assert_same_bytes(
                served, engine.query(source, alias, epsilon=0.5, seed=3)
            )


class TestReplyEncodings:
    """Every answer comes back pickled through its shard's response
    queue; that may not change a byte."""

    def test_golden_trace_through_the_pipe(self, base):
        rng = np.random.default_rng(5)
        trace = [int(s) for s in rng.integers(0, base.num_nodes, size=24)]
        engine = PPREngine(base, alpha=0.2, seed=7)
        with ShardedDispatcher(base, workers=2, alpha=0.2, seed=7) as disp:
            for source in trace:
                served = disp.query(source, "powerpush", **PARAMS)
                assert_same_bytes(
                    served, engine.query(source, "powerpush", **PARAMS)
                )
            stats = disp.stats()
            # A source the trace repeats is answered by the dispatcher.
            assert engine_queries(disp) == len(set(trace))
            assert stats["cache"]["hits"] == len(trace) - len(set(trace))

    def test_answer_without_residue_travels_inline(self, base, dispatcher):
        before = engine_queries(dispatcher)
        engine = PPREngine(base, alpha=0.2, seed=7)
        served = dispatcher.query(4, "montecarlo", num_walks=2000, seed=3)
        expected = engine.query(4, "montecarlo", num_walks=2000, seed=3)
        assert expected.residue is None
        assert_same_bytes(served, expected)
        assert engine_queries(dispatcher) == before + 1

    def test_returned_arrays_are_private(self, base, dispatcher):
        engine = PPREngine(base, alpha=0.2, seed=7)
        expected = engine.query(6, "powerpush", **PARAMS)
        first = dispatcher.query(6, "powerpush", fresh=True, **PARAMS)
        kept = first.result.estimate.tobytes()
        # Later replies of the same shard must not move what the
        # caller holds.
        again = dispatcher.query(6, "powerpush", fresh=True, **PARAMS)
        for other in (7, 8, 9):
            dispatcher.query(other, "powerpush", fresh=True, **PARAMS)
        assert first.result.estimate.tobytes() == kept
        assert not np.shares_memory(
            first.result.estimate, again.result.estimate
        )
        assert_same_bytes(again, expected)

    def test_every_answer_refuses_writes(self, base, dispatcher):
        # A cached answer and a joined flight hand one object to many
        # callers; scribbling on it must fail at the scribbler, not
        # corrupt what the others — and every later hit — read.
        params = {"l1_threshold": 2e-6}  # this test's own cache entries
        engine = PPREngine(base, alpha=0.2, seed=7)
        miss = dispatcher.query(6, "powerpush", **params)
        hit = dispatcher.query(6, "powerpush", **params)
        fresh = dispatcher.query(6, "powerpush", fresh=True, **params)
        inline = dispatcher.query(6, "montecarlo", num_walks=500, seed=3)
        assert (miss.cache_hit, hit.cache_hit, fresh.cache_hit) == (
            False, True, False
        )
        assert hit.result is miss.result
        for served in (miss, hit, fresh, inline):
            for vector in (served.result.estimate, served.result.residue):
                if vector is None:
                    continue
                assert not vector.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    vector[:] = -1.0
        assert_same_bytes(
            dispatcher.query(6, "powerpush", **params),
            engine.query(6, "powerpush", **params),
        )

    def test_spawned_workers_reply_through_the_pipe(self, base):
        engine = PPREngine(base, alpha=0.2, seed=7)
        with ShardedDispatcher(
            base, workers=2, alpha=0.2, seed=7, start_method="spawn"
        ) as disp:
            for source in (0, 1, 2, 3):
                assert_same_bytes(
                    disp.query(source, "powerpush", timeout=120, **PARAMS),
                    engine.query(source, "powerpush", **PARAMS),
                )
            assert engine_queries(disp) == 4


class TestRoutingAndStats:
    def test_route_is_stable_and_covers_all_workers(self, dispatcher, base):
        first = [dispatcher.route(s) for s in range(base.num_nodes)]
        second = [dispatcher.route(s) for s in range(base.num_nodes)]
        assert first == second
        assert set(first) == {0, 1}

    def test_open_breaker_sends_traffic_clockwise_and_counts_it(self, base):
        with ShardedDispatcher(base, workers=2, alpha=0.2, seed=7) as disp:
            source = next(s for s in range(base.num_nodes) if disp.route(s) == 0)
            # fresh: a repeated read is a routing probe only past the cache
            probe = {"fresh": True, **PARAMS}
            assert disp.query(source, "powerpush", **probe).worker == 0
            assert disp.stats()["supervisor"]["breaker_skips"] == 0
            disp._states[0].breaker.trip(time.monotonic())
            assert disp.query(source, "powerpush", **probe).worker == 1
            assert disp.stats()["supervisor"]["breaker_skips"] == 1
            # With every breaker open the primary is asked anyway.
            disp._states[1].breaker.trip(time.monotonic())
            assert disp.query(source, "powerpush", **probe).worker == 0
            assert disp.stats()["supervisor"]["breaker_skips"] == 1

    def test_repeat_query_hits_same_workers_cache(self, dispatcher):
        # (the name is history: the cache a repeat hits is the
        # dispatcher's, and no worker sees the second read)
        source, params = 9, {"l1_threshold": 3e-6}  # this test's own entry
        first = dispatcher.query(source, "powerpush", **params)
        second = dispatcher.query(source, "powerpush", **params)
        assert first.worker == dispatcher.route(source)
        assert not first.cache_hit
        assert second.worker is None
        assert second.cache_hit
        assert second.version == first.version
        assert second.result.estimate.tobytes() == first.result.estimate.tobytes()

    def test_stats_aggregate_and_per_worker(self, dispatcher):
        stats = dispatcher.stats()
        assert stats["workers"] == 2
        assert len(stats["per_worker"]) == 2
        assert stats["cache"]["hits"] >= 1  # the repeat query above
        assert 0.0 <= stats["cache"]["hit_rate"] <= 1.0
        assert stats["worker_failures"] == 0

    def test_stats_timeout_is_one_shared_deadline(self, base):
        # Regression: with every shard unresponsive, stats() used to
        # grant each worker the full timeout in sequence, stretching
        # the worst case to workers x timeout.  The probes now share
        # one monotonic deadline, so three stopped workers cost ~one
        # timeout, not three.
        with ShardedDispatcher(base, workers=3, alpha=0.2, seed=7) as disp:
            disp.batch(list(range(9)), "powerpush", **PARAMS)  # all warm
            pids = [state.process.pid for state in disp._states.values()]
            try:
                for pid in pids:
                    os.kill(pid, signal.SIGSTOP)
                began = time.monotonic()
                stats = disp.stats(timeout=0.6)
                elapsed = time.monotonic() - began
            finally:
                for pid in pids:
                    os.kill(pid, signal.SIGCONT)
            # Sequential per-worker budgets would need >= 1.8s here.
            assert elapsed < 1.2, f"stats() took {elapsed:.2f}s"
            # Stopped shards drop out of the aggregate rather than
            # hanging it.
            assert stats["per_worker"] == {}
            # The shards resume cleanly once continued.
            assert disp.query(0, "powerpush", **PARAMS) is not None

    def test_validation_happens_in_the_dispatcher(self, dispatcher, base):
        with pytest.raises(NodeNotFoundError):
            dispatcher.query(base.num_nodes + 5, "powerpush", **PARAMS)
        with pytest.raises(ParameterError, match="scalar parameters"):
            dispatcher.query(0, "powerpush", l1_threshold=[1e-6])
        with pytest.raises(UnknownMethodError):
            dispatcher.query(0, "no-such-method")


class TestParentCacheAndFlights:
    """The cluster's one result cache and its single-flight table live
    in the dispatcher: a hit never reaches a shard, a duplicate of a
    request in flight is not sent."""

    def test_concurrent_duplicates_share_one_solve(self, base):
        engine = PPREngine(base, alpha=0.2, seed=7)
        with ShardedDispatcher(base, workers=2, alpha=0.2, seed=7) as disp:
            with stopped(disp, disp.route(5)) as state:
                futures = [
                    disp.submit(5, "powerpush", **PARAMS) for _ in range(8)
                ]
                assert len(state.pending) == 1
                assert len(set(map(id, futures))) == 8
            answers = [future.result(timeout=60) for future in futures]
            assert engine_queries(disp) == 1
            for served in answers:
                assert served is answers[0]
                assert not served.cache_hit
                assert_same_bytes(
                    served, engine.query(5, "powerpush", **PARAMS)
                )
            assert not disp._flight_table
            assert disp.stats()["cache"]["insertions"] == 1

    def test_cancelling_one_caller_leaves_the_flight_to_the_others(self, base):
        engine = PPREngine(base, alpha=0.2, seed=7)
        with ShardedDispatcher(base, workers=2, alpha=0.2, seed=7) as disp:
            with stopped(disp, disp.route(5)):
                leader, follower, last = (
                    disp.submit(5, "powerpush", **PARAMS) for _ in range(3)
                )
                # Neither the first caller nor a follower owns the flight.
                assert leader.cancel() and follower.cancel()
            served = last.result(timeout=60)
            assert_same_bytes(served, engine.query(5, "powerpush", **PARAMS))
            for future in (leader, follower):
                with pytest.raises(CancelledError):
                    future.result(timeout=0)
            # The solve they walked away from still fills the cache.
            assert disp.query(5, "powerpush", **PARAMS).cache_hit
            assert engine_queries(disp) == 1

    def test_an_error_reply_fails_every_follower(self, base):
        # Passes the dispatcher's schema check, fails in the solver.
        bad = {"l1_threshold": -1.0}
        with ShardedDispatcher(base, workers=2, alpha=0.2, seed=7) as disp:
            with stopped(disp, disp.route(5)) as state:
                futures = [disp.submit(5, "powerpush", **bad) for _ in range(3)]
                assert len(state.pending) == 1
            errors = [future.exception(timeout=60) for future in futures]
            assert isinstance(errors[0], ParameterError)
            assert "l1_threshold" in str(errors[0])
            assert errors[1] is errors[0] and errors[2] is errors[0]
            assert not disp._flight_table
            # Nothing of it is remembered: asking again asks the shard.
            with pytest.raises(ParameterError, match="l1_threshold"):
                disp.query(5, "powerpush", **bad)
            assert disp.stats()["cache"]["insertions"] == 0

    def test_only_a_flight_that_lasts_long_enough_is_joined(self, base):
        engine = PPREngine(base, alpha=0.2, seed=7)
        with ShardedDispatcher(base, workers=2, alpha=0.2, seed=7) as disp:
            now = time.monotonic()
            with stopped(disp, disp.route(5)) as state:
                submit = lambda deadline: disp.submit(
                    5, "powerpush", deadline=deadline, **PARAMS
                )
                leader = submit(now + 60)
                sooner = submit(now + 30)
                assert len(state.pending) == 1  # joined
                same = submit(now + 60)
                assert len(state.pending) == 1  # joined
                # The shard fails a flight once its leader's deadline
                # has passed; these two could still be waiting then.
                later = submit(now + 90)
                assert len(state.pending) == 2
                unbounded = submit(None)
                assert len(state.pending) == 3
                assert list(disp._flight_table._open.values()) == [
                    state.pending[min(state.pending)]
                ]
            first = leader.result(timeout=60)
            assert sooner.result(timeout=60) is first
            assert same.result(timeout=60) is first
            for future in (leader, later, unbounded):
                assert_same_bytes(
                    future.result(timeout=60),
                    engine.query(5, "powerpush", **PARAMS),
                )
            assert later.result(timeout=60) is not first
            assert unbounded.result(timeout=60) is not first
            assert not disp._flight_table

    def test_an_update_between_two_reads_makes_the_second_a_miss(self, base):
        updates = pick_updates(base)
        reference = PPREngine(DynamicGraph(base), alpha=0.2, seed=7)
        with ShardedDispatcher(
            DynamicGraph(base), workers=2, alpha=0.2, seed=7
        ) as disp:
            before = disp.query(1, "powerpush", **PARAMS)
            assert_same_bytes(before, reference.query(1, "powerpush", **PARAMS))
            assert disp.query(1, "powerpush", **PARAMS).cache_hit
            version = disp.apply_updates(updates)
            reference.apply_updates(updates)
            after = disp.query(1, "powerpush", **PARAMS)
            assert not after.cache_hit
            assert (before.version, after.version) == (0, version)
            assert_same_bytes(after, reference.query(1, "powerpush", **PARAMS))
            assert after.result.estimate.tobytes() != before.result.estimate.tobytes()
            again = disp.query(1, "powerpush", **PARAMS)
            assert again.cache_hit and again.version == version
            assert again.result is after.result
            cache = disp.stats()["cache"]
            assert cache["invalidations"] == 1
            assert cache["stale_drops"] == 0

    def test_an_answer_that_outlived_its_version_is_delivered_not_cached(
        self, base
    ):
        # Sent at version 0, answered at version 0, but by then the
        # cluster is being moved to version 2: the reader gets the
        # pre-update answer it asked for, the cache does not.
        updates = pick_updates(base)
        pre = PPREngine(base, alpha=0.2, seed=7)
        with ShardedDispatcher(
            DynamicGraph(base), workers=2, alpha=0.2, seed=7
        ) as disp:
            with stopped(disp, disp.route(1)):
                early = disp.submit(1, "powerpush", **PARAMS)
                writer = threading.Thread(
                    target=disp.apply_updates, args=(updates,), daemon=True
                )
                writer.start()
                deadline = time.monotonic() + 30
                while disp.graph_version == 0:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
            served = early.result(timeout=60)
            writer.join(timeout=60)
            assert not writer.is_alive()
            assert served.version == 0
            assert_same_bytes(served, pre.query(1, "powerpush", **PARAMS))
            cache = disp.stats()["cache"]
            assert cache["insertions"] == 0 and cache["stale_drops"] == 0
            after = disp.query(1, "powerpush", **PARAMS)
            assert not after.cache_hit and after.version == len(updates)

    def test_contended_duplicates_are_solved_once_per_version(self, base):
        # More client threads than cores asking for four sources while a
        # writer moves the version under them: cache lookup, flight
        # join, fill and invalidation all race.  A duplicate that found
        # neither the flight nor the entry would be a second solve of
        # one (source, version); a fill at the wrong version, a wrong
        # byte.
        sources = (1, 2, 7, 19)
        updates = pick_updates(base)
        reference = PPREngine(DynamicGraph(base), alpha=0.2, seed=7)
        expected = {}
        for version in range(len(updates) + 1):
            if version:
                reference.apply_updates(updates[version - 1:version])
            for source in sources:
                expected[source, version] = reference.query(
                    source, "powerpush", **PARAMS
                )
        clients, rounds = 8, 40
        answers: list = []
        failures: list[BaseException] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ShardedDispatcher(
                DynamicGraph(base), workers=2, alpha=0.2, seed=7
            ) as disp:

                def client(offset: int) -> None:
                    try:
                        for i in range(rounds):
                            source = sources[(offset + i) % len(sources)]
                            served = disp.query(
                                source, "powerpush", timeout=60, **PARAMS
                            )
                            answers.append((source, served))
                    except BaseException as exc:  # noqa: BLE001 - surfaced below
                        failures.append(exc)

                def writer() -> None:
                    try:
                        for update in updates:
                            time.sleep(0.02)
                            disp.apply_updates([update])
                    except BaseException as exc:  # noqa: BLE001 - surfaced below
                        failures.append(exc)

                threads = [
                    threading.Thread(target=client, args=(k,), daemon=True)
                    for k in range(clients)
                ] + [threading.Thread(target=writer, daemon=True)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive()
                assert not failures, failures[0]
                assert len(answers) == clients * rounds
                for source, served in answers:
                    assert_same_bytes(served, expected[source, served.version])
                solved = {(source, served.version) for source, served in answers}
                assert engine_queries(disp) == len(solved)
                assert not disp._flight_table
                assert disp.graph_version == len(updates)
        finally:
            sys.setswitchinterval(interval)

    def test_resubmit_on_a_closed_dispatcher_settles_outside_the_mutex(
        self, base
    ):
        # Regression: ``_resubmit`` failed the future with ``_mutex``
        # held, so a done-callback that re-entered the dispatcher
        # (asyncio.wrap_future's does, via the loop; this one calls
        # route()) waited on the lock its own thread was holding.
        from repro.serving.sharded import _PendingRequest

        disp = ShardedDispatcher(base, workers=2, alpha=0.2, seed=7)
        future: Future = Future()
        routed = []
        future.add_done_callback(lambda _: routed.append(disp.route(0)))
        request = _PendingRequest(
            waiters=[future],
            source=0,
            method="powerpush",
            params=dict(PARAMS),
        )
        disp.close()
        thread = threading.Thread(
            target=disp._resubmit, args=(request,), daemon=True
        )
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive(), "done-callback deadlocked on _mutex"
        assert routed == [disp.route(0)]
        with pytest.raises(RuntimeError, match="closed"):
            future.result(timeout=0)


class TestUpdates:
    def test_static_dispatcher_rejects_updates(self, dispatcher):
        with pytest.raises(ParameterError, match="dynamic"):
            dispatcher.apply_updates([("add", 0, 1)])

    def test_barrier_returns_agreed_version_and_identical_answers(self, base):
        updates = pick_updates(base)
        with ShardedDispatcher(
            DynamicGraph(base), workers=2, alpha=0.2, seed=7
        ) as disp:
            assert disp.graph_version == 0
            version = disp.apply_updates(updates)
            assert version == len(updates)
            assert disp.graph_version == version

            reference = PPREngine(DynamicGraph(base), alpha=0.2, seed=7)
            reference.apply_updates(updates)
            for source in (0, 1, 2, 7, 19):
                served = disp.query(source, "powerpush", **PARAMS)
                expected = reference.query(source, "powerpush", **PARAMS)
                assert served.version == version
                assert (
                    served.result.estimate.tobytes()
                    == expected.estimate.tobytes()
                )

    @pytest.mark.parametrize("tier", ["thread", "process"])
    def test_burst_of_updates_matches_a_cold_engine_on_the_plain_edge_set(
        self, base, tier
    ):
        """The reference shares no code with ``DynamicGraph.snapshot``:
        the edge set is kept as a Python set and built from scratch."""
        rng = np.random.default_rng(41)
        scratch = DynamicGraph(base)  # only to sample legal updates
        edges = set(base.iter_edges())
        updates = []
        for _ in range(40):
            op, u, v = sample_edge_update(scratch, rng)
            scratch.apply_updates([(op, u, v)])
            (edges.add if op == "+" else edges.remove)((u, v))
            updates.append((op, u, v))
        pairs = sorted(edges)
        rebuilt = from_edge_arrays(
            [u for u, _ in pairs],
            [v for _, v in pairs],
            num_nodes=base.num_nodes,
            name=base.name,
        )
        cold = PPREngine(rebuilt, alpha=0.2, seed=7)

        if tier == "thread":
            server = EngineServer(DynamicGraph(base), alpha=0.2, seed=7)
        else:
            server = ShardedDispatcher(
                DynamicGraph(base), workers=2, alpha=0.2, seed=7
            )
        with server:
            for start in range(0, len(updates), 8):
                server.apply_updates(updates[start:start + 8])
                # Read between bursts, so later snapshots are taken
                # with a warm per-version cache behind them.
                server.query(updates[start][1], "powerpush", **PARAMS)
            for source in (0, 1, 5, 19, updates[-1][1], updates[-1][2]):
                served = server.query(source, "powerpush", **PARAMS)
                assert served.version == len(updates)
                assert_same_bytes(
                    served, cold.query(source, "powerpush", **PARAMS)
                )

    def test_barrier_settles_when_a_shard_is_killed_mid_broadcast(
        self, base
    ):
        # Regression (PR 9): a worker dying between receiving the
        # update and acking it used to leave the barrier waiting on a
        # corpse until the update timeout.  The barrier must settle on
        # the survivors' version agreement instead.  SIGSTOP first so
        # the victim is guaranteed to be holding an unacked barrier
        # message when SIGKILL lands.
        updates = pick_updates(base)
        with ShardedDispatcher(
            DynamicGraph(base),
            workers=3,
            alpha=0.2,
            seed=7,
            max_restarts=0,
        ) as disp:
            disp.batch(list(range(6)), "powerpush", **PARAMS)
            victim = disp._states[0].process
            os.kill(victim.pid, signal.SIGSTOP)
            outcome: dict = {}
            done = threading.Event()

            def apply():
                try:
                    outcome["version"] = disp.apply_updates(updates)
                except BaseException as exc:  # noqa: BLE001 - recorded
                    outcome["error"] = exc
                finally:
                    done.set()

            thread = threading.Thread(target=apply, daemon=True)
            thread.start()
            time.sleep(0.3)  # broadcast sent; victim's ack wedged
            assert not done.is_set()
            os.kill(victim.pid, signal.SIGKILL)
            assert done.wait(20), "barrier hung on the dead shard"
            thread.join(timeout=5)
            assert outcome.get("version") == len(updates), outcome
            assert disp.graph_version == len(updates)
            # Survivors keep serving post-update answers.
            reference = PPREngine(DynamicGraph(base), alpha=0.2, seed=7)
            reference.apply_updates(updates)
            served = disp.query(1, "powerpush", **PARAMS)
            assert served.version == len(updates)
            expected = reference.query(1, "powerpush", **PARAMS)
            assert (
                served.result.estimate.tobytes()
                == expected.estimate.tobytes()
            )

    def test_barrier_ordering_under_concurrent_reads(self, base):
        updates = pick_updates(base)
        sources = (1, 2, 7)
        with ShardedDispatcher(
            DynamicGraph(base), workers=2, alpha=0.2, seed=7
        ) as disp:
            answers = []
            stop = threading.Event()

            def reader(source):
                while not stop.is_set():
                    served = disp.query(source, "powerpush", **PARAMS)
                    answers.append((source, served))

            threads = [
                threading.Thread(target=reader, args=(s,), daemon=True)
                for s in sources
            ]
            for t in threads:
                t.start()
            time.sleep(0.10)
            version = disp.apply_updates(updates)
            time.sleep(0.10)
            stop.set()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()

            # Every answer carries either the pre- or post-barrier
            # version — never a torn intermediate — and its bytes match
            # the single-process engine at exactly that version.
            pre = PPREngine(base, alpha=0.2, seed=7)
            post = PPREngine(DynamicGraph(base), alpha=0.2, seed=7)
            post.apply_updates(updates)
            expected = {}
            seen_versions = set()
            for source, served in answers:
                assert served.version in (0, version)
                seen_versions.add(served.version)
                key = (source, served.version)
                if key not in expected:
                    engine = pre if served.version == 0 else post
                    expected[key] = engine.query(
                        source, "powerpush", **PARAMS
                    ).estimate.tobytes()
                assert served.result.estimate.tobytes() == expected[key]
            assert version in seen_versions, "no reader saw the new version"


class TestFailingBatch:
    """A batch is validated where it is applied, in the dispatcher's
    own graph — whose version is the cluster's, whatever the outcome."""

    def test_valid_prefix_is_published_and_the_cluster_heals(
        self, base, wait_for
    ):
        batch = failing_batch(base)
        reference = PPREngine(DynamicGraph(base), alpha=0.2, seed=7)
        with pytest.raises(GraphConstructionError):
            reference.apply_updates(batch)
        policy = RestartPolicy(
            max_restarts=3, base_delay=0.01, jitter=0.0, seed=7
        )
        with ShardedDispatcher(
            DynamicGraph(base),
            workers=2,
            alpha=0.2,
            seed=7,
            restart_policy=policy,
        ) as disp:
            with pytest.raises(GraphConstructionError):
                disp.apply_updates(batch)
            assert disp.graph_version == 1
            sources = one_source_per_shard(disp, base)
            for source in sources:
                served = disp.query(source, "powerpush", **PARAMS)
                assert served.version == 1
                assert_same_bytes(
                    served, reference.query(source, "powerpush", **PARAMS)
                )

            more = [pick_updates(base)[1]]
            reference.apply_updates(more)
            assert disp.apply_updates(more) == 2

            os.kill(disp._states[0].process.pid, signal.SIGKILL)
            wait_for(
                lambda: disp.stats()["supervisor"]["respawns"] == 1,
                "the killed shard to respawn",
            )
            supervisor = disp.stats()["supervisor"]
            assert supervisor["removed"] == []
            assert supervisor["degraded_capacity"] is False
            for source in sources:
                served = disp.query(source, "powerpush", **PARAMS)
                assert served.version == 2
                assert served.worker == disp.route(source)
                assert_same_bytes(
                    served, reference.query(source, "powerpush", **PARAMS)
                )

    def test_invalid_first_update_changes_nothing(self, base):
        with ShardedDispatcher(
            DynamicGraph(base), workers=2, alpha=0.2, seed=7
        ) as disp:
            segments = our_shm_files()
            with pytest.raises(GraphConstructionError):
                disp.apply_updates(failing_batch(base)[::-1])
            assert disp.graph_version == 0
            assert our_shm_files() == segments
            assert disp.query(3, "powerpush", **PARAMS).version == 0


class TestGenerations:
    """Every update exports one new image generation and retires the
    one before: the cluster holds one, and so does every shard."""

    def test_one_generation_between_barriers(self, base):
        before, live_before = our_shm_files(), set(live_segments())
        rng = np.random.default_rng(3)
        scratch = DynamicGraph(base)
        with ShardedDispatcher(
            DynamicGraph(base), workers=2, alpha=0.2, seed=7
        ) as disp:
            seen = set()
            for _ in range(50):
                update = sample_edge_update(scratch, rng)
                scratch.apply_updates([update])
                disp.apply_updates([update])
                # One image, nothing else.
                ours = our_shm_files() - before
                assert ours == {disp.image.segment_name}
                assert set(live_segments()) - live_before == ours
                seen.add(disp.image.segment_name)
            assert len(seen) == 50
            assert disp.graph_version == 50
        assert our_shm_files() == before
        assert set(live_segments()) == live_before

    def test_a_shard_maps_one_generation(self, base, mapped_segments):
        # SharedGraphImage.close() swallows BufferError: a view left on an
        # old generation would keep it mapped, one more per update, and
        # nothing else would notice.  Nor may a forked shard keep what
        # its parent had mapped.
        rng = np.random.default_rng(3)
        scratch = DynamicGraph(base)
        with ShardedDispatcher(
            DynamicGraph(base), workers=2, alpha=0.2, seed=7
        ) as disp:
            for _ in range(50):
                update = sample_edge_update(scratch, rng)
                scratch.apply_updates([update])
                disp.apply_updates([update])
                disp.query(update[1], "powerpush", **PARAMS)
            for state in disp._states.values():
                assert mapped_segments(state.process.pid) == {
                    disp.image.segment_name
                }

    def test_failed_export_leaves_the_old_version_served(
        self, base, monkeypatch
    ):
        first, second = pick_updates(base)
        reference = PPREngine(DynamicGraph(base), alpha=0.2, seed=7)
        export = SharedGraphImage.export_graph
        failures = [OSError(28, "No space left on device")]

        def export_or_fail(graph):
            if failures:
                raise failures.pop()
            return export(graph)

        with ShardedDispatcher(
            DynamicGraph(base), workers=2, alpha=0.2, seed=7
        ) as disp:
            segments = our_shm_files()
            sources = one_source_per_shard(disp, base)
            monkeypatch.setattr(
                SharedGraphImage, "export_graph", export_or_fail
            )
            with pytest.raises(OSError, match="No space"):
                disp.apply_updates([first])
            # The one outcome that leaves the dispatcher's graph ahead
            # of the shards — until the next write.
            assert disp.graph_version == 0
            assert our_shm_files() == segments
            for source in sources:
                served = disp.query(source, "powerpush", **PARAMS)
                assert served.version == 0
                assert_same_bytes(
                    served, reference.query(source, "powerpush", **PARAMS)
                )

            reference.apply_updates([first, second])
            assert disp.apply_updates([second]) == 2
            assert disp.graph_version == 2
            assert len(our_shm_files()) == len(segments)
            for source in sources:
                served = disp.query(source, "powerpush", **PARAMS)
                assert served.version == 2
                assert_same_bytes(
                    served, reference.query(source, "powerpush", **PARAMS)
                )


class TestCrashRecovery:
    def test_killed_worker_reroutes_without_hangs(self, base):
        # max_restarts=0 opts out of supervision: this is the
        # capacity-only-shrinks regression path (a dead worker must be
        # removed and rerouted around, never hung on), kept alongside
        # the respawn tests in test_serving_supervisor.py.
        with ShardedDispatcher(
            base, workers=2, alpha=0.2, seed=7, max_restarts=0
        ) as disp:
            sources = list(range(24))
            disp.batch(sources, "powerpush", **PARAMS)  # all shards warm

            victim = 0
            os.kill(disp._states[victim].process.pid, signal.SIGKILL)

            # Every future must resolve — rerouted to the survivor, not
            # hung on the corpse (fresh: past the cache, which holds
            # all of these and would ask no shard at all).
            futures = [
                disp.submit(s, "powerpush", fresh=True, **PARAMS)
                for s in sources
            ]
            engine = PPREngine(base, alpha=0.2, seed=7)
            for source, future in zip(sources, futures):
                served = future.result(timeout=60)
                assert served.worker == 1
                expected = engine.query(source, "powerpush", **PARAMS)
                assert (
                    served.result.estimate.tobytes()
                    == expected.estimate.tobytes()
                )

            assert disp.num_workers == 1
            stats = disp.stats()
            assert stats["worker_failures"] == 1
            assert len(stats["per_worker"]) == 1
            # Budget 0 means the loss is permanent and reported as
            # degraded capacity, not retried into a crash loop.
            assert stats["supervisor"]["respawns"] == 0
            assert stats["supervisor"]["degraded_capacity"] is True
            assert stats["supervisor"]["removed"] == [0]


class TestTeardown:
    def test_close_idempotent_and_zero_leaked_segments(self, base):
        before, live_before = our_shm_files(), live_segments()
        disp = ShardedDispatcher(base, workers=2, alpha=0.2, seed=7)
        # The graph image, and nothing per shard.
        assert len(our_shm_files() - before) == 1
        assert our_shm_files() - before == set(live_segments()) - set(live_before)
        disp.query(0, "powerpush", **PARAMS)
        disp.close()
        disp.close()
        assert disp.closed
        assert our_shm_files() == before
        assert live_segments() == live_before

    def test_context_manager_exit_leaves_no_segments(self, base):
        before, live_before = our_shm_files(), live_segments()
        with ShardedDispatcher(base, workers=2, alpha=0.2, seed=7) as disp:
            disp.query(0, "powerpush", **PARAMS)
        assert our_shm_files() == before
        assert live_segments() == live_before
