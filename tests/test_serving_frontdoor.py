"""Tests for the async SLO-aware front door (:mod:`repro.serving.frontdoor`).

Contracts under test: answers through the front door are byte-identical
to the sync path (degraded answers to the sync answer of the *degraded*
request); deadlines fail fast with a typed error at every stage;
admission control sheds at the in-flight bound and degrades when the
p99 prediction blows the SLO (with periodic full-fidelity probes).
"""

import asyncio
import contextlib
import os
import signal
import sys
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from repro.api import PPREngine
from repro.core.result import PPRResult
from repro.errors import (
    DeadlineExceeded,
    NodeNotFoundError,
    ParameterError,
    ServerOverloadedError,
)
from repro.graph.build import paper_example_graph
from repro.graph.dynamic import DynamicGraph
from repro.serving import AsyncFrontDoor, EngineServer, ShardedDispatcher
from repro.serving import frontdoor as frontdoor_module
from repro.serving.flights import ServedResult, ServingTier


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def server():
    with EngineServer(paper_example_graph(), seed=3) as srv:
        yield srv


class SlowBackend:
    """A backend whose every answer takes ``delay`` seconds."""

    def __init__(self, delay: float) -> None:
        self.delay = delay

    def submit(
        self, source, method="powerpush", *, fresh=False, deadline=None,
        **params,
    ) -> Future:
        future: Future = Future()
        dummy = PPRResult(
            estimate=np.zeros(4),
            residue=None,
            source=int(source),
            alpha=0.2,
            method="dummy",
        )

        def fire() -> None:
            if future.set_running_or_notify_cancel():
                future.set_result(
                    ServedResult(
                        result=dummy, version=0, cache_hit=False,
                        deadline=deadline,
                    )
                )

        threading.Timer(self.delay, fire).start()
        return future

    def hit(self, *args, **kwargs) -> None:
        return None  # nothing is cached: every request is solved

    def try_submit(self, *args, **kwargs) -> Future:
        return self.submit(*args, **kwargs)

    def stats(self):
        return {}


class TestValidation:
    def test_rejects_bad_parameters(self, server):
        with pytest.raises(ParameterError):
            AsyncFrontDoor(server, slo_ms=0.0)
        with pytest.raises(ParameterError):
            AsyncFrontDoor(server, deadline_ms=-1.0)
        with pytest.raises(ParameterError):
            AsyncFrontDoor(server, max_inflight=0)
        nan = float("nan")
        for options in (
            {"slo_ms": nan},
            {"deadline_ms": nan},
            {"max_inflight": 2.5},
            {"max_inflight": True},
        ):
            with pytest.raises(ParameterError):
                AsyncFrontDoor(server, **options)
        door = AsyncFrontDoor(server)
        with pytest.raises(ParameterError):
            run(door.submit(0, deadline_ms=nan))

    @pytest.mark.parametrize(
        "call",
        [
            lambda server, door: AsyncFrontDoor(server, deadline_ms="x"),
            lambda server, door: AsyncFrontDoor(server, slo_ms="x"),
            lambda server, door: AsyncFrontDoor(server, degrade_params="x"),
            lambda server, door: run(door.submit(0, deadline_ms="x")),
            lambda server, door: server.submit(0, deadline="x"),
            lambda server, door: server.submit(0, deadline=float("nan")),
        ],
        ids=[
            "door-deadline_ms",
            "door-slo_ms",
            "door-degrade_params",
            "submit-deadline_ms",
            "tier-deadline",
            "tier-nan-deadline",
        ],
    )
    def test_time_parameters_raise_parameter_error_uncounted(
        self, server, call
    ):
        door = AsyncFrontDoor(server)
        with pytest.raises(ParameterError):
            call(server, door)
        assert door.snapshot()["submitted"] == 0
        stats = server.stats()
        assert (stats["requests"], stats["engine_queries"]) == (0, 0)
        assert stats["flights"] == {"led": 0, "joined": 0}


class TestByteIdentity:
    def test_answers_match_sync_path(self, server):
        door = AsyncFrontDoor(server)

        async def drive():
            return await asyncio.gather(
                *[
                    door.submit(s, "powerpush", l1_threshold=1e-8)
                    for s in range(5)
                ]
            )

        answers = run(drive())
        reference = PPREngine(paper_example_graph(), seed=3)
        for source, served in enumerate(answers):
            expected = reference.query(
                source, "powerpush", l1_threshold=1e-8
            )
            np.testing.assert_array_equal(
                served.result.estimate, expected.estimate
            )
            assert served.degraded is False


class TestDeadlines:
    def test_spent_budget_rejected_before_admission(self, server):
        door = AsyncFrontDoor(server, deadline_ms=1e-7)

        async def drive():
            await asyncio.sleep(0.01)
            with pytest.raises(DeadlineExceeded):
                # The per-call budget overrides the default; this one
                # cannot even cover the submit itself.
                await door.submit(0, deadline_ms=1e-7)

        run(drive())
        assert door.stats.deadline_rejected == 1
        assert door.stats.completed == 0

    def test_deadline_expiring_during_await_raises(self):
        door = AsyncFrontDoor(SlowBackend(0.5))
        began = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            run(door.submit(0, deadline_ms=50.0))
        assert time.monotonic() - began < 0.45  # failed at ~50ms, not 500
        assert door.stats.deadline_expired == 1
        assert door.inflight == 0

    def test_deadline_carried_on_the_answer(self, server):
        door = AsyncFrontDoor(server, deadline_ms=60_000.0)
        served = run(door.submit(0, "powerpush", l1_threshold=1e-8))
        assert served.deadline is not None


class TestShedding:
    def test_inflight_bound_sheds(self):
        door = AsyncFrontDoor(SlowBackend(0.3), max_inflight=1)

        async def drive():
            first = asyncio.ensure_future(door.submit(0))
            await asyncio.sleep(0.05)  # let the first occupy the slot
            with pytest.raises(ServerOverloadedError):
                await door.submit(1)
            return await first

        served = run(drive())
        assert served.result.source == 0
        assert door.stats.shed == 1
        assert door.stats.completed == 1


def _overloaded_door(server, **kwargs):
    """A door whose p99 predictor is live and guaranteed over the SLO:
    16 full-fidelity completions warm the estimator, and the SLO is
    set below any real solve latency."""
    door = AsyncFrontDoor(
        server,
        slo_ms=1e-3,
        degrade_params={"l1_threshold": 1e-3},
        **kwargs,
    )

    async def warm():
        # fresh=True keeps every warm-up a genuine solve (no result
        # cache, no coalescing), so each feeds the latency window.
        for s in range(16):
            await door.submit(s % 5, "powerpush",
                              fresh=True, l1_threshold=1e-7)

    run(warm())
    assert door.stats.degraded == 0  # predictor silent during warm-up
    return door


class TestDegradation:
    def test_overload_degrades_to_cheaper_params(self, server):
        door = _overloaded_door(server)
        served = run(door.submit(3, "powerpush", l1_threshold=1e-8))
        assert served.degraded is True
        # Byte-identical to the sync path for the degraded request.
        reference = PPREngine(paper_example_graph(), seed=3)
        expected = reference.query(3, "powerpush", l1_threshold=1e-3)
        np.testing.assert_array_equal(
            served.result.estimate, expected.estimate
        )

    def test_a_degraded_request_keeps_its_own_parameters(self, server):
        # Only the degrade keys are overridden: alpha=0.5 stays, so the
        # answer is a less precise alpha=0.5 vector, not another one.
        door = _overloaded_door(server)
        served = run(
            door.submit(3, "powerpush", alpha=0.5, l1_threshold=1e-8)
        )
        assert served.degraded is True
        expected = PPREngine(paper_example_graph(), seed=3).query(
            3, "powerpush", alpha=0.5, l1_threshold=1e-3
        )
        assert served.result.estimate.tobytes() == expected.estimate.tobytes()
        assert served.result.residue.tobytes() == expected.residue.tobytes()

    def test_a_method_without_the_degrade_keys_is_shed(self, server):
        # SpeedPPR takes no l1_threshold: it has no cheaper tier.
        door = _overloaded_door(server)
        with pytest.raises(ServerOverloadedError):
            run(door.submit(3, "speedppr", epsilon=0.5))
        snap = door.snapshot()
        assert (snap["shed"], snap["failed"], snap["degraded"]) == (1, 0, 0)

    def test_degraded_answer_is_keyed_on_its_method(self, server):
        # Two degraded requests for one source but different methods
        # must not share an answer: the backend cache keys the degraded
        # request on its full signature, not on the source alone.
        door = _overloaded_door(server)

        async def drive():
            first = await door.submit(3, "powerpush", l1_threshold=1e-8)
            second = await door.submit(3, "fifo-fwdpush", l1_threshold=1e-8)
            return first, second

        first, second = run(drive())
        assert first.degraded is True and second.degraded is True
        assert second.result.method == "FIFO-FwdPush"
        expected = PPREngine(paper_example_graph(), seed=3).query(
            3, "fifo-fwdpush", l1_threshold=1e-3
        )
        assert second.result.estimate.tobytes() == expected.estimate.tobytes()

    def test_degraded_repeat_is_a_backend_cache_hit(self, server):
        door = _overloaded_door(server)
        first = run(door.submit(3, "powerpush", l1_threshold=1e-8))
        hits = server.stats()["cache"]["hits"]
        again = run(door.submit(3, "powerpush", l1_threshold=1e-8))
        assert first.degraded is True and again.degraded is True
        assert first.cache_hit is False
        assert again.cache_hit is True
        assert server.stats()["cache"]["hits"] == hits + 1
        np.testing.assert_array_equal(
            first.result.estimate, again.result.estimate
        )

    def test_degraded_fresh_repeat_is_solved_again(self, server):
        door = _overloaded_door(server)
        run(door.submit(3, "powerpush", l1_threshold=1e-8))
        solves = server.engine.stats.queries
        again = run(
            door.submit(3, "powerpush", fresh=True, l1_threshold=1e-8)
        )
        assert again.degraded is True
        assert again.cache_hit is False
        assert server.engine.stats.queries == solves + 1

    def test_update_invalidates_a_degraded_answer(self):
        with EngineServer(
            DynamicGraph(paper_example_graph()), seed=3
        ) as server:
            door = _overloaded_door(server)
            first = run(door.submit(3, "powerpush", l1_threshold=1e-8))

            async def bump_and_resubmit():
                version = await door.apply_updates([("+", 0, 4)])
                served = await door.submit(
                    3, "powerpush", l1_threshold=1e-8
                )
                return version, served

            version, served = run(bump_and_resubmit())
        # Recomputed at the new version, not served from the old one.
        assert served.degraded is True
        assert served.version == version > first.version
        assert served.cache_hit is False

    def test_periodic_probe_keeps_the_predictor_live(self, server):
        door = _overloaded_door(server)

        async def flood():
            for s in range(16):
                await door.submit(s % 5, "powerpush", l1_threshold=1e-8)

        run(flood())
        # Every ~16th overloaded request runs full fidelity so the
        # estimator can observe recovery.
        assert door.stats.probes >= 1
        assert door.stats.degraded >= 10

    def test_no_degraded_tier_sheds_instead(self, server):
        door = AsyncFrontDoor(server, slo_ms=1e-3)

        async def warm_then_overflow():
            for s in range(16):
                await door.submit(s % 5, "powerpush",
                                  fresh=True, l1_threshold=1e-7)
            with pytest.raises(ServerOverloadedError):
                await door.submit(0, "powerpush", l1_threshold=1e-8)

        run(warm_then_overflow())
        assert door.stats.shed == 1


class TestSnapshot:
    def test_snapshot_reports_counters(self, server):
        door = AsyncFrontDoor(server)
        run(door.submit(0, "powerpush", l1_threshold=1e-8))
        snap = door.snapshot()
        assert snap["completed"] == 1
        assert snap["inflight"] == 0
        assert door.backend.stats()["requests"] >= 1


class TestPredictor:
    def test_p99_is_computed_at_most_once_per_completion(
        self, server, monkeypatch
    ):
        door = AsyncFrontDoor(
            server, slo_ms=1000.0, degrade_params={"l1_threshold": 1e-3}
        )
        completed_at_call = []
        p99 = frontdoor_module._p99

        def counting(ordered):
            # runs under the door's mutex, inside ``_admit``
            completed_at_call.append(door.stats.completed)
            return p99(ordered)

        monkeypatch.setattr(frontdoor_module, "_p99", counting)
        looked_up = []
        get_solver = frontdoor_module.get_solver

        def counting_lookup(method):
            looked_up.append(method)
            return get_solver(method)

        monkeypatch.setattr(frontdoor_module, "get_solver", counting_lookup)

        async def drive():
            for _ in range(4):
                await asyncio.gather(
                    *(
                        door.submit(
                            s, "powerpush", fresh=True, l1_threshold=1e-7
                        )
                        for s in range(5)
                        for _ in range(4)
                    )
                )

        run(drive())
        snap = door.snapshot()
        assert snap["completed"] == 80 and snap["degraded"] == 0
        assert snap["predicted_p99_ms"] > 0.0
        # A wave's 20 admissions all precede its completions: the first
        # wave has too few samples to predict from, each later one
        # computes once from the window the wave before left.
        assert completed_at_call == [20, 40, 60]
        assert len(completed_at_call) <= snap["completed"]
        # the registry is asked about a method once
        assert looked_up == ["powerpush"]


    @pytest.mark.parametrize("size", [2, 3, 16, 17, 50, 100, 101, 127, 128])
    def test_p99_is_numpys_percentile_bit_for_bit(self, size):
        rng = np.random.default_rng(size)
        for _ in range(50):
            window = rng.lognormal(-5.0, 1.5, size)
            window[rng.random(size) < 0.2] = window[0]  # ties
            got = frontdoor_module._p99(sorted(window.tolist()))
            expected = np.percentile(window, 99)
            assert np.float64(got).tobytes() == expected.tobytes()

    def test_the_sliding_window_predicts_what_np_percentile_did(self, server):
        """Settle more latencies than the window holds, admitting after
        each: the prediction has the bits the door used to compute from
        ``np.percentile``, so every admission decides as it did."""
        door = AsyncFrontDoor(server, slo_ms=5.0)
        rng = np.random.default_rng(3)
        for latency in rng.lognormal(-6.0, 1.0, 400).tolist():
            assert door._admit(degradable=True) in ("full", "degrade")
            door._settle("completed", latency, degraded=False)
            window = np.asarray(door._latencies)
            assert door._ordered_latencies == sorted(door._latencies)
            predicted = door._predicted_p99_ms_locked()
            if window.shape[0] >= 16:
                expected = np.percentile(window, 99) * 1e3
                assert np.float64(predicted).tobytes() == expected.tobytes()
        assert len(door._latencies) == 128

    def test_a_run_of_hits_calls_no_percentile(self, server, monkeypatch):
        door = AsyncFrontDoor(server, slo_ms=1000.0)

        def refuse(*args, **kwargs):
            raise AssertionError("np.percentile called")

        monkeypatch.setattr(np, "percentile", refuse)

        async def hits():
            for _ in range(200):
                await door.submit(0, "powerpush", l1_threshold=1e-8)

        run(hits())
        assert door.stats.completed == 200
        assert door.snapshot()["predicted_p99_ms"] > 0.0


class CountingExecutor(ThreadPoolExecutor):
    """A default executor that counts the jobs the loop hands it."""

    def __init__(self) -> None:
        super().__init__(max_workers=2)
        self.calls = 0

    def submit(self, fn, /, *args, **kwargs):
        self.calls += 1
        return super().submit(fn, *args, **kwargs)


@pytest.fixture(params=["thread", "sharded"])
def tier(request):
    """Each serving tier over one small dynamic graph."""
    graph = DynamicGraph(paper_example_graph())
    if request.param == "thread":
        backend = EngineServer(graph, seed=3)
    else:
        backend = ShardedDispatcher(graph, workers=1, seed=3)
    with backend:
        yield backend


def _stall_next_update(monkeypatch, backend, writer_in, release):
    """Make the backend's next ``apply_updates`` wait on ``release``
    while it holds ``_rwlock.write()``."""
    if isinstance(backend, EngineServer):
        owner, name = backend.engine, "apply_updates"
    else:
        owner, name = backend, "_hand_over"  # the sharded write section
    inner = getattr(owner, name)

    def stalled(*args, **kwargs):
        writer_in.set()
        release.wait(10.0)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, stalled)


@contextlib.contextmanager
def _held(monkeypatch, backend):
    """Hold every solve the backend starts until the block exits: the
    server's engine waits inside ``query``, the shard is SIGSTOPped."""
    if isinstance(backend, EngineServer):
        release = threading.Event()
        solve = backend.engine.query

        def waiting(*args, **kwargs):
            release.wait(10.0)
            return solve(*args, **kwargs)

        monkeypatch.setattr(backend.engine, "query", waiting)
        try:
            yield
        finally:
            release.set()
    else:
        pid = backend._states[0].process.pid
        os.kill(pid, signal.SIGSTOP)
        try:
            yield
        finally:
            os.kill(pid, signal.SIGCONT)


class TestRouting:
    def test_hit_and_miss_stay_on_the_loop(self, tier):
        door = AsyncFrontDoor(tier)
        executor = CountingExecutor()

        async def drive():
            asyncio.get_running_loop().set_default_executor(executor)
            miss = await door.submit(0, "powerpush", l1_threshold=1e-8)
            hit = await door.submit(0, "powerpush", l1_threshold=1e-8)
            return miss, hit

        miss, hit = run(drive())
        assert (miss.cache_hit, hit.cache_hit) == (False, True)
        assert executor.calls == 0
        assert door.snapshot()["writer_waits"] == 0

    def test_submit_behind_a_writer_takes_the_executor(
        self, tier, monkeypatch
    ):
        door = AsyncFrontDoor(tier)
        first = run(door.submit(0, "powerpush", l1_threshold=1e-8))
        writer_in, release = threading.Event(), threading.Event()
        _stall_next_update(monkeypatch, tier, writer_in, release)
        writer = threading.Thread(
            target=tier.apply_updates, args=([("+", 0, 4)],)
        )
        executor = CountingExecutor()
        ticks = 0

        async def ticker():
            nonlocal ticks
            while True:
                ticks += 1
                await asyncio.sleep(0.001)

        async def drive():
            asyncio.get_running_loop().set_default_executor(executor)
            writer.start()
            while not writer_in.is_set():
                await asyncio.sleep(0.001)
            assert tier._rwlock._writer_active
            ticking = asyncio.ensure_future(ticker())
            request = asyncio.ensure_future(
                door.submit(0, "powerpush", l1_threshold=1e-8)
            )
            await asyncio.sleep(0.1)
            # the request waits on the lock in the executor, and the
            # loop keeps running meanwhile
            assert not request.done()
            assert executor.calls == 1
            ticked = ticks
            release.set()
            served = await request
            ticking.cancel()
            return served, ticked

        served, ticked = run(drive())
        writer.join(10.0)
        assert not writer.is_alive()
        assert ticked >= 3  # a loop blocked on the lock would tick once
        assert executor.calls == 1
        assert door.snapshot()["writer_waits"] == 1
        # answered at the post-update version, not from the old cache
        assert served.version == first.version + 1 == tier.graph_version
        assert served.cache_hit is False


class TestHitPath:
    """A hit is one cache lookup: no future, one counted hit."""

    def test_door_hits_build_no_future(self, tier, monkeypatch):
        door = AsyncFrontDoor(tier)
        run(door.submit(0, "powerpush", l1_threshold=1e-8))
        # the module whose admit body builds every future a tier hands out
        module = sys.modules[ServingTier.__module__]
        built = []

        class CountingFuture(Future):
            def __init__(self) -> None:
                super().__init__()
                built.append(self)

        monkeypatch.setattr(module, "Future", CountingFuture)

        async def drive():
            return [
                await door.submit(0, "powerpush", l1_threshold=1e-8)
                for _ in range(100)
            ]

        answers = run(drive())
        assert all(served.cache_hit for served in answers)
        assert len(built) == 0
        # the patch is watching: a miss builds its one future
        run(door.submit(1, "powerpush", l1_threshold=1e-8))
        assert len(built) == 1

    def test_cache_counts_each_request_once(self, tier):
        door = AsyncFrontDoor(tier)

        async def drive():
            for source in range(5):  # five misses
                await door.submit(source, "powerpush", l1_threshold=1e-8)
            for _ in range(2):  # ten hits
                for source in range(5):
                    await door.submit(source, "powerpush", l1_threshold=1e-8)
            # no key, so no lookup
            await door.submit(0, "powerpush", fresh=True, l1_threshold=1e-8)

        run(drive())
        cache = tier.stats()["cache"]
        assert (cache["hits"], cache["misses"]) == (10, 5)

    def test_submit_wraps_a_hit_in_a_done_future(self, tier):
        miss = tier.query(0, "powerpush", l1_threshold=1e-8)
        future = tier.submit(0, "powerpush", l1_threshold=1e-8)
        assert isinstance(future, Future) and future.done()
        served = future.result(timeout=0)
        assert served.cache_hit is True and served.worker is None
        assert served.result is miss.result
        # try_submit hands the hit over as it is
        direct = tier.try_submit(0, "powerpush", l1_threshold=1e-8)
        assert isinstance(direct, ServedResult) and direct.cache_hit
        assert direct.result is miss.result


    def test_door_hits_build_no_served_result(self, tier, monkeypatch):
        door = AsyncFrontDoor(tier)
        run(door.submit(0, "powerpush", l1_threshold=1e-8))
        built = []

        class CountingServedResult(ServedResult):
            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, **kwargs)
                built.append(self)

        # the module whose flight table builds every hit's answer
        module = sys.modules[ServingTier.__module__]
        monkeypatch.setattr(module, "ServedResult", CountingServedResult)

        async def hits(count, **options):
            return [
                await door.submit(0, "powerpush", l1_threshold=1e-8, **options)
                for _ in range(count)
            ]

        answers = run(hits(100))
        assert answers[0].cache_hit and answers[0].deadline is None
        assert all(served is answers[0] for served in answers)
        assert built == []
        # a deadline is the request's own: it gets an answer of its own
        (timed,) = run(hits(1, deadline_ms=60_000.0))
        assert built == [timed]
        assert timed.cache_hit and timed.deadline is not None
        assert timed.result is answers[0].result
        assert timed.version == answers[0].version
        # an update drops the entry and its answer together; the
        # landing solve builds the next one
        version = tier.apply_updates([("+", 0, 4)])
        miss, *again = run(hits(3))
        assert not miss.cache_hit and miss.version == version
        assert built[1:] == [again[0]] and again[1] is again[0]
        assert again[0].cache_hit and again[0].version == version
        assert again[0] is not answers[0]
        assert again[0].result is miss.result

    def test_a_degraded_hit_is_a_copy_marked_degraded(self, tier):
        door = _overloaded_door(tier)
        first = run(door.submit(3, "powerpush", l1_threshold=1e-8))
        again = run(door.submit(3, "powerpush", l1_threshold=1e-8))
        shared = tier.try_submit(3, "powerpush", l1_threshold=1e-3)
        assert isinstance(shared, ServedResult)
        assert shared.cache_hit and not shared.degraded
        assert first.degraded and not first.cache_hit
        assert again.degraded and again.cache_hit
        assert again == replace(shared, degraded=True)
        assert again is not shared and again.result is shared.result

    def test_a_hit_awaits_nothing(self, tier, monkeypatch):
        door = AsyncFrontDoor(tier)
        miss = run(door.submit(0, "powerpush", l1_threshold=1e-8))

        def refuse(*args, **kwargs):
            raise AssertionError("a hit went past try_submit")

        monkeypatch.setattr(AsyncFrontDoor, "_await_backend", refuse)
        monkeypatch.setattr(asyncio, "get_running_loop", refuse)
        served = run(door.submit(0, "powerpush", l1_threshold=1e-8))
        assert served.cache_hit and served.result is miss.result
        snap = door.snapshot()
        assert (snap["completed"], snap["failed"]) == (2, 0)

    def test_a_join_a_miss_and_a_writer_wait_are_awaited(
        self, tier, monkeypatch
    ):
        door = AsyncFrontDoor(tier)
        awaited, loops = [], []
        await_backend = AsyncFrontDoor._await_backend
        get_running_loop = asyncio.get_running_loop

        async def counting_await(self, answer, *args, **kwargs):
            awaited.append(answer)
            return await await_backend(self, answer, *args, **kwargs)

        def counting_loop():
            loops.append(1)
            return get_running_loop()

        monkeypatch.setattr(AsyncFrontDoor, "_await_backend", counting_await)
        monkeypatch.setattr(asyncio, "get_running_loop", counting_loop)

        miss = run(door.submit(0, "powerpush", l1_threshold=1e-8))
        assert not miss.cache_hit
        assert len(awaited) == 1 and isinstance(awaited[0], Future)

        async def lead_and_join():
            with _held(monkeypatch, tier):
                submits = [
                    asyncio.ensure_future(
                        door.submit(1, "powerpush", l1_threshold=1e-8)
                    )
                    for _ in range(2)
                ]
                await asyncio.sleep(0.05)
                assert not any(task.done() for task in submits)
            return await asyncio.gather(*submits)

        leader, joiner = run(lead_and_join())
        assert joiner is leader and not leader.cache_hit
        assert tier.stats()["flights"]["joined"] == 1
        assert len(awaited) == 3 and all(
            isinstance(answer, Future) for answer in awaited
        )

        writer_in, release = threading.Event(), threading.Event()
        _stall_next_update(monkeypatch, tier, writer_in, release)
        writer = threading.Thread(
            target=tier.apply_updates, args=([("+", 0, 4)],)
        )

        async def behind_a_writer():
            writer.start()
            while not writer_in.is_set():
                await asyncio.sleep(0.001)
            request = asyncio.ensure_future(
                door.submit(0, "powerpush", l1_threshold=1e-8)
            )
            await asyncio.sleep(0.05)
            release.set()
            return await request

        served = run(behind_a_writer())
        writer.join(10.0)
        assert not writer.is_alive()
        assert awaited[3:] == [None]
        assert door.snapshot()["writer_waits"] == 1
        assert served.version == tier.graph_version == miss.version + 1
        # the one loop lookup is each awaited request's
        assert len(loops) == len(awaited) == 4


class TestHitBeforeAdmission:
    """The door answers a hit before admission, one lock deep."""

    def test_a_door_hit_takes_no_read_share(self, tier, monkeypatch):
        door = AsyncFrontDoor(tier)
        miss = run(door.submit(0, "powerpush", l1_threshold=1e-8))
        lock = tier._rwlock

        def refuse(*args, **kwargs):
            raise AssertionError("a hit called the readers-writer lock")

        for name in dir(lock):
            if "acquire" in name:
                monkeypatch.setattr(lock, name, refuse)
        hits = [
            run(door.submit(0, "powerpush", l1_threshold=1e-8))
            for _ in range(3)
        ]
        assert all(h.cache_hit and h.result is miss.result for h in hits)
        assert door.snapshot()["completed"] == 4

    def test_a_hit_counts_once_without_admission(self, tier, monkeypatch):
        door = AsyncFrontDoor(tier, slo_ms=1000.0)
        run(door.submit(0, "powerpush", l1_threshold=1e-8))

        def refuse(*args, **kwargs):
            raise AssertionError("a hit went through admission")

        monkeypatch.setattr(door, "_admit", refuse)
        monkeypatch.setattr(door, "_settle", refuse)
        for _ in range(5):
            served = run(door.submit(0, "powerpush", l1_threshold=1e-8))
            assert served.cache_hit
        snap = door.snapshot()
        assert snap["inflight"] == 0
        assert snap["submitted"] == 6 == snap["completed"] == (
            snap["completed"]
            + snap["shed"]
            + snap["deadline_rejected"]
            + snap["deadline_expired"]
            + snap["failed"]
        )
        # each hit fed the window and left a prediction
        assert len(door._latencies) == 6
        assert snap["predicted_p99_ms"] == 0.0  # < 16 samples: no vote

    def test_an_overloaded_door_serves_a_cached_answer_undegraded(
        self, tier
    ):
        cached = tier.query(3, "powerpush", l1_threshold=1e-8)
        door = _overloaded_door(tier)
        served = run(door.submit(3, "powerpush", l1_threshold=1e-8))
        assert served.cache_hit and not served.degraded
        assert served.result is cached.result
        # an uncached source still degrades
        other = run(door.submit(4, "powerpush", l1_threshold=1e-8))
        assert other.degraded and not other.cache_hit
        snap = door.snapshot()
        assert (snap["degraded"], snap["shed"]) == (1, 0)

    def test_a_full_door_still_serves_a_hit(self, tier, monkeypatch):
        cached = tier.query(0, "powerpush", l1_threshold=1e-8)
        door = AsyncFrontDoor(tier, max_inflight=1)

        async def drive():
            with _held(monkeypatch, tier):
                miss = asyncio.ensure_future(
                    door.submit(1, "powerpush", l1_threshold=1e-8)
                )
                await asyncio.sleep(0.05)
                assert door.inflight == 1
                with pytest.raises(ServerOverloadedError):
                    await door.submit(2, "powerpush", l1_threshold=1e-8)
                hit = await door.submit(0, "powerpush", l1_threshold=1e-8)
            return hit, await miss

        hit, miss = run(drive())
        assert hit.cache_hit and hit.result is cached.result
        assert not miss.cache_hit
        snap = door.snapshot()
        assert (snap["completed"], snap["shed"], snap["inflight"]) == (2, 1, 0)


class TestReadSide:
    """What both tiers' one admit body refuses."""

    def test_submit_after_close_raises_even_on_cache_hit(self, tier):
        tier.query(0, "powerpush", l1_threshold=1e-8)  # entry is now cached
        tier.close()
        with pytest.raises(RuntimeError, match="closed"):
            tier.submit(0, "powerpush", l1_threshold=1e-8)
        with pytest.raises(RuntimeError, match="closed"):
            tier.try_submit(0, "powerpush", l1_threshold=1e-8)

    def test_a_source_must_be_an_integer(self, tier):
        assert tier.query(np.int64(2), "powerpush").result.source == 2
        for source in (2.7, np.float64(4.5), True, "3"):
            with pytest.raises(ParameterError, match="integer"):
                tier.submit(source, "powerpush")


class TestAccounting:
    """The door counts every request's fate once, on both tiers."""

    def test_every_submit_ends_in_exactly_one_counter(self, tier):
        door = _overloaded_door(tier)  # 16 served requests
        outcomes = []

        async def submit(*args, **kwargs):
            try:
                served = await door.submit(*args, **kwargs)
            except Exception as exc:  # noqa: BLE001 - recorded
                outcomes.append(type(exc))
            else:
                outcomes.append(served.degraded)

        async def drive():
            await submit(3, "powerpush", l1_threshold=1e-8)  # degraded
            await submit(3, "speedppr", epsilon=0.5)  # shed
            await submit(3, "powerpush", deadline_ms=0.0)  # no budget
            await submit(3, "powerpush", num_walk=3)  # unknown parameter
            await submit(99, "powerpush")  # out-of-range source

        run(drive())
        assert outcomes == [
            True,
            ServerOverloadedError,
            DeadlineExceeded,
            ParameterError,
            NodeNotFoundError,
        ]
        snap = door.snapshot()
        assert snap["inflight"] == 0
        assert snap["submitted"] == 21 == (
            snap["completed"]
            + snap["shed"]
            + snap["deadline_rejected"]
            + snap["deadline_expired"]
            + snap["failed"]
        )
        assert (snap["completed"], snap["shed"], snap["failed"]) == (17, 1, 2)
        assert snap["deadline_rejected"] == 1 and snap["deadline_expired"] == 0
        # The two failures were degraded first; only completions count.
        assert snap["degraded"] == 1 <= snap["completed"]
