"""Flight semantics, run against both serving tiers.

:class:`~repro.serving.server.EngineServer` and
:class:`~repro.serving.sharded.ShardedDispatcher` answer through one
cache + single-flight module (:mod:`repro.serving.flights`), so one
set of tests holds for both.  A tier's solver can be *held* — the
server's engine blocks inside ``query``, the shard process is
SIGSTOPped — which keeps a flight open while the test submits around
it.
"""

import contextlib
import os
import signal
import sys
import threading
import time
from concurrent.futures import CancelledError

import numpy as np
import pytest

from repro.api import PPREngine
from repro.errors import ParameterError
from repro.generators.rmat import rmat_digraph
from repro.graph.dynamic import DynamicGraph
from repro.serving import EngineServer, ShardedDispatcher

PARAMS = {"l1_threshold": 1e-6}


@pytest.fixture(scope="module")
def base():
    return rmat_digraph(8, 1500, rng=np.random.default_rng(23), name="flights")


class ThreadTier:
    """An :class:`EngineServer` whose engine can be held mid-``query``."""

    def __init__(self, graph, **options):
        self.server = EngineServer(graph, alpha=0.2, seed=7, **options)
        self._open = threading.Event()
        self._open.set()
        self._calls = 0
        solve = self.server.engine.query

        def query(*args, **kwargs):
            self._calls += 1
            self._open.wait(60)
            return solve(*args, **kwargs)

        self.server.engine.query = query

    @contextlib.contextmanager
    def held(self):
        self._open.clear()
        try:
            yield
        finally:
            self._open.set()

    def calls(self):
        """Solves attempted, failed ones included."""
        return self._calls

    def solving(self):
        return self._calls > 0

    def update_started(self):
        return self.server._rwlock._writers_waiting > 0


class ShardedTier:
    """A one-shard :class:`ShardedDispatcher`, held by SIGSTOP."""

    def __init__(self, graph, **options):
        self.server = ShardedDispatcher(
            graph, workers=1, alpha=0.2, seed=7, **options
        )

    @contextlib.contextmanager
    def held(self):
        pid = self.server._states[0].process.pid
        os.kill(pid, signal.SIGSTOP)
        try:
            yield
        finally:
            os.kill(pid, signal.SIGCONT)

    def calls(self):
        """Solves attempted, failed ones included."""
        (shard,) = self.server.stats()["per_worker"].values()
        return shard["requests"]

    def solving(self):
        return True  # sent to the shard at submit

    def update_started(self):
        return self.server.graph_version > 0


@pytest.fixture(params=["thread", "sharded"])
def make_tier(request, base):
    """``make_tier(**options)``: the tier under test over a fresh
    dynamic copy of ``base``, closed at teardown."""
    tiers = []

    def make(**options):
        kind = ThreadTier if request.param == "thread" else ShardedTier
        tiers.append(kind(DynamicGraph(base), **options))
        return tiers[-1]

    yield make
    for tier in tiers:
        tier.server.close()


def assert_same_bytes(served, expected):
    assert served.result.estimate.tobytes() == expected.estimate.tobytes()
    assert served.result.residue.tobytes() == expected.residue.tobytes()


def test_identical_concurrent_requests_cost_one_solve(make_tier, base):
    tier = make_tier()
    with tier.held():
        futures = [
            tier.server.submit(5, "powerpush", **PARAMS) for _ in range(5)
        ]
    answers = [future.result(timeout=60) for future in futures]
    assert all(served is answers[0] for served in answers)
    assert not answers[0].cache_hit
    assert_same_bytes(
        answers[0],
        PPREngine(base, alpha=0.2, seed=7).query(5, "powerpush", **PARAMS),
    )
    assert tier.calls() == 1
    assert tier.server.stats()["flights"] == {"led": 1, "joined": 4}
    assert tier.server.query(5, "powerpush", **PARAMS).cache_hit


def test_a_joiner_with_a_later_deadline_flies_alone(make_tier):
    tier = make_tier()
    now = time.monotonic()

    def submit(deadline):
        return tier.server.submit(5, "powerpush", deadline=deadline, **PARAMS)

    with tier.held():
        leader = submit(now + 60)
        sooner = submit(now + 30)  # the flight outlasts it: joins
        # A flight is dropped once its leader's deadline has passed;
        # these two could still be waiting then.
        later = submit(now + 90)
        unbounded = submit(None)
    first = leader.result(timeout=60)
    assert sooner.result(timeout=60) is first
    assert first.deadline == now + 60
    for future in (later, unbounded):
        served = future.result(timeout=60)
        assert served is not first
        assert served.result.estimate.tobytes() == first.result.estimate.tobytes()
    assert unbounded.result(timeout=0).deadline is None
    assert tier.calls() == 3
    assert tier.server.stats()["flights"] == {"led": 3, "joined": 1}


def test_a_cancelled_joiner_does_not_cancel_the_flight(make_tier):
    tier = make_tier()
    with tier.held():
        leader, joiner, last = (
            tier.server.submit(5, "powerpush", **PARAMS) for _ in range(3)
        )
        # Neither the first caller nor a joiner owns the flight.
        assert joiner.cancel() and leader.cancel()
    assert not last.result(timeout=60).cache_hit
    for future in (leader, joiner):
        with pytest.raises(CancelledError):
            future.result(timeout=0)
    # The solve they walked away from still fills the cache.
    assert tier.server.query(5, "powerpush", **PARAMS).cache_hit
    assert tier.calls() == 1


def test_a_failing_leader_fails_every_joiner(make_tier):
    bad = {"l1_threshold": -1.0}  # passes the schema, fails in the solver
    tier = make_tier()
    with tier.held():
        futures = [tier.server.submit(5, "powerpush", **bad) for _ in range(3)]
    errors = [future.exception(timeout=60) for future in futures]
    assert isinstance(errors[0], ParameterError)
    assert errors[1] is errors[0] and errors[2] is errors[0]
    assert tier.calls() == 1
    # Nothing of it is remembered: asking again asks the solver.
    with pytest.raises(ParameterError, match="l1_threshold"):
        tier.server.query(5, "powerpush", **bad)
    assert tier.calls() == 2
    assert tier.server.stats()["cache"]["insertions"] == 0


def test_an_update_mid_flight_is_delivered_not_cached_stale(
    make_tier, base, wait_for
):
    update = ("add", 1, next(v for v in range(2, 99) if not base.has_edge(1, v)))
    before = PPREngine(base, alpha=0.2, seed=7)
    after_graph = DynamicGraph(base)
    after_graph.apply_updates([update])
    after = PPREngine(after_graph, alpha=0.2, seed=7)
    tier = make_tier()
    with tier.held():
        early = tier.server.submit(1, "powerpush", **PARAMS)
        wait_for(tier.solving, "the solve to start")
        writer = threading.Thread(
            target=tier.server.apply_updates, args=([update],), daemon=True
        )
        writer.start()
        wait_for(tier.update_started, "the update to start")
    served = early.result(timeout=60)
    writer.join(timeout=60)
    assert not writer.is_alive()
    # The reader gets the pre-update answer it asked for ...
    assert served.version == 0
    assert_same_bytes(served, before.query(1, "powerpush", **PARAMS))
    # ... and nobody after the update gets it from the cache.
    again = tier.server.query(1, "powerpush", **PARAMS)
    assert not again.cache_hit and again.version == 1
    assert_same_bytes(again, after.query(1, "powerpush", **PARAMS))
    assert tier.server.query(1, "powerpush", **PARAMS).cache_hit


def test_cache_capacity_zero_still_dedupes(make_tier):
    tier = make_tier(cache_capacity=0)
    with tier.held():
        futures = [
            tier.server.submit(5, "powerpush", **PARAMS) for _ in range(3)
        ]
    first = futures[0].result(timeout=60)
    assert all(future.result(timeout=60) is first for future in futures)
    assert not tier.server.query(5, "powerpush", **PARAMS).cache_hit
    stats = tier.server.stats()
    assert stats["cache"] == {}
    assert stats["flights"] == {"led": 2, "joined": 2}
    assert tier.calls() == 2


def test_fresh_bypasses_cache_and_flight(make_tier):
    tier = make_tier()
    warm = tier.server.query(5, "powerpush", **PARAMS)
    with tier.held():
        futures = [
            tier.server.submit(5, "powerpush", fresh=True, **PARAMS)
            for _ in range(2)
        ]
    for future in futures:
        served = future.result(timeout=60)
        assert not served.cache_hit and served.result is not warm.result
        assert served.result.estimate.tobytes() == warm.result.estimate.tobytes()
    assert tier.calls() == 3
    stats = tier.server.stats()
    assert stats["flights"] == {"led": 3, "joined": 0}
    assert stats["cache"]["insertions"] == 1  # the warm-up's
    assert stats["cache"]["hits"] == 0


def test_contended_reads_and_updates(make_tier, base):
    # More client threads than cores asking for four sources while a
    # writer moves the version under them: cache lookup, flight join,
    # landing and invalidation all race.  Every read must be exactly
    # one of hit, join or lead, every lead exactly one solve, and every
    # answer the serial bytes at the version it carries.
    sources = (1, 2, 7, 19)
    updates = [
        ("add", u, next(v for v in range(3, 99) if not base.has_edge(u, v)))
        for u in (1, 2)
    ]
    reference = PPREngine(DynamicGraph(base), alpha=0.2, seed=7)
    expected = {}
    for version in range(len(updates) + 1):
        if version:
            reference.apply_updates(updates[version - 1:version])
        for source in sources:
            expected[source, version] = reference.query(
                source, "powerpush", **PARAMS
            )
    tier = make_tier()
    clients, rounds = 8, 30
    answers, failures = [], []

    def client(offset):
        try:
            for i in range(rounds):
                source = sources[(offset + i) % len(sources)]
                answers.append(
                    (source, tier.server.query(source, "powerpush", timeout=60, **PARAMS))
                )
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            failures.append(exc)

    def writer():
        try:
            for update in updates:
                time.sleep(0.02)
                tier.server.apply_updates([update])
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=client, args=(k,), daemon=True)
            for k in range(clients)
        ] + [threading.Thread(target=writer, daemon=True)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not failures, failures[0]
    assert len(answers) == clients * rounds
    for source, served in answers:
        assert_same_bytes(served, expected[source, served.version])
    stats = tier.server.stats()
    flights = stats["flights"]
    assert stats["cache"]["hits"] + flights["led"] + flights["joined"] == clients * rounds
    assert tier.calls() == flights["led"]
    assert not tier.server._flight_table
    assert tier.server.graph_version == len(updates)
