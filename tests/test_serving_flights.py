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
import inspect
import os
import signal
import sys
import threading
import time
from concurrent.futures import CancelledError

import numpy as np
import pytest

from repro.api import PPREngine
from repro.errors import ParameterError, UnknownMethodError
from repro.generators.rmat import rmat_digraph
from repro.graph.dynamic import DynamicGraph
from repro.serving import EngineServer, ShardedDispatcher, flights
from repro.serving.cache import _resolve_shape
from repro.serving.flights import FlightTable

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
    # Turning off memoisation must not turn off flights: a request
    # identical to one being solved still costs no second solve.
    tier = make_tier(cache_capacity=0)
    assert tier.server.cache is None
    with tier.held():
        futures = [
            tier.server.submit(5, "powerpush", **PARAMS) for _ in range(3)
        ]
        assert tier.server._flight_table.stats() == {"led": 1, "joined": 2}
    first = futures[0].result(timeout=60)
    assert all(future.result(timeout=60) is first for future in futures)
    assert tier.calls() == 1
    assert not tier.server.query(5, "powerpush", **PARAMS).cache_hit
    stats = tier.server.stats()
    assert stats["cache"] == {}
    assert stats["flights"] == {"led": 2, "joined": 2}
    assert tier.calls() == 2


@pytest.mark.parametrize("owner", [FlightTable, EngineServer, ShardedDispatcher])
def test_cache_capacity_is_the_only_cache_setting(owner):
    # An entry leaves when its version goes stale or LRU evicts it;
    # there is no time-to-live to pass through.
    names = inspect.signature(owner).parameters
    assert [name for name in names if name.startswith("cache")] == [
        "cache_capacity"
    ]
    assert not [name for name in names if "ttl" in name or "clock" in name]


def test_fresh_bypasses_cache_and_flight(make_tier, base):
    tier = make_tier()
    warm = tier.server.query(5, "powerpush", **PARAMS)
    with tier.held():
        futures = [
            tier.server.submit(5, "powerpush", fresh=True, **PARAMS)
            for _ in range(2)
        ]
        # each led a flight of its own, and neither is open to joiners
        assert tier.server._flight_table.stats() == {"led": 3, "joined": 0}
        assert not tier.server._flight_table
    expected = PPREngine(base, alpha=0.2, seed=7).query(5, "powerpush", **PARAMS)
    sharded = isinstance(tier.server, ShardedDispatcher)
    worker = tier.server.route(5) if sharded else None
    for future in futures:
        served = future.result(timeout=60)
        assert not served.cache_hit and served.result is not warm.result
        assert served.worker == worker
        assert_same_bytes(served, expected)
    assert tier.calls() == 3
    stats = tier.server.stats()
    assert stats["flights"] == {"led": 3, "joined": 0}
    assert stats["cache"]["insertions"] == 1  # the warm-up's; fresh fills nothing
    assert stats["cache"]["hits"] == 0 and stats["cache"]["misses"] == 1


def test_spelled_out_defaults_share_the_entry_and_the_flight(make_tier):
    # alpha=0.2 and redirect-to-source are the tier's defaults:
    # spelling them out must key (and fly) identically to omitting them.
    tier = make_tier()
    with tier.held():
        futures = [
            tier.server.submit(5, "powerpush", **PARAMS),
            tier.server.submit(5, "powerpush", alpha=0.2, **PARAMS),
            tier.server.submit(
                5, "powerpush", dead_end_policy="redirect-to-source", **PARAMS
            ),
        ]
        assert tier.server._flight_table.stats() == {"led": 1, "joined": 2}
    first = futures[0].result(timeout=60)
    assert all(future.result(timeout=60) is first for future in futures)
    second = tier.server.query(5, "powerpush", alpha=0.2, **PARAMS)
    assert second.cache_hit
    assert_same_bytes(second, first.result)
    assert tier.calls() == 1
    # A different alpha is a different question.
    assert not tier.server.query(5, "powerpush", alpha=0.3, **PARAMS).cache_hit


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


# ---------------------------------------------------------------------------
# Request shapes: resolved through the registry once per tier
# ---------------------------------------------------------------------------

#: the tier's defaults spelled out: what every resolution folds in
DEFAULTS = {"alpha": 0.2, "dead_end_policy": "redirect-to-source"}


def test_a_request_shape_is_resolved_once_per_tier(make_tier, monkeypatch):
    calls = []

    def counting(method, params, defaults):
        calls.append(method)
        return _resolve_shape(method, params, defaults)

    monkeypatch.setattr(flights, "_resolve_shape", counting)
    tier = make_tier()
    answers = [tier.server.query(5, "powerpush", **PARAMS) for _ in range(50)]
    assert all(served.cache_hit for served in answers[1:])
    assert calls == ["powerpush"]
    # the shape leaves the source out: another source resolves nothing
    assert not tier.server.query(6, "powerpush", **PARAMS).cache_hit
    assert calls == ["powerpush"]
    # another spelling is another shape
    tier.server.query(5, "PP", **PARAMS)
    assert calls == ["powerpush", "PP"]
    # and another tier keeps a memo of its own
    make_tier().server.query(5, "powerpush", **PARAMS)
    assert calls == ["powerpush", "PP", "powerpush"]


def test_spellings_resolve_in_a_tier_as_without_the_memo(make_tier):
    tier = make_tier().server
    cases = [
        ("PP", {"l1_threshold": 1e-8}, ("powerpush", {"l1_threshold": 1e-8})),
        ("fora+", {"epsilon": 0.5}, ("fora", {"epsilon": 0.5, "use_index": True})),
        (
            "powerpush",
            {"l1_threshold": 1e-8, "alpha": 0.2},
            ("powerpush", {"alpha": 0.2, "l1_threshold": 1e-8}),
        ),
        (
            "powerpush",
            {"alpha": 0.2, "dead_end_policy": "redirect-to-source"},
            ("powerpush", {}),
        ),
    ]
    assert tier._defaults == DEFAULTS
    for method, params, same_as in cases:
        for spelling, given in ((method, params), same_as):
            unmemoised = _resolve_shape(spelling, given, DEFAULTS)
            for _ in range(2):  # cold, then from the memo
                assert tier._resolved(spelling, given) == unmemoised
        assert tier._resolved(method, params) == tier._resolved(*same_as)


def test_int_float_and_bool_get_entries_of_their_own(make_tier):
    tier = make_tier()
    values = (1.0, 1, True, 1.0)
    served = [
        tier.server.query(5, "powerpush", l1_threshold=value) for value in values
    ]
    assert [answer.cache_hit for answer in served] == [False, False, False, True]
    assert served[3].result is served[0].result
    assert tier.server.stats()["cache"]["insertions"] == 3
    assert tier.calls() == 3
    for value in values:
        _, merged, items = tier.server._resolved(
            "powerpush", {"l1_threshold": value}
        )
        assert type(merged["l1_threshold"]) is type(value)
        keyed = {name: (kind, given) for name, kind, given in items}
        assert keyed["l1_threshold"] == (type(value), value)
        assert type(keyed["l1_threshold"][1]) is type(value)
    assert len(tier.server._shapes) == 3


def test_a_value_of_another_type_is_another_request(make_tier, base):
    # 200 and 200.0 compare equal, but the engine counts walks with the
    # one and refuses the other: a cached answer must not cover both.
    tier = make_tier().server
    params = {"seed": 1, "num_walks": 200}
    served = tier.query(5, "montecarlo", **params)
    engine = PPREngine(base, alpha=0.2, seed=7)
    expected = engine.query(5, "montecarlo", **params)
    assert served.result.estimate.tobytes() == expected.estimate.tobytes()
    with pytest.raises(ParameterError) as serial:
        engine.query(5, "montecarlo", seed=1, num_walks=200.0)
    with pytest.raises(ParameterError, match=str(serial.value)):
        tier.query(5, "montecarlo", seed=1, num_walks=200.0)
    assert tier.query(5, "montecarlo", **params).cache_hit


def test_errors_raise_on_every_call_and_are_never_remembered(make_tier):
    tier = make_tier().server
    for _ in range(2):
        with pytest.raises(UnknownMethodError):
            tier.submit(5, "no-such-method")
        with pytest.raises(ParameterError):
            tier.submit(5, "powerpush", epsilon=0.5)
    assert not tier._shapes
    assert tier.stats()["requests"] == 0


def test_a_live_rng_is_resolved_afresh_and_never_remembered(make_tier):
    tier = make_tier().server
    for seed in range(2):
        rng = np.random.default_rng(seed)
        _, merged, items = tier._resolved("montecarlo", {"rng": rng})
        assert items is None and merged["rng"] is rng
        if isinstance(tier, ShardedDispatcher):
            # a live object cannot reach a shard
            with pytest.raises(ParameterError, match="scalar"):
                tier.submit(5, "montecarlo", rng=rng, num_walks=200)
        else:
            served = tier.query(5, "montecarlo", rng=rng, num_walks=200)
            assert not served.cache_hit
    assert not tier._shapes
    assert tier.stats()["cache"]["insertions"] == 0


def test_the_shape_memo_stays_within_its_bound(make_tier):
    tier = make_tier().server
    for k in range(10_000):
        tier._resolved("fora", {"epsilon": 0.1 + k * 1e-5})
        assert len(tier._shapes) <= flights._SHAPES_MAX
    assert tier._shapes


def test_each_led_flight_gets_a_merged_of_its_own(make_tier, monkeypatch):
    tier = make_tier().server
    sent = []
    send = tier._send

    def recording(flight):
        sent.append(flight)
        return send(flight)

    monkeypatch.setattr(tier, "_send", recording)
    for _ in range(2):
        tier.query(5, "powerpush", fresh=True, l1_threshold=1e-8)
    first, second = (flight.params for flight in sent)
    _, memo, _ = tier._resolved("powerpush", {"l1_threshold": 1e-8})
    assert first == second == memo
    assert first is not second
    assert memo is not first and memo is not second
    first["l1_threshold"] = 0.5
    first["rng"] = np.random.default_rng(0)
    _, again, items = tier._resolved("powerpush", {"l1_threshold": 1e-8})
    assert again == {**DEFAULTS, "l1_threshold": 1e-8}
    assert items == (
        ("alpha", float, 0.2),
        ("dead_end_policy", str, "redirect-to-source"),
        ("l1_threshold", float, 1e-8),
    )
