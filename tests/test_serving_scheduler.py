"""How the thread tier schedules solves (:class:`EngineServer`).

One worker thread solves the flights :mod:`repro.serving.flights`
leads, one ``engine.query`` each, in the order they were led.  Two
contracts under test: serving never changes an answer (every answer
equals a sequential ``engine.query``, stochastic methods under a fixed
seed included), and identical requests in flight share one solve
while everything else gets its own.  Flight semantics shared with the
sharded tier are in ``test_serving_flights.py``.
"""

import contextlib
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import PPREngine
from repro.api.engine import per_source_rng
from repro.errors import DeadlineExceeded, ParameterError, UnknownMethodError
from repro.graph.build import paper_example_graph
from repro.serving import EngineServer


@pytest.fixture
def engine():
    return PPREngine(paper_example_graph(), alpha=0.2, seed=3)


@pytest.fixture
def server(engine):
    with EngineServer(engine) as srv:
        yield srv


@contextlib.contextmanager
def held(server):
    """Block the server's worker inside ``engine.query`` for the block,
    so what is submitted meanwhile finds its predecessors in flight."""
    release = threading.Event()
    solve = server.engine.query

    def query(*args, **kwargs):
        release.wait(30)
        return solve(*args, **kwargs)

    server.engine.query = query
    try:
        yield
    finally:
        release.set()


class TestSubmitValidation:
    def test_unknown_method_raises_at_submit(self, server):
        with pytest.raises(UnknownMethodError):
            server.submit(0, "no-such-method")

    def test_unknown_param_raises_at_submit(self, server):
        with pytest.raises(ParameterError, match="does not accept"):
            server.submit(0, "powerpush", num_walk=3)

    def test_bad_source_raises_at_submit(self, server):
        with pytest.raises(Exception):
            server.submit(99, "powerpush")

    def test_incremental_params_validated(self, server):
        with pytest.raises(ParameterError, match="incremental"):
            server.submit(0, "incremental", epsilon=0.5)

    def test_bad_construction_params(self):
        with pytest.raises(ParameterError):
            EngineServer(paper_example_graph(), cache_capacity=-1)


class TestCoalescing:
    def test_identical_requests_share_one_solve(self, engine, server):
        with held(server):
            futures = [
                server.submit(0, "powerpush", l1_threshold=1e-8)
                for _ in range(5)
            ]
        results = [f.result(5) for f in futures]
        assert engine.stats.queries == 1
        assert server.stats()["flights"] == {"led": 1, "joined": 4}
        for served in results[1:]:
            assert served.result is results[0].result

    def test_incompatible_params_split_groups(self, engine, server):
        with held(server):
            a = server.submit(0, "powerpush", l1_threshold=1e-8)
            b = server.submit(0, "powerpush", l1_threshold=1e-6)
            c = server.submit(0, "powitr", l1_threshold=1e-8)
        for future in (a, b, c):
            future.result(5)
        assert engine.stats.queries == 3
        assert server.stats()["flights"] == {"led": 3, "joined": 0}

    def test_aliases_coalesce_with_canonical_spelling(self, engine, server):
        with held(server):
            a = server.submit(0, "powerpush", l1_threshold=1e-8)
            b = server.submit(0, "PP", l1_threshold=1e-8)
        assert a.result(5).result is b.result(5).result
        assert engine.stats.queries == 1

    def test_fresh_requests_are_not_deduped(self, engine, server):
        with held(server):
            a = server.submit(0, "montecarlo", fresh=True, num_walks=300)
            b = server.submit(0, "montecarlo", fresh=True, num_walks=300)
        # two solves, two independent samples
        assert not np.array_equal(
            a.result(5).result.estimate, b.result(5).result.estimate
        )
        assert engine.stats.queries == 2


class TestEquivalence:
    """Served answers == sequential query answers."""

    def test_deterministic_batch_matches_sequential(self, server):
        futures = [
            server.submit(s, "powerpush", l1_threshold=1e-8)
            for s in (0, 1, 2, 3, 4)
        ]
        reference = PPREngine(paper_example_graph(), alpha=0.2, seed=3)
        for source, future in enumerate(futures):
            expected = reference.query(
                source, "powerpush", l1_threshold=1e-8
            )
            np.testing.assert_array_equal(
                future.result(5).result.estimate, expected.estimate
            )

    def test_seeded_stochastic_batch_matches_sequential(self, server):
        futures = [
            server.submit(s, "montecarlo", num_walks=200, seed=11)
            for s in (2, 0, 4)
        ]
        reference = PPREngine(paper_example_graph(), alpha=0.2, seed=99)
        for future, source in zip(futures, (2, 0, 4)):
            expected = reference.query(
                source,
                "montecarlo",
                num_walks=200,
                rng=per_source_rng(11, source),
            )
            np.testing.assert_array_equal(
                future.result(5).result.estimate, expected.estimate
            )


class TestFailureIsolation:
    def test_solve_failure_reaches_the_future_not_the_worker(self, server):
        # num_walks=-5 passes name validation but fails in the solver.
        future = server.submit(0, "montecarlo", num_walks=-5)
        good = server.submit(1, "powerpush", l1_threshold=1e-8)
        with pytest.raises(ParameterError):
            future.result(5)
        assert good.result(5).result.method == "PowerPush"

    def test_cancelled_future_does_not_kill_the_worker(self, server):
        # A client cancelling its future must not take down the worker
        # for everyone else.
        with held(server):
            doomed = server.submit(0, "powerpush", l1_threshold=1e-8)
            assert doomed.cancel()
            survivor = server.submit(1, "powerpush", l1_threshold=1e-8)
        assert survivor.result(5).result.method == "PowerPush"
        # ...and the server still serves after the cancellation
        later = server.submit(2, "powerpush", l1_threshold=1e-8)
        assert later.result(5).result.source == 2

    def test_submit_after_close_raises(self, engine):
        server = EngineServer(engine)
        server.close()
        with pytest.raises(RuntimeError, match="closed"):
            server.submit(0, "powerpush")


class TestThreadedWorker:
    def test_concurrent_submitters_all_resolve(self, server):
        results = {}
        mutex = threading.Lock()

        def client(worker_id: int) -> None:
            futures = [
                server.submit(s, "powerpush", l1_threshold=1e-8)
                for s in (0, 1, 2, 3)
            ]
            answers = [f.result(5.0) for f in futures]
            with mutex:
                results[worker_id] = answers

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 6
        baseline = results[0]
        for answers in results.values():
            for mine, reference in zip(answers, baseline):
                np.testing.assert_array_equal(
                    mine.result.estimate, reference.result.estimate
                )
        assert server.stats()["requests"] == 24
        assert server.engine.stats.queries == 4

    def test_close_drains_pending_futures(self, engine, wait_for):
        server = EngineServer(engine)
        with held(server):
            futures = [
                server.submit(s, "powerpush", l1_threshold=1e-8)
                for s in (0, 1)
            ]
            closer = threading.Thread(target=server.close)
            closer.start()  # must not abandon queued requests
            wait_for(lambda: server.closed, "close to begin")
        closer.join(30)
        assert not closer.is_alive()
        for future in futures:
            assert future.result(0).result.method == "PowerPush"


class TestDeadlines:
    def test_already_expired_submit_raises(self, server):
        with pytest.raises(DeadlineExceeded, match="before submit"):
            server.submit(
                0,
                "powerpush",
                deadline=time.monotonic() - 1.0,
                l1_threshold=1e-8,
            )
        assert server.stats()["requests"] == 0

    def test_expired_in_queue_fails_fast_without_engine_call(
        self, engine, server
    ):
        with held(server):
            live = server.submit(1, "powerpush", l1_threshold=1e-8)
            doomed = server.submit(
                0,
                "powerpush",
                deadline=time.monotonic() + 0.01,
                l1_threshold=1e-8,
            )
            time.sleep(0.02)
        with pytest.raises(DeadlineExceeded, match="deadline passed"):
            doomed.result(5)
        # The expired request never reached the engine; the one ahead
        # of it was answered normally.
        assert live.result(5).result.method == "PowerPush"
        assert engine.stats.queries == 1

    def test_deadline_stamped_on_served_result(self, engine, server):
        deadline = time.monotonic() + 60.0
        with held(server):
            stamped = server.submit(
                0, "powerpush", deadline=deadline, l1_threshold=1e-8
            )
            # joins: the flight outlasts its own, sooner deadline
            joiner = server.submit(
                0, "powerpush", deadline=deadline - 30, l1_threshold=1e-8
            )
            # flies alone: the flight could be dropped before it
            plain = server.submit(0, "powerpush", l1_threshold=1e-8)
        assert stamped.result(5).deadline == deadline
        assert joiner.result(5) is stamped.result(5)
        assert plain.result(5).deadline is None
        np.testing.assert_array_equal(
            plain.result(5).result.estimate,
            stamped.result(5).result.estimate,
        )
        assert engine.stats.queries == 2


# ---------------------------------------------------------------------------
# Randomized interleavings (property tests)
# ---------------------------------------------------------------------------

_requests = st.lists(
    st.tuples(
        st.integers(0, 4),  # source
        st.sampled_from(["powerpush", "montecarlo"]),
        st.integers(0, 2),  # seed choice for stochastic
        st.booleans(),  # wait for the answer before the next submission?
    ),
    min_size=1,
    max_size=12,
)


class TestRandomizedSubmissions:
    @settings(max_examples=25, deadline=None)
    @given(requests=_requests)
    def test_any_interleaving_matches_sequential_answers(self, requests):
        graph = paper_example_graph()
        reference = PPREngine(graph, alpha=0.2, seed=77)
        futures = []
        with EngineServer(graph, alpha=0.2, seed=3) as server:
            for source, method, seed, wait in requests:
                if method == "powerpush":
                    params = {"l1_threshold": 1e-7}
                else:
                    params = {"num_walks": 60, "seed": seed}
                future = server.submit(source, method, **params)
                futures.append((source, method, seed, future))
                if wait:
                    future.result(5)
        for source, method, seed, future in futures:
            served = future.result(0)
            if method == "powerpush":
                expected = reference.query(
                    source, "powerpush", l1_threshold=1e-7
                )
            else:
                expected = reference.query(
                    source,
                    "montecarlo",
                    num_walks=60,
                    rng=per_source_rng(seed, source),
                )
            np.testing.assert_array_equal(
                served.result.estimate, expected.estimate
            )
