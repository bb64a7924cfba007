"""Tests for :class:`repro.serving.server.EngineServer`.

The contract: futures in, version-stamped answers out; the cache is
consulted and filled under the read lock; ``apply_updates`` is
exclusive and invalidates every pre-update answer.  Flight semantics
shared with the sharded tier are in ``test_serving_flights.py``.
"""

import threading

import numpy as np
import pytest

from repro.api import PPREngine
from repro.errors import (
    GraphConstructionError,
    NodeNotFoundError,
    ParameterError,
)
from repro.generators.rmat import rmat_digraph
from repro.graph.build import paper_example_graph
from repro.graph.dynamic import DynamicGraph, sample_edge_update
from repro.serving import EngineServer


@pytest.fixture
def dyn():
    rng = np.random.default_rng(17)
    return DynamicGraph(rmat_digraph(9, 3000, rng=rng, name="serve-dyn"))


@pytest.fixture
def server(dyn):
    srv = EngineServer(dyn, alpha=0.2, seed=7)
    yield srv
    srv.close()


class TestConstruction:
    def test_accepts_graph_engine_and_dynamic(self, dyn):
        with EngineServer(paper_example_graph()) as server:
            assert server.graph_version == 0
        engine = PPREngine(dyn, seed=1)
        with EngineServer(engine) as server:
            assert server.engine is engine

    def test_rejects_other_types(self):
        with pytest.raises(ParameterError, match="EngineServer needs"):
            EngineServer(object())

    def test_rejects_negative_cache_capacity(self, dyn):
        with pytest.raises(ParameterError):
            EngineServer(dyn, cache_capacity=-1)


class TestCachedServing:
    def test_miss_then_hit_same_object(self, server):
        a = server.query(0, "powerpush", l1_threshold=1e-7)
        assert not a.cache_hit
        b = server.query(0, "powerpush", l1_threshold=1e-7)
        assert b.cache_hit
        assert b.result is a.result
        assert server.engine.stats.queries == 1

    def test_dispatch_time_cache_recheck(self, server):
        # Three identical requests back to back: whichever of them find
        # the first one still in flight join it, the rest hit the
        # cache — one engine solve either way.
        futures = [
            server.submit(0, "powerpush", l1_threshold=1e-7)
            for _ in range(3)
        ]
        [f.result(5) for f in futures]
        assert server.engine.stats.queries == 1

    def test_dispatch_time_hit_reports_honest_provenance(self, server):
        # The second request arrives after the first landed: it is
        # answered from the cache and says so (no phantom engine call).
        a = server.query(0, "powerpush", l1_threshold=1e-7)
        served = server.query(0, "powerpush", l1_threshold=1e-7)
        assert not a.cache_hit
        assert served.cache_hit and served.result is a.result
        stats = server.stats()
        assert stats["flights"] == {"led": 1, "joined": 0}
        assert stats["cache"]["hits"] == 1
        assert server.engine.stats.queries == 1

    def test_explicit_engine_defaults_share_the_cache_entry(self, server):
        # alpha=0.2 is the engine default: spelling it out must key
        # (and fly) identically to omitting it.
        server.query(0, "powerpush", l1_threshold=1e-7)
        spelled = server.query(
            0, "powerpush", l1_threshold=1e-7, alpha=0.2
        )
        assert spelled.cache_hit
        assert server.engine.stats.queries == 1

    def test_fresh_bypasses_cache(self, server):
        server.query(0, "powerpush", l1_threshold=1e-7)
        again = server.query(0, "powerpush", fresh=True, l1_threshold=1e-7)
        assert not again.cache_hit
        assert server.engine.stats.queries == 2

    def test_uncacheable_params_still_served(self, server):
        rng = np.random.default_rng(5)
        served = server.query(0, "montecarlo", num_walks=100, rng=rng)
        assert served.result.method == "MonteCarlo"
        # nothing was cached for it
        assert server.cache.stats.insertions == 0

    def test_cache_disabled(self, dyn):
        with EngineServer(dyn, seed=7, cache_capacity=0) as server:
            assert server.cache is None
            server.query(0, "powerpush", l1_threshold=1e-7)
            server.query(0, "powerpush", l1_threshold=1e-7)
            assert server.engine.stats.queries == 2
            assert server.stats()["cache"] == {}

    def test_cache_disabled_still_coalesces_identical_requests(self, dyn):
        # Turning off memoisation must not turn off flights: a request
        # identical to one being solved still costs no second solve.
        with EngineServer(dyn, seed=7, cache_capacity=0) as server:
            release = threading.Event()
            solve = server.engine.query

            def held(*args, **kwargs):
                release.wait(30)
                return solve(*args, **kwargs)

            server.engine.query = held
            a = server.submit(0, "powerpush", l1_threshold=1e-7)
            b = server.submit(0, "powerpush", l1_threshold=1e-7)
            release.set()
            assert a.result(5).result is b.result(5).result
            assert server.stats()["flights"] == {"led": 1, "joined": 1}
            assert server.engine.stats.queries == 1

    def test_cached_answers_are_frozen_against_mutation(self, server):
        served = server.query(0, "powerpush", l1_threshold=1e-7)
        with pytest.raises(ValueError, match="read-only"):
            served.result.estimate[0] = -1.0
        # the cached copy is intact for the next caller
        again = server.query(0, "powerpush", l1_threshold=1e-7)
        assert again.cache_hit
        assert again.result.estimate[0] >= 0.0

    def test_batch_convenience_orders_results(self, dyn):
        with EngineServer(dyn, seed=7) as server:
            answers = server.batch([3, 1, 2], "powerpush", l1_threshold=1e-7)
            assert [a.result.source for a in answers] == [3, 1, 2]


class TestWriterPath:
    def test_update_bumps_version_and_invalidates(self, server, dyn):
        assert server.query(0, "powerpush", l1_threshold=1e-7).version == 0
        update = sample_edge_update(dyn, np.random.default_rng(3))
        version = server.apply_updates([update])
        assert version == 1
        assert server.cache.stats.invalidations >= 1
        served = server.query(0, "powerpush", l1_threshold=1e-7)
        assert served.version == 1
        assert not served.cache_hit

    def test_post_update_answer_reflects_new_graph(self, server, dyn):
        a = server.query(0, "powerpush", l1_threshold=1e-9)
        update = sample_edge_update(dyn, np.random.default_rng(4))
        server.apply_updates([update])
        b = server.query(0, "powerpush", l1_threshold=1e-9)
        assert not np.array_equal(a.result.estimate, b.result.estimate)

    def test_failing_batch_invalidates_at_the_version_it_reached(
        self, server, dyn
    ):
        server.query(0, "powerpush", l1_threshold=1e-7)  # cached at version 0
        valid = sample_edge_update(dyn, np.random.default_rng(3))
        existing = ("+", *next(dyn.base.iter_edges()))
        with pytest.raises(GraphConstructionError):
            server.apply_updates([valid, existing])
        assert server.graph_version == 1
        assert len(server.cache) == 0
        assert server.cache.stats.invalidations == 1

    def test_submit_after_close_raises_even_on_cache_hit(self, server):
        server.query(0, "powerpush", l1_threshold=1e-7)  # entry is now cached
        server.close()
        with pytest.raises(RuntimeError, match="closed"):
            server.submit(0, "powerpush", l1_threshold=1e-7)

    def test_submit_after_an_update_builds_no_snapshot(
        self, server, dyn, monkeypatch
    ):
        """A source is checked against the node count, not the graph:
        the first request after an update does not build the snapshot
        on the caller's thread (under the door: the event loop)."""
        server.query(0, "powerpush", l1_threshold=1e-7)
        server.apply_updates([sample_edge_update(dyn, np.random.default_rng(5))])
        caller = threading.current_thread()
        calls = []
        snapshot = DynamicGraph.snapshot

        def counted(graph):
            if threading.current_thread() is caller:
                calls.append(graph)
            return snapshot(graph)

        monkeypatch.setattr(DynamicGraph, "snapshot", counted)
        future = server.try_submit(0, "powerpush", l1_threshold=1e-7)
        assert calls == []
        assert future.result(timeout=30).version == 1
        with pytest.raises(NodeNotFoundError):
            server.try_submit(dyn.num_nodes, "powerpush")

    def test_static_graph_update_raises(self):
        with EngineServer(paper_example_graph()) as server:
            with pytest.raises(ParameterError, match="DynamicGraph"):
                server.apply_updates([("+", 0, 3)])


class TestStats:
    def test_stats_shape_and_counts(self, server):
        server.query(0, "powerpush", l1_threshold=1e-7)
        server.query(0, "powerpush", l1_threshold=1e-7)  # hit
        stats = server.stats()
        assert stats["requests"] == 2
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["hit_rate"] == pytest.approx(0.5)
        assert stats["graph_version"] == 0
        assert stats["flights"] == {"led": 1, "joined": 0}
        assert "scheduler" not in stats
        assert stats["cache"]["insertions"] == 1
        assert stats["engine_queries"] == 1

    def test_repr_mentions_cache_and_version(self, server):
        text = repr(server)
        assert "EngineServer" in text and "version=0" in text


class TestTeardown:
    def test_close_is_idempotent(self, dyn):
        srv = EngineServer(dyn)
        assert not srv.closed
        srv.close()
        assert srv.closed
        srv.close()  # a second close is a no-op, not an error
        assert srv.closed

    def test_context_manager_closes(self, dyn):
        with EngineServer(dyn) as srv:
            assert not srv.closed
        assert srv.closed
        srv.close()  # and close after __exit__ stays idempotent
