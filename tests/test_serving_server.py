"""Tests for :class:`repro.serving.server.EngineServer`.

The contract: futures in, version-stamped answers out; the cache is
consulted and filled under the read lock; ``apply_updates`` is
exclusive and invalidates every pre-update answer.
"""

import numpy as np
import pytest

from repro.api import PPREngine
from repro.errors import GraphConstructionError, ParameterError
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
    srv = EngineServer(dyn, alpha=0.2, seed=7, window=0.0, start=False)
    yield srv
    srv.close()


def drain(server):
    return server.scheduler.run_pending()


class TestConstruction:
    def test_accepts_graph_engine_and_dynamic(self, dyn):
        assert EngineServer(paper_example_graph(), start=False).graph_version == 0
        engine = PPREngine(dyn, seed=1)
        assert EngineServer(engine, start=False).engine is engine

    def test_rejects_other_types(self):
        with pytest.raises(ParameterError, match="EngineServer needs"):
            EngineServer(object())

    def test_rejects_negative_cache_capacity(self, dyn):
        with pytest.raises(ParameterError):
            EngineServer(dyn, cache_capacity=-1)


class TestCachedServing:
    def test_miss_then_hit_same_object(self, server):
        first = server.submit(0, "powerpush", l1_threshold=1e-7)
        drain(server)
        a = first.result(0)
        assert not a.cache_hit
        b = server.query(0, "powerpush", l1_threshold=1e-7)
        assert b.cache_hit and b.batch_size == 1
        assert b.result is a.result
        assert server.engine.stats.queries == 1

    def test_dispatch_time_cache_recheck(self, server):
        # Three identical requests queued before any dispatch: the
        # executor dedups them into one engine solve.
        futures = [
            server.submit(0, "powerpush", l1_threshold=1e-7)
            for _ in range(3)
        ]
        drain(server)
        [f.result(0) for f in futures]
        assert server.engine.stats.queries == 1

    def test_dispatch_time_hit_reports_honest_provenance(self, dyn):
        # max_batch=1 forces the two identical requests into separate
        # dispatch rounds: round 1 solves and fills the cache, round 2
        # must answer from it and say so (no phantom engine call).
        server = EngineServer(
            dyn, seed=7, window=0.0, start=False, max_batch=1
        )
        a = server.submit(0, "powerpush", l1_threshold=1e-7)
        b = server.submit(0, "powerpush", l1_threshold=1e-7)
        drain(server)
        assert not a.result(0).cache_hit
        served = b.result(0)
        assert served.cache_hit and served.batch_size == 1
        stats = server.scheduler.stats
        assert stats.engine_calls == 1
        assert stats.answered == 1
        assert stats.cache_answered == 1
        assert server.engine.stats.queries == 1
        server.close()

    def test_explicit_engine_defaults_share_the_cache_entry(self, server):
        # alpha=0.2 is the engine default: spelling it out must key
        # (and coalesce) identically to omitting it.
        first = server.submit(0, "powerpush", l1_threshold=1e-7)
        drain(server)
        first.result(0)
        spelled = server.query(
            0, "powerpush", l1_threshold=1e-7, alpha=0.2
        )
        assert spelled.cache_hit
        assert server.engine.stats.queries == 1

    def test_fresh_bypasses_cache(self, server):
        first = server.submit(0, "powerpush", l1_threshold=1e-7)
        drain(server)
        first.result(0)
        again = server.submit(
            0, "powerpush", fresh=True, l1_threshold=1e-7
        )
        drain(server)
        assert not again.result(0).cache_hit
        assert server.engine.stats.queries == 2

    def test_uncacheable_params_still_served(self, server):
        rng = np.random.default_rng(5)
        future = server.submit(0, "montecarlo", num_walks=100, rng=rng)
        drain(server)
        assert future.result(0).result.method == "MonteCarlo"
        # nothing was cached for it
        assert server.cache.stats.insertions == 0

    def test_cache_disabled(self, dyn):
        server = EngineServer(
            dyn, seed=7, window=0.0, start=False, cache_capacity=0
        )
        assert server.cache is None
        server.submit(0, "powerpush", l1_threshold=1e-7)
        drain(server)
        server.submit(0, "powerpush", l1_threshold=1e-7)
        drain(server)
        assert server.engine.stats.queries == 2
        assert server.stats()["cache"] == {}
        server.close()

    def test_cache_disabled_still_coalesces_identical_requests(self, dyn):
        # Turning off memoisation must not turn off slot-sharing: two
        # identical requests in one dispatch still cost one solve.
        server = EngineServer(
            dyn, seed=7, window=0.0, start=False, cache_capacity=0
        )
        a = server.submit(0, "powerpush", l1_threshold=1e-7)
        b = server.submit(0, "powerpush", l1_threshold=1e-7)
        drain(server)
        assert a.result(0).result is b.result(0).result
        assert server.scheduler.stats.engine_sources == 1
        assert server.engine.stats.queries == 1
        server.close()

    def test_cached_answers_are_frozen_against_mutation(self, server):
        first = server.submit(0, "powerpush", l1_threshold=1e-7)
        drain(server)
        served = first.result(0)
        with pytest.raises(ValueError, match="read-only"):
            served.result.estimate[0] = -1.0
        # the cached copy is intact for the next caller
        again = server.query(0, "powerpush", l1_threshold=1e-7)
        assert again.cache_hit
        assert again.result.estimate[0] >= 0.0

    def test_batch_convenience_orders_results(self, dyn):
        with EngineServer(dyn, seed=7, window=0.001) as server:
            answers = server.batch([3, 1, 2], "powerpush", l1_threshold=1e-7)
            assert [a.result.source for a in answers] == [3, 1, 2]


class TestWriterPath:
    def test_update_bumps_version_and_invalidates(self, server, dyn):
        first = server.submit(0, "powerpush", l1_threshold=1e-7)
        drain(server)
        assert first.result(0).version == 0
        update = sample_edge_update(dyn, np.random.default_rng(3))
        version = server.apply_updates([update])
        assert version == 1
        assert server.cache.stats.invalidations >= 1
        after = server.submit(0, "powerpush", l1_threshold=1e-7)
        drain(server)
        served = after.result(0)
        assert served.version == 1
        assert not served.cache_hit

    def test_post_update_answer_reflects_new_graph(self, server, dyn):
        first = server.submit(0, "powerpush", l1_threshold=1e-9)
        drain(server)
        a = first.result(0)
        update = sample_edge_update(dyn, np.random.default_rng(4))
        server.apply_updates([update])
        second = server.submit(0, "powerpush", l1_threshold=1e-9)
        drain(server)
        b = second.result(0)
        assert not np.array_equal(a.result.estimate, b.result.estimate)

    def test_failing_batch_invalidates_at_the_version_it_reached(
        self, server, dyn
    ):
        first = server.submit(0, "powerpush", l1_threshold=1e-7)
        drain(server)
        first.result(0)  # cached at version 0
        valid = sample_edge_update(dyn, np.random.default_rng(3))
        existing = ("+", *next(dyn.base.iter_edges()))
        with pytest.raises(GraphConstructionError):
            server.apply_updates([valid, existing])
        assert server.graph_version == 1
        assert len(server.cache) == 0
        assert server.cache.stats.invalidations == 1

    def test_submit_after_close_raises_even_on_cache_hit(self, server):
        first = server.submit(0, "powerpush", l1_threshold=1e-7)
        drain(server)
        first.result(0)  # entry is now cached
        server.close()
        with pytest.raises(RuntimeError, match="closed"):
            server.submit(0, "powerpush", l1_threshold=1e-7)

    def test_static_graph_update_raises(self):
        server = EngineServer(paper_example_graph(), window=0.0, start=False)
        with pytest.raises(ParameterError, match="DynamicGraph"):
            server.apply_updates([("+", 0, 3)])
        server.close()


class TestStats:
    def test_stats_shape_and_counts(self, server):
        server.submit(0, "powerpush", l1_threshold=1e-7)
        drain(server)
        server.query(0, "powerpush", l1_threshold=1e-7)  # hit
        stats = server.stats()
        assert stats["requests"] == 2
        assert stats["cache_hits_at_submit"] == 1
        assert stats["hit_rate_at_submit"] == pytest.approx(0.5)
        assert stats["graph_version"] == 0
        assert stats["scheduler"]["engine_calls"] == 1
        assert stats["cache"]["insertions"] == 1
        assert stats["engine_queries"] == 1

    def test_repr_mentions_cache_and_version(self, server):
        text = repr(server)
        assert "EngineServer" in text and "version=0" in text


class TestTeardown:
    def test_close_is_idempotent(self, dyn):
        srv = EngineServer(dyn, window=0.0, start=False)
        assert not srv.closed
        srv.close()
        assert srv.closed
        srv.close()  # a second close is a no-op, not an error
        assert srv.closed

    def test_context_manager_closes(self, dyn):
        with EngineServer(dyn, window=0.0, start=False) as srv:
            assert not srv.closed
        assert srv.closed
        srv.close()  # and close after __exit__ stays idempotent
