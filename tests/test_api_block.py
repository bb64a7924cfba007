"""Batch dispatch through the engine.

The contract: a multi-source ``batch_query`` is a per-source loop, and
every answer is byte-identical to ``engine.query``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import PPREngine, solve

SOURCES = [0, 7, 77, 123]
PARAMS = {"l1_threshold": 1e-7}


@pytest.fixture
def engine(medium_graph):
    return PPREngine(medium_graph, alpha=0.2, seed=3)


def assert_same_answer(a, b):
    """Estimate, residue and counters, byte for byte."""
    assert a.estimate.tobytes() == b.estimate.tobytes()
    assert a.residue.tobytes() == b.residue.tobytes()
    assert a.counters.as_dict() == b.counters.as_dict()


class TestEngineBatchBlock:
    def test_auto_selected_for_multi_source_powerpush(self, engine):
        """What is selected is the loop: no block solve, same bytes."""
        results = engine.batch_query(SOURCES, "powerpush", **PARAMS)
        for source, result in zip(SOURCES, results):
            assert result.source == source
            assert_same_answer(
                result, engine.query(source, "powerpush", **PARAMS)
            )

    def test_single_source_loops(self, engine):
        (result,) = engine.batch_query([5], "powerpush", **PARAMS)
        assert_same_answer(result, engine.query(5, "powerpush", **PARAMS))

    def test_seeded_montecarlo_batch_matches_sequential_queries(
        self, engine
    ):
        """A seeded batch draws one stream per source: it loops,
        whatever its size."""
        for sources in ([4], [4, 5, 6]):
            batch = engine.batch_query(
                sources, "montecarlo", num_walks=50, seed=1
            )
            looped = [
                engine.query(s, "montecarlo", num_walks=50, seed=1)
                for s in sources
            ]
            # Seeded answers are a pure function of (seed, source).
            for a, b in zip(batch, looped):
                assert np.array_equal(a.estimate, b.estimate)

    def test_block_matches_sequential_queries(self, engine):
        results = engine.batch_query(SOURCES, "powerpush", **PARAMS)
        for source, result in zip(SOURCES, results):
            single = engine.query(source, "powerpush", **PARAMS)
            assert np.array_equal(single.estimate, result.estimate)

    def test_engine_defaults_applied(self, medium_graph):
        engine = PPREngine(
            medium_graph, alpha=0.3, dead_end_policy="uniform-teleport"
        )
        results = engine.batch_query([0, 1], "powerpush", **PARAMS)
        single = solve(
            medium_graph,
            0,
            "powerpush",
            alpha=0.3,
            dead_end_policy="uniform-teleport",
            **PARAMS,
        )
        assert np.array_equal(results[0].estimate, single.estimate)

    def test_stats_record_block_rows(self, engine):
        engine.batch_query(SOURCES, "powerpush", **PARAMS)
        assert engine.stats.queries == len(SOURCES)
        assert "PowerPush" in engine.stats.by_method
