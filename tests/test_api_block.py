"""Block dispatch through the registry, the engine, and the scheduler.

The serving contract: ``batch_query`` auto-selects the block solver
for >= 2 high-precision PowerPush sources, a coalesced scheduler
window therefore runs as one block solve, and every answer stays
byte-identical to the per-source path no matter which layer batched
it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import PPREngine, get_solver, solve, solve_block
from repro.errors import ParameterError
from repro.instrumentation.tracing import ConvergenceTrace
from repro.serving.scheduler import QueryScheduler

SOURCES = [0, 7, 77, 123]
PARAMS = {"l1_threshold": 1e-7}


@pytest.fixture
def engine(medium_graph):
    return PPREngine(medium_graph, alpha=0.2, seed=3)


class TestRegistryBlock:
    def test_powerpush_supports_block(self):
        assert get_solver("powerpush").supports_block
        assert not get_solver("powitr").supports_block

    def test_solve_block_matches_solve(self, medium_graph):
        block = solve_block(medium_graph, SOURCES, "powerpush", **PARAMS)
        for source, row in zip(SOURCES, block):
            single = solve(medium_graph, source, "powerpush", **PARAMS)
            assert np.array_equal(single.estimate, row.estimate)
            assert np.array_equal(single.residue, row.residue)

    def test_solve_block_loops_methods_without_kernel(self, medium_graph):
        block = solve_block(medium_graph, [1, 2], "powitr", **PARAMS)
        single = solve(medium_graph, 1, "powitr", **PARAMS)
        assert np.array_equal(block[0].estimate, single.estimate)
        assert block[0].batch_size == 1  # looped, not block-solved

    def test_block_adapter_rejects_faithful_mode_and_traces(
        self, medium_graph
    ):
        spec = get_solver("powerpush")
        with pytest.raises(ParameterError):
            spec.solve_block(medium_graph, [0, 1], mode="faithful", **PARAMS)
        with pytest.raises(ParameterError):
            spec.solve_block(
                medium_graph, [0, 1], trace=ConvergenceTrace(), **PARAMS
            )

    def test_alias_resolves_to_block_path(self, medium_graph):
        block = solve_block(medium_graph, [0, 1], "pp", **PARAMS)
        assert block[0].batch_size == 2


class TestEngineBatchBlock:
    def test_auto_selected_for_multi_source_powerpush(self, engine):
        results = engine.batch_query(SOURCES, "powerpush", **PARAMS)
        assert engine.block_batches == 1
        assert all(result.batch_size == len(SOURCES) for result in results)
        loop = [engine.query(s, "powerpush", **PARAMS) for s in SOURCES]
        assert engine.block_batches == 1  # the loop did not batch
        for a, b in zip(results, loop):
            assert np.array_equal(a.estimate, b.estimate)
            assert np.array_equal(a.residue, b.residue)

    def test_single_source_loops(self, engine):
        engine.batch_query([5], "powerpush", **PARAMS)
        assert engine.block_batches == 0

    def test_faithful_mode_falls_back_to_loop(self, engine):
        results = engine.batch_query(
            [0, 1], "powerpush", mode="faithful", l1_threshold=1e-5
        )
        assert engine.block_batches == 0
        assert results[0].batch_size == 1

    def test_seeded_montecarlo_batch_matches_sequential_queries(
        self, engine
    ):
        """A seeded batch is not block-batchable (one stream per
        source): it loops, whatever its size."""
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
        assert engine.block_batches == 0

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


class TestSchedulerBlockDispatch:
    def test_coalesced_window_runs_as_one_block_solve(self, engine):
        """A micro-batch window of powerpush requests is one block solve."""
        scheduler = QueryScheduler(engine, start=False)
        futures = [
            scheduler.submit(source, "powerpush", dict(PARAMS))
            for source in SOURCES
        ]
        answered = scheduler.run_pending()
        assert answered == len(SOURCES)
        assert engine.block_batches == 1
        assert scheduler.stats.engine_calls == 1
        for source, future in zip(SOURCES, futures):
            served = future.result(timeout=5)
            assert served.batch_size == len(SOURCES)
            single = engine.query(source, "powerpush", **PARAMS)
            assert np.array_equal(served.result.estimate, single.estimate)
        scheduler.close()

    def test_mixed_methods_split_windows(self, engine):
        scheduler = QueryScheduler(engine, start=False)
        scheduler.submit(0, "powerpush", dict(PARAMS))
        scheduler.submit(1, "powerpush", dict(PARAMS))
        scheduler.submit(2, "powitr", dict(PARAMS))
        scheduler.run_pending()
        assert engine.block_batches == 1  # only the powerpush pair
        scheduler.close()
