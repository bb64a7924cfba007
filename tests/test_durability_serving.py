"""Durable serving: cold restart of EngineServer and ShardedDispatcher.

The acceptance contract is byte-identity: a server restarted from
``wal_dir`` must answer every query with exactly the bytes an
uninterrupted server would produce (``per_source_rng`` purity makes
equality exact), at exactly the version it acknowledged before dying.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.engine import PPREngine
from repro.errors import ParameterError
from repro.generators.rmat import rmat_digraph
from repro.graph.dynamic import DynamicGraph, sample_edge_update
from repro.serving.server import EngineServer
from repro.serving.sharded import ShardedDispatcher


def _base(seed=5, scale=7, edges=600):
    return rmat_digraph(
        scale, edges, rng=np.random.default_rng(seed), name="durable-serve"
    )


def _updates(base, count, seed=23):
    scratch = DynamicGraph(base)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        update = sample_edge_update(scratch, rng)
        scratch.apply_updates([update])
        out.append(update)
    return out


class TestEngineServerDurability:
    def test_restart_restores_version_and_answers(self, tmp_path):
        base = _base()
        updates = _updates(base, 8)
        wal_dir = tmp_path / "state"

        with EngineServer(
            DynamicGraph(base), alpha=0.2, seed=7, wal_dir=wal_dir
        ) as server:
            assert server.apply_updates(updates[:5]) == 5
            assert server.apply_updates(updates[5:]) == 8
            before = server.query(
                3, "powerpush", l1_threshold=1e-6
            ).result.estimate

        with EngineServer(
            DynamicGraph(base), alpha=0.2, seed=7, wal_dir=wal_dir
        ) as server:
            assert server.graph_version == 8
            after = server.query(
                3, "powerpush", l1_threshold=1e-6
            ).result.estimate
            assert np.array_equal(before, after)
            # The recovered server keeps accepting durable updates.
            more = _updates(base, 9, seed=91)[8:]
            assert server.apply_updates(more) == 9

    def test_restart_matches_uninterrupted_run(self, tmp_path):
        base = _base()
        updates = _updates(base, 6)
        with EngineServer(
            DynamicGraph(base), alpha=0.2, seed=7, wal_dir=tmp_path / "s"
        ) as server:
            server.apply_updates(updates)
        with EngineServer(
            DynamicGraph(base), alpha=0.2, seed=7, wal_dir=tmp_path / "s"
        ) as recovered:
            reference = DynamicGraph(base)
            reference.apply_updates(updates)
            engine = PPREngine(reference, alpha=0.2, seed=7)
            for source in (0, 2, 11):
                served = recovered.query(
                    source, "speedppr", epsilon=0.5, seed=3
                ).result.estimate
                direct = engine.query(
                    source, method="speedppr", epsilon=0.5, seed=3
                ).estimate
                assert np.array_equal(served, direct)

    def test_wal_dir_requires_graph_not_engine(self, tmp_path):
        engine = PPREngine(DynamicGraph(_base()), alpha=0.2, seed=7)
        with pytest.raises(ParameterError, match="wal_dir"):
            EngineServer(engine, wal_dir=tmp_path / "s")

    def test_wal_dir_and_durability_are_exclusive(self, tmp_path):
        from repro.durability import open_durable_graph

        manager, graph = open_durable_graph(tmp_path / "a", _base())
        try:
            with pytest.raises(ParameterError, match="not both"):
                EngineServer(
                    graph, wal_dir=tmp_path / "b", durability=manager
                )
        finally:
            manager.close()

    def test_durability_must_own_the_served_graph(self, tmp_path):
        from repro.durability import open_durable_graph

        manager, _graph = open_durable_graph(tmp_path / "a", _base())
        stranger = DynamicGraph(_base(seed=9))
        try:
            with pytest.raises(ParameterError, match="graph"):
                EngineServer(stranger, durability=manager)
        finally:
            manager.close()


class TestShardedDurability:
    def test_cold_restart_round_trip(self, tmp_path):
        base = _base(scale=8, edges=1000)
        updates = _updates(base, 10)
        wal_dir = tmp_path / "cluster"

        with ShardedDispatcher(
            DynamicGraph(base), workers=2, wal_dir=wal_dir,
            checkpoint_every=6,
        ) as dispatcher:
            assert dispatcher.apply_updates(updates[:4]) == 4
            assert dispatcher.apply_updates(updates[4:]) == 10
            before = dispatcher.query(
                3, method="powerpush", l1_threshold=1e-6
            ).result.estimate

        with ShardedDispatcher(
            DynamicGraph(base), workers=2, wal_dir=wal_dir
        ) as dispatcher:
            assert dispatcher.recovered_version == 10
            assert dispatcher.graph_version == 10
            after = dispatcher.query(
                3, method="powerpush", l1_threshold=1e-6
            ).result.estimate
            assert np.array_equal(before, after)
            # Updates keep flowing at the recovered version offset.
            more = _updates(base, 11, seed=77)[10:]
            assert dispatcher.apply_updates(more) == 11

    def test_respawn_catches_up_from_recovered_offset(self, tmp_path):
        base = _base(scale=8, edges=1000)
        updates = _updates(base, 8)
        wal_dir = tmp_path / "cluster"
        with ShardedDispatcher(
            DynamicGraph(base), workers=2, wal_dir=wal_dir
        ) as dispatcher:
            dispatcher.apply_updates(updates[:6])

        with ShardedDispatcher(
            DynamicGraph(base), workers=2, wal_dir=wal_dir, max_restarts=2
        ) as dispatcher:
            dispatcher.apply_updates(updates[6:])
            # Kill one worker; the respawn must replay only the
            # post-recovery journal (offset by the recovered version).
            import os
            import signal

            os.kill(dispatcher._states[0].process.pid, signal.SIGKILL)
            answer = dispatcher.query(
                5, method="powerpush", l1_threshold=1e-6
            )
            assert answer.version == 8

            reference = DynamicGraph(base)
            reference.apply_updates(updates)
            engine = PPREngine(reference, alpha=0.2, seed=0)
            direct = engine.query(
                5, method="powerpush", l1_threshold=1e-6
            ).estimate
            assert np.array_equal(answer.result.estimate, direct)

    def test_parent_mirror_journal_is_trimmed_at_every_barrier(
        self, tmp_path
    ):
        """The durable mirror's in-memory journal has no reader (the
        WAL is its durable form), so it must not grow with the update
        count: after each barrier its floor is the agreed version."""
        base = _base(scale=8, edges=1000)
        with ShardedDispatcher(
            DynamicGraph(base), workers=2, wal_dir=tmp_path / "cluster"
        ) as dispatcher:
            mirror = dispatcher.durability.graph
            for update in _updates(base, 12):
                version = dispatcher.apply_updates([update])
                assert mirror.journal_floor == version
                assert mirror.updates_since(version) == []
            assert mirror.journal_floor == dispatcher.graph_version == 12

    def test_wal_dir_rejects_static_graph(self, tmp_path):
        with pytest.raises(ParameterError, match="dynamic"):
            ShardedDispatcher(
                _base(), workers=2, dynamic=False, wal_dir=tmp_path / "s"
            )
