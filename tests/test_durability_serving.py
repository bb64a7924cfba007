"""Durable serving: cold restart of EngineServer and ShardedDispatcher.

The acceptance contract is byte-identity: a server restarted from
``wal_dir`` must answer every query with exactly the bytes an
uninterrupted server would produce (``per_source_rng`` purity makes
equality exact), at exactly the version it acknowledged before dying.
"""

from __future__ import annotations

import os
import signal
from pathlib import Path

import numpy as np
import pytest

from repro.api.engine import PPREngine
from repro.errors import GraphConstructionError, ParameterError
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


def _wal_state(wal_dir):
    """Every file under ``wal_dir`` with its size: what is on disk."""
    return {
        str(path.relative_to(wal_dir)): path.stat().st_size
        for path in sorted(Path(wal_dir).rglob("*"))
        if path.is_file()
    }


def _respawned(dispatcher):
    return lambda: dispatcher.stats()["supervisor"]["respawns"] == 1


def _assert_serves(dispatcher, engine, version, sources=(0, 3, 5, 11)):
    """Every source is answered at ``version`` with ``engine``'s bytes."""
    workers = set()
    for source in sources:
        served = dispatcher.query(source, "powerpush", l1_threshold=1e-6)
        direct = engine.query(source, "powerpush", l1_threshold=1e-6)
        assert served.version == version
        assert served.result.estimate.tobytes() == direct.estimate.tobytes()
        assert served.result.residue.tobytes() == direct.residue.tobytes()
        workers.add(served.worker)
    assert workers == set(range(dispatcher.configured_workers))


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

    def test_rejected_construction_writes_no_durable_state(self, tmp_path):
        """Arguments are checked before the directory is touched, so a
        rejected server cannot seed it for the next one."""
        wal_dir = tmp_path / "state"
        wal_dir.mkdir()
        rejected, accepted = _base(seed=5), _base(seed=9, edges=900)
        assert rejected.num_edges != accepted.num_edges
        with pytest.raises(ParameterError, match="cache_capacity"):
            EngineServer(
                DynamicGraph(rejected), wal_dir=wal_dir, cache_capacity=-1
            )
        assert list(wal_dir.iterdir()) == []
        with EngineServer(DynamicGraph(accepted), wal_dir=wal_dir) as server:
            assert server.engine.graph.num_edges == accepted.num_edges

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

    def test_failing_batch_keeps_wal_shards_and_version_in_step(
        self, tmp_path, wait_for
    ):
        """``[valid, insert of an existing edge]`` raises after the
        valid prefix: that prefix is what the WAL holds, what every
        shard serves and what ``graph_version`` says — through the next
        update, a shard's death and a cold restart."""
        base = _base(scale=8, edges=1000)
        first, second = _updates(base, 2)
        batch = [first, ("+", *next(base.iter_edges()))]
        wal_dir = tmp_path / "cluster"
        reference = DynamicGraph(base)
        with pytest.raises(GraphConstructionError):
            reference.apply_updates(batch)
        engine = PPREngine(reference, alpha=0.2, seed=0)

        with ShardedDispatcher(
            DynamicGraph(base), workers=2, wal_dir=wal_dir, max_restarts=2
        ) as dispatcher:
            with pytest.raises(GraphConstructionError):
                dispatcher.apply_updates(batch)
            assert dispatcher.graph_version == 1
            assert dispatcher.durability.pending_updates == 0
            _assert_serves(dispatcher, engine, 1)

            reference.apply_updates([second])
            assert dispatcher.apply_updates([second]) == 2

            os.kill(dispatcher._states[0].process.pid, signal.SIGKILL)
            wait_for(_respawned(dispatcher), "the killed shard to respawn")
            supervisor = dispatcher.stats()["supervisor"]
            assert supervisor["removed"] == []
            assert supervisor["degraded_capacity"] is False
            _assert_serves(dispatcher, engine, 2)

        with ShardedDispatcher(
            DynamicGraph(base), workers=2, wal_dir=wal_dir
        ) as dispatcher:
            assert dispatcher.recovered_version == 2
            _assert_serves(dispatcher, engine, 2)

    def test_invalid_first_update_touches_nothing(self, tmp_path, shm_files):
        base = _base(scale=8, edges=1000)
        wal_dir = tmp_path / "cluster"
        with ShardedDispatcher(
            DynamicGraph(base), workers=2, wal_dir=wal_dir
        ) as dispatcher:
            segments, on_disk = shm_files(), _wal_state(wal_dir)
            with pytest.raises(GraphConstructionError):
                dispatcher.apply_updates(
                    [("+", *next(base.iter_edges())), _updates(base, 1)[0]]
                )
            assert dispatcher.graph_version == 0
            assert shm_files() == segments
            assert _wal_state(wal_dir) == on_disk

    @pytest.mark.slow
    def test_soak_a_thousand_barriers_and_a_kill_grow_nothing(
        self, tmp_path, shm_files, wait_for
    ):
        """Neither ``/dev/shm`` nor any container the dispatcher holds
        may grow with the number of updates the cluster has seen."""
        base = _base(scale=8, edges=1000)
        scratch = DynamicGraph(base)
        rng = np.random.default_rng(11)

        def sizes(dispatcher):
            return {
                name: len(value)
                for name, value in vars(dispatcher).items()
                if hasattr(value, "__len__")
            }

        with ShardedDispatcher(
            DynamicGraph(base),
            workers=2,
            wal_dir=tmp_path / "cluster",
            checkpoint_every=200,
        ) as dispatcher:
            mirror = dispatcher.durability.graph
            segments = len(shm_files())
            for count in range(1, 1001):
                update = sample_edge_update(scratch, rng)
                scratch.apply_updates([update])
                assert dispatcher.apply_updates([update]) == count
                assert mirror.journal_floor == dispatcher.graph_version
                # The exported snapshot became the base: no overlay to
                # re-merge at the next barrier, and no checkpoint but
                # the ``checkpoint_every`` ones.
                assert mirror.pending_updates == 0
                assert (
                    dispatcher.durability.stats()["last_checkpoint_version"]
                    == count - count % 200
                )
                assert len(shm_files()) == segments
                if count == 250:
                    early = sizes(dispatcher)
                if count == 500:
                    os.kill(
                        dispatcher._states[0].process.pid, signal.SIGKILL
                    )
                    # (a writer that never pauses can keep the respawn
                    # waiting for its turn: let it in)
                    wait_for(_respawned(dispatcher), "the respawn")
            late = sizes(dispatcher)
            assert early and all(
                late[name] <= size for name, size in early.items()
            ), (early, late)
            assert dispatcher.stats()["supervisor"]["respawns"] == 1
            assert dispatcher.num_workers == 2
            _assert_serves(
                dispatcher, PPREngine(scratch, alpha=0.2, seed=0), 1000
            )

    def test_wal_dir_rejects_static_graph(self, tmp_path):
        with pytest.raises(ParameterError, match="dynamic"):
            ShardedDispatcher(
                _base(), workers=2, dynamic=False, wal_dir=tmp_path / "s"
            )
