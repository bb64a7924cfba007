"""Checkpoint store, DurabilityManager, and crash-recovery semantics.

The contract under test: checkpoint + WAL-suffix replay reconstructs
exactly the state an uninterrupted run would hold — same version, byte
identical CSR — for any interleaving of updates, compactions, and
checkpoints, and every simulated crash (scheduled process kill, torn
tail at every byte offset) recovers to the logged version.
"""

from __future__ import annotations

import hashlib
import json
import zipfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_graph_io import compress_types, deflated_save_npz

from repro.durability import (
    CheckpointStore,
    DurabilityManager,
    WalPosition,
    graph_fingerprint,
    open_durable_graph,
    run_crash_harness,
    torn_tail_sweep,
)
from repro.api.engine import PPREngine
from repro.durability import checkpoint as checkpoint_module
from repro.durability.checkpoint import sha256_file
from repro.errors import (
    CheckpointError,
    GraphConstructionError,
    ParameterError,
    RecoveryError,
)
from repro.generators.rmat import rmat_digraph
from repro.graph.build import paper_example_graph
from repro.graph.dynamic import DynamicGraph, sample_edge_update
from repro.graph.io import load_npz, save_npz


def _graph(seed=3, scale=6, edges=120):
    return rmat_digraph(
        scale, edges, rng=np.random.default_rng(seed), name="dur-test"
    )


def _updates(base, count, seed=17):
    scratch = DynamicGraph(base)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        update = sample_edge_update(scratch, rng)
        scratch.apply_updates([update])
        out.append(update)
    return out


def _same_csr(a, b):
    snap_a, snap_b = a.snapshot(), b.snapshot()
    return np.array_equal(
        snap_a.out_indptr, snap_b.out_indptr
    ) and np.array_equal(snap_a.out_indices, snap_b.out_indices)


class TestCheckpointStore:
    def test_write_load_round_trip(self, tmp_path):
        base = _graph()
        graph = DynamicGraph(base)
        graph.apply_updates(_updates(base, 5))
        store = CheckpointStore(tmp_path)
        info = store.write(graph, WalPosition(0, 0))
        assert info.version == 5
        loaded = store.load(store.latest())
        assert loaded.version == 5
        assert _same_csr(loaded, graph)

    def test_virgin_store_has_no_latest(self, tmp_path):
        assert CheckpointStore(tmp_path).latest() is None

    def test_corrupt_artifact_refused(self, tmp_path):
        store = CheckpointStore(tmp_path)
        info = store.write(DynamicGraph(_graph()), WalPosition(0, 0))
        payload = bytearray(info.graph_path.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        info.graph_path.write_bytes(bytes(payload))
        with pytest.raises(CheckpointError, match="SHA-256"):
            store.load(store.latest())

    def test_missing_artifact_refused(self, tmp_path):
        store = CheckpointStore(tmp_path)
        info = store.write(DynamicGraph(_graph()), WalPosition(0, 0))
        info.graph_path.unlink()
        with pytest.raises(CheckpointError, match="missing"):
            store.load(store.latest())

    def test_pointer_to_missing_directory_refused(self, tmp_path):
        store = CheckpointStore(tmp_path)
        info = store.write(DynamicGraph(_graph()), WalPosition(0, 0))
        import shutil

        shutil.rmtree(info.path)
        with pytest.raises(CheckpointError, match="no such directory"):
            store.latest()

    def test_cleanup_sweeps_orphans_but_keeps_pointed(self, tmp_path):
        store = CheckpointStore(tmp_path)
        info = store.write(DynamicGraph(_graph()), WalPosition(0, 0))
        (tmp_path / ".tmp-ckpt-000000000009").mkdir()
        (tmp_path / "ckpt-000000000042").mkdir()
        assert store.cleanup() == 2
        assert info.path.is_dir()
        assert store.latest().version == 0

    def test_fingerprint_tracks_content(self):
        base = _graph()
        graph = DynamicGraph(base)
        before = graph_fingerprint(graph.snapshot())
        graph.apply_updates(_updates(base, 1))
        assert graph_fingerprint(graph.snapshot()) != before

    @pytest.mark.parametrize("which", ["paper", "rmat", "updated snapshot"])
    def test_fingerprint_is_the_tobytes_formula(self, which):
        if which == "paper":
            graph = paper_example_graph()
        elif which == "rmat":
            graph = _graph(seed=5, scale=9, edges=3000)
        else:
            base = _graph()
            dynamic = DynamicGraph(base)
            dynamic.apply_updates(_updates(base, 7))
            graph = dynamic.snapshot()
        want = hashlib.sha256(
            np.int64(graph.num_nodes).tobytes()
            + graph.out_indptr.tobytes()
            + graph.out_indices.tobytes()
        ).hexdigest()
        assert graph_fingerprint(graph) == want


class TestCheckpointFormats:
    """Checkpoints store ``graph.npz`` uncompressed; a checkpoint whose
    ``graph.npz`` was written deflated still recovers byte for byte."""

    @pytest.mark.parametrize(
        "writer, compress_type",
        [(save_npz, zipfile.ZIP_STORED), (deflated_save_npz, zipfile.ZIP_DEFLATED)],
        ids=["stored", "deflated"],
    )
    def test_recover_reads_either_format(
        self, writer, compress_type, tmp_path, monkeypatch
    ):
        base = _graph()
        updates = _updates(base, 6)
        with monkeypatch.context() as patch:
            patch.setattr(checkpoint_module, "save_npz", writer)
            manager, graph = open_durable_graph(tmp_path, base)
            graph.apply_updates(updates[:4])
            manager.checkpoint()
            graph.apply_updates(updates[4:])
            manager.close()

        info = CheckpointStore(tmp_path / "checkpoints").latest()
        assert info.version == 4
        assert compress_types(info.graph_path) == {compress_type}
        manifest = json.loads((info.path / "manifest.json").read_text())
        assert manifest["checksums"]["graph.npz"] == sha256_file(info.graph_path)
        assert manifest["graph"]["fingerprint"] == graph_fingerprint(
            load_npz(info.graph_path)
        )

        manager2 = DurabilityManager(tmp_path)
        recovered = manager2.recover()
        reference = DynamicGraph(base)
        reference.apply_updates(updates)
        assert recovered.version == 6
        assert manager2.replayed_records == 1
        assert _same_csr(recovered, reference)
        manager2.close()


class TestManagerLifecycle:
    def test_bootstrap_then_recover(self, tmp_path):
        base = _graph()
        updates = _updates(base, 9)
        manager, graph = open_durable_graph(tmp_path, base)
        graph.apply_updates(updates[:4])
        manager.flush()
        graph.apply_updates(updates[4:])
        manager.flush()
        manager.close()

        manager2, recovered = open_durable_graph(tmp_path)
        reference = DynamicGraph(base)
        reference.apply_updates(updates)
        assert recovered.version == 9
        assert manager2.replayed_records == 2
        assert _same_csr(recovered, reference)
        manager2.close()

    def test_recover_ignores_supplied_base(self, tmp_path):
        base = _graph()
        manager, graph = open_durable_graph(tmp_path, base)
        graph.apply_updates(_updates(base, 3))
        manager.flush()
        manager.close()
        # The disk wins over a (different) in-memory seed.
        manager2, recovered = open_durable_graph(tmp_path, _graph(seed=99))
        assert recovered.version == 3
        manager2.close()

    def test_virgin_directory_without_base_refused(self, tmp_path):
        with pytest.raises(RecoveryError, match="no durable state"):
            open_durable_graph(tmp_path)

    def test_bootstrap_over_existing_state_refused(self, tmp_path):
        manager, _graph_ = open_durable_graph(tmp_path, _graph())
        manager.close()
        fresh = DurabilityManager(tmp_path)
        with pytest.raises(RecoveryError, match="already holds"):
            fresh.bootstrap(DynamicGraph(_graph()))
        fresh.close()

    def test_unflushed_updates_flushed_on_close(self, tmp_path):
        base = _graph()
        manager, graph = open_durable_graph(tmp_path, base)
        graph.apply_updates(_updates(base, 2))
        assert manager.pending_updates == 2
        manager.close()
        manager2, recovered = open_durable_graph(tmp_path)
        assert recovered.version == 2
        manager2.close()

    def test_engine_flushes_the_valid_prefix_of_a_failing_batch(
        self, tmp_path
    ):
        """fsync-before-ack on the error path: a batch that raises
        after a valid prefix has moved the version readers see, so the
        prefix must be in the WAL before the exception gets out."""
        base = _graph()
        manager, graph = open_durable_graph(tmp_path, base)
        engine = PPREngine(graph, alpha=0.2, seed=7)
        engine.attach_durability(manager)
        try:
            with pytest.raises(GraphConstructionError):
                engine.apply_updates(
                    [_updates(base, 1)[0], ("+", *next(base.iter_edges()))]
                )
            assert engine.graph_version == 1
            assert manager.pending_updates == 0
            assert graph.journal_floor == 1
            # What a crash right now would come back to: the first
            # manager is still open and has flushed nothing on close.
            manager2, recovered = open_durable_graph(tmp_path, None)
            manager2.close()
            assert recovered.version == engine.graph_version
        finally:
            manager.close()

    def test_one_hook_per_graph(self, tmp_path):
        base = _graph()
        manager, graph = open_durable_graph(tmp_path / "a", base)
        other = DurabilityManager(tmp_path / "b")
        with pytest.raises(ParameterError, match="hook"):
            graph.attach_wal_hook(other)
        manager.close()
        other.close()


class TestCheckpointTriggers:
    def test_auto_checkpoint_every(self, tmp_path):
        base = _graph()
        updates = _updates(base, 12)
        manager, graph = open_durable_graph(tmp_path, base, checkpoint_every=5)
        for start in range(0, 12, 3):
            graph.apply_updates(updates[start : start + 3])
            manager.flush()
        # Batches land at versions 3,6,9,12; the 5-update threshold
        # fires after the 6- and 12-version flushes.
        assert manager.stats()["last_checkpoint_version"] == 12
        latest = manager.store.latest()
        assert latest.version == 12
        # Covered segments were pruned: the WAL restarts at the
        # checkpoint's segment.
        assert manager.wal.segments[0] == latest.wal.segment
        manager.close()
        manager2, recovered = open_durable_graph(tmp_path)
        assert recovered.version == 12
        assert manager2.replayed_records == 0
        manager2.close()

    def test_compact_writes_no_checkpoint_and_recovers(self, tmp_path):
        base = _graph()
        updates = _updates(base, 6)
        manager, graph = open_durable_graph(tmp_path, base)
        graph.apply_updates(updates[:4])
        manager.flush()
        graph.compact()
        # A rebase is an in-memory matter: the bootstrap checkpoint and
        # the logical WAL records still describe the graph.
        assert manager.store.latest().version == 0
        assert manager.stats()["last_checkpoint_version"] == 0
        # Post-compact updates replay on top of the same history.
        graph.apply_updates(updates[4:])
        manager.flush()
        manager.close()
        manager2, recovered = open_durable_graph(tmp_path)
        reference = DynamicGraph(base)
        reference.apply_updates(updates)
        assert recovered.version == 6
        assert _same_csr(recovered, reference)
        manager2.close()

    def test_compact_with_unflushed_tail_is_durable(self, tmp_path):
        base = _graph()
        updates = _updates(base, 3)
        manager, graph = open_durable_graph(tmp_path, base)
        graph.apply_updates(updates)  # no flush before compact
        graph.compact()
        manager.close()
        manager2, recovered = open_durable_graph(tmp_path)
        assert recovered.version == 3
        manager2.close()

    def test_demand_checkpoint_prunes_wal(self, tmp_path):
        base = _graph()
        manager, graph = open_durable_graph(tmp_path, base)
        graph.apply_updates(_updates(base, 4))
        manager.flush()
        before = manager.wal.segments
        manager.checkpoint()
        assert manager.wal.segments[0] > before[0]
        manager.close()


class TestCrashRecovery:
    def test_scheduled_kills_recover_byte_identically(self, tmp_path):
        result = run_crash_harness(workdir=tmp_path)
        assert result["ok"], result
        # The post-append kill must prove "durable beyond the ack" is
        # admitted, never the reverse.
        for case in result["cases"]:
            assert case["recovered_version"] >= case["acked_version"]

    def test_torn_tail_sweep_heals_every_offset(self, tmp_path):
        result = torn_tail_sweep(workdir=tmp_path)
        assert result["ok"], result
        assert result["offsets_ok"] == result["offsets_tested"] > 0


@st.composite
def update_scripts(draw):
    """A random interleaving of update batches, compactions, and
    checkpoints over a small R-MAT graph."""
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("batch"), st.integers(1, 4)),
                st.just(("compact", 0)),
                st.just(("checkpoint", 0)),
            ),
            min_size=1,
            max_size=8,
        )
    )
    seed = draw(st.integers(0, 2**16))
    return ops, seed


class TestReplayEquivalenceProperty:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(update_scripts())
    def test_recovery_equals_uninterrupted_run(self, tmp_path_factory, script):
        ops, seed = script
        root = tmp_path_factory.mktemp("durable")
        base = _graph(seed=seed % 101)
        total = sum(count for kind, count in ops if kind == "batch")
        updates = _updates(base, max(total, 1), seed=seed)
        manager, graph = open_durable_graph(root, base)
        cursor = 0
        for kind, count in ops:
            if kind == "batch":
                graph.apply_updates(updates[cursor : cursor + count])
                cursor += count
                manager.flush()
            elif kind == "compact":
                graph.compact()
            else:
                manager.checkpoint()
        manager.close()

        manager2, recovered = open_durable_graph(root)
        reference = DynamicGraph(base)
        reference.apply_updates(updates[:cursor])
        assert recovered.version == reference.version == cursor
        assert _same_csr(recovered, reference)
        manager2.close()
