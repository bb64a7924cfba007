"""Index persistence + warm start: save_indexes / load_indexes.

A restarted server adopts the saved walk-based indexes instead of
re-preprocessing — but only when the manifest's graph stamp (shape
*and* version) and alpha match; anything stale is refused outright.
"""

import json

import numpy as np
import pytest

from repro.api.engine import PPREngine
from repro.errors import IndexMismatchError
from repro.generators.rmat import rmat_digraph
from repro.graph.dynamic import DynamicGraph, sample_edge_update


@pytest.fixture
def graph():
    return rmat_digraph(
        9, 3000, rng=np.random.default_rng(31), name="persist"
    )


@pytest.fixture
def warm_engine(graph):
    """An engine with one walk index and two FORA budgets built."""
    engine = PPREngine(graph, alpha=0.2, seed=11)
    engine.walk_index()
    engine.fora_index(0.5)
    engine.fora_index(0.1)
    return engine


class TestRoundTrip:
    def test_warm_start_skips_preprocessing(self, graph, warm_engine, tmp_path):
        manifest_path = warm_engine.save_indexes(tmp_path)
        assert manifest_path.is_file()

        restarted = PPREngine(graph, alpha=0.2, seed=11)
        assert restarted.load_indexes(tmp_path) == 3
        # The adopted artefacts serve queries without a single build.
        restarted.query(0, method="speedppr", epsilon=0.3, seed=5)
        restarted.query(0, method="fora+", epsilon=0.5, seed=5)
        assert restarted.index_builds == {"walk": 0, "bepi": 0, "fora": 0}

    def test_reload_is_idempotent(self, graph, warm_engine, tmp_path):
        warm_engine.save_indexes(tmp_path)
        restarted = PPREngine(graph, alpha=0.2, seed=11)
        assert restarted.load_indexes(tmp_path) == 3
        # Loading again (or after having built) must not duplicate the
        # in-memory FORA entries.
        assert restarted.load_indexes(tmp_path) == 1  # walk re-adopted only
        resaved = json.loads(
            restarted.save_indexes(tmp_path / "again").read_text()
        )
        kinds = sorted(entry["kind"] for entry in resaved["indexes"])
        assert kinds == ["fora", "fora", "walk"]

    def test_loaded_indexes_answer_identically(
        self, graph, warm_engine, tmp_path
    ):
        warm_engine.save_indexes(tmp_path)
        expected = warm_engine.query(
            2, method="speedppr", epsilon=0.3, seed=9
        )
        restarted = PPREngine(graph, alpha=0.2, seed=11)
        restarted.load_indexes(tmp_path)
        served = restarted.query(2, method="speedppr", epsilon=0.3, seed=9)
        np.testing.assert_array_equal(served.estimate, expected.estimate)

    def test_manifest_contents(self, graph, warm_engine, tmp_path):
        manifest_path = warm_engine.save_indexes(tmp_path)
        manifest = json.loads(manifest_path.read_text())
        assert manifest["graph"]["num_nodes"] == graph.num_nodes
        assert manifest["graph"]["num_edges"] == graph.num_edges
        assert manifest["graph"]["version"] == 0
        assert len(manifest["graph"]["fingerprint"]) == 64
        kinds = sorted(entry["kind"] for entry in manifest["indexes"])
        assert kinds == ["fora", "fora", "walk"]

    def test_restarted_server_warm_starts_rewrapped_graph(self, tmp_path):
        """The production restart path: updates applied, graph
        compacted and persisted, process restarts with a fresh
        DynamicGraph (version counter back at 0) — the saved indexes
        must still load, because staleness is judged by content."""
        dyn = DynamicGraph(
            rmat_digraph(9, 3000, rng=np.random.default_rng(31), name="p")
        )
        engine = PPREngine(dyn, alpha=0.2, seed=11)
        engine.apply_updates(
            [sample_edge_update(dyn, np.random.default_rng(3))]
        )
        engine.walk_index()
        engine.save_indexes(tmp_path)
        persisted = dyn.compact()

        restarted_graph = DynamicGraph(persisted)
        assert restarted_graph.version == 0
        restarted = PPREngine(restarted_graph, alpha=0.2, seed=11)
        assert restarted.load_indexes(tmp_path) == 1
        restarted.query(0, method="speedppr", epsilon=0.3, seed=5)
        assert restarted.index_builds["walk"] == 0


class TestArtifactIntegrity:
    """Per-artifact checksums: torn or corrupted files are refused
    with a typed error before a byte of them is trusted."""

    def test_manifest_records_checksum_and_size(
        self, graph, warm_engine, tmp_path
    ):
        manifest = json.loads(
            warm_engine.save_indexes(tmp_path).read_text()
        )
        for entry in manifest["indexes"]:
            assert len(entry["sha256"]) == 64
            assert entry["bytes"] == (tmp_path / entry["file"]).stat().st_size

    def test_corrupted_artifact_refused(self, graph, warm_engine, tmp_path):
        warm_engine.save_indexes(tmp_path)
        target = tmp_path / "walk.npz"
        payload = bytearray(target.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        target.write_bytes(bytes(payload))
        engine = PPREngine(graph, alpha=0.2, seed=11)
        with pytest.raises(IndexMismatchError, match="SHA-256"):
            engine.load_indexes(tmp_path)

    def test_truncated_artifact_refused(self, graph, warm_engine, tmp_path):
        warm_engine.save_indexes(tmp_path)
        target = tmp_path / "walk.npz"
        target.write_bytes(target.read_bytes()[:-10])
        engine = PPREngine(graph, alpha=0.2, seed=11)
        with pytest.raises(IndexMismatchError, match="truncat"):
            engine.load_indexes(tmp_path)

    def test_deleted_artifact_refused(self, graph, warm_engine, tmp_path):
        warm_engine.save_indexes(tmp_path)
        (tmp_path / "fora_w0.5.npz").unlink(missing_ok=True)
        removed = [
            p for p in tmp_path.glob("fora_*.npz")
        ]
        if removed:
            removed[0].unlink()
        engine = PPREngine(graph, alpha=0.2, seed=11)
        with pytest.raises(IndexMismatchError, match="missing"):
            engine.load_indexes(tmp_path)


class TestStaleRefusal:
    def test_version_mismatch_refused(self, tmp_path):
        dyn = DynamicGraph(
            rmat_digraph(9, 3000, rng=np.random.default_rng(31), name="p")
        )
        engine = PPREngine(dyn, alpha=0.2, seed=11)
        engine.walk_index()
        engine.save_indexes(tmp_path)
        engine.apply_updates(
            [sample_edge_update(dyn, np.random.default_rng(0))]
        )
        with pytest.raises(IndexMismatchError, match="stale"):
            engine.load_indexes(tmp_path)

    def test_different_graph_refused(self, warm_engine, tmp_path):
        warm_engine.save_indexes(tmp_path)
        other = rmat_digraph(
            9, 2500, rng=np.random.default_rng(99), name="other"
        )
        engine = PPREngine(other, alpha=0.2, seed=11)
        with pytest.raises(IndexMismatchError, match="stale"):
            engine.load_indexes(tmp_path)

    def test_alpha_mismatch_refused(self, graph, warm_engine, tmp_path):
        warm_engine.save_indexes(tmp_path)
        engine = PPREngine(graph, alpha=0.15, seed=11)
        with pytest.raises(IndexMismatchError, match="alpha"):
            engine.load_indexes(tmp_path)

    def test_missing_manifest_refused(self, graph, tmp_path):
        engine = PPREngine(graph, alpha=0.2, seed=11)
        with pytest.raises(IndexMismatchError, match="manifest"):
            engine.load_indexes(tmp_path)

    def test_unknown_format_refused(self, graph, warm_engine, tmp_path):
        path = warm_engine.save_indexes(tmp_path)
        manifest = json.loads(path.read_text())
        manifest["format"] = 99
        path.write_text(json.dumps(manifest))
        engine = PPREngine(graph, alpha=0.2, seed=11)
        with pytest.raises(IndexMismatchError, match="format"):
            engine.load_indexes(tmp_path)

    def test_save_after_update_stamps_new_version(self, tmp_path):
        dyn = DynamicGraph(
            rmat_digraph(9, 3000, rng=np.random.default_rng(31), name="p")
        )
        engine = PPREngine(dyn, alpha=0.2, seed=11)
        engine.walk_index()
        engine.apply_updates(
            [sample_edge_update(dyn, np.random.default_rng(0))]
        )
        engine.walk_index()  # rebuild at the new version
        manifest_path = engine.save_indexes(tmp_path)
        manifest = json.loads(manifest_path.read_text())
        assert manifest["graph"]["version"] == 1
        # A second engine over the same dynamic graph warm-starts fine.
        twin = PPREngine(dyn, alpha=0.2, seed=11)
        assert twin.load_indexes(tmp_path) == 1
