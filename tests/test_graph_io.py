"""Unit tests for graph I/O (SNAP edge lists and binary cache)."""

import io
import struct
import zipfile
from pathlib import Path

import numpy as np
import pytest
from test_graph_build import assert_same_csr

from repro.errors import GraphFormatError, IndexBuildError
from repro.generators import datasets as datasets_module
from repro.generators.datasets import generate_dataset, load_dataset
from repro.generators.rmat import rmat_digraph
from repro.graph.build import from_edges, paper_example_graph
from repro.graph.io import (
    load_npz,
    parse_edge_list,
    read_edge_list,
    save_npz,
    write_edge_list,
)
from repro.walks.index import build_walk_index, speedppr_walk_counts
from repro.walks.storage import load_walk_index, save_walk_index


def deflated_save_npz(graph, path):
    """``save_npz`` as graph caches and checkpoints were first written:
    the same members, deflated by ``np.savez_compressed``."""
    np.savez_compressed(
        Path(path),
        out_indptr=graph.out_indptr,
        out_indices=graph.out_indices,
        name=np.array(graph.name),
        undirected_origin=np.array(graph.undirected_origin),
    )


def compress_types(path):
    with zipfile.ZipFile(path) as archive:
        return {info.compress_type for info in archive.infolist()}


class TestParseEdgeList:
    def test_basic(self):
        graph, report = parse_edge_list("0 1\n1 2\n2 0\n")
        assert graph.num_nodes == 3
        assert graph.num_edges == 3

    def test_comments_and_blank_lines(self):
        text = "# SNAP header\n% alt comment\n\n0\t1\n1\t0\n"
        graph, _ = parse_edge_list(text)
        assert graph.num_edges == 2

    def test_symmetrize(self):
        graph, _ = parse_edge_list("0 1\n", symmetrize=True)
        assert graph.num_edges == 2

    def test_sparse_ids_relabelled(self):
        graph, _ = parse_edge_list("1000 2000\n2000 1000\n")
        assert graph.num_nodes == 2

    def test_rejects_wrong_token_count(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_edge_list("0 1 2\n")

    def test_rejects_non_integer(self):
        with pytest.raises(GraphFormatError, match="non-integer"):
            parse_edge_list("a b\n")

    def test_rejects_negative_id(self):
        with pytest.raises(GraphFormatError, match="negative"):
            parse_edge_list("-1 0\n")


class TestFileRoundTrips:
    def test_edge_list_round_trip(self, tmp_path):
        graph = paper_example_graph()
        path = tmp_path / "graph.txt"
        write_edge_list(graph, path)
        loaded, report = read_edge_list(path)
        assert loaded.num_nodes == graph.num_nodes
        assert loaded.num_edges == graph.num_edges
        sources_a, targets_a = graph.edge_array()
        sources_b, targets_b = loaded.edge_array()
        np.testing.assert_array_equal(sources_a, sources_b)
        np.testing.assert_array_equal(targets_a, targets_b)

    def test_read_uses_filename_as_default_name(self, tmp_path):
        path = tmp_path / "mygraph.txt"
        write_edge_list(from_edges([(0, 1), (1, 0)]), path)
        loaded, _ = read_edge_list(path)
        assert loaded.name == "mygraph"

    def test_npz_round_trip(self, tmp_path):
        graph = paper_example_graph()
        path = tmp_path / "graph.npz"
        save_npz(graph, path)
        loaded = load_npz(path)
        assert loaded == graph
        assert loaded.name == graph.name
        assert loaded.undirected_origin == graph.undirected_origin

    def test_npz_rejects_garbage(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not an npz file")
        with pytest.raises(GraphFormatError):
            load_npz(path)

    def test_npz_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "partial.npz"
        np.savez(path, out_indptr=np.array([0, 0]))
        with pytest.raises(GraphFormatError):
            load_npz(path)


class TestNpzFormats:
    """Graph caches are written stored; deflated ones still load."""

    def test_save_npz_stores_members(self, tmp_path):
        path = tmp_path / "graph.npz"
        save_npz(paper_example_graph(), path)
        assert compress_types(path) == {zipfile.ZIP_STORED}

    def test_walk_index_stays_deflated(self, tmp_path):
        # Table 2 reports the index's on-disk size.
        save_walk_index(_walk_index(), tmp_path / "walks.npz")
        assert compress_types(tmp_path / "walks.npz") == {zipfile.ZIP_DEFLATED}

    @pytest.mark.parametrize("writer", [save_npz, deflated_save_npz])
    def test_both_formats_load_byte_equal(self, writer, tmp_path):
        graph = generate_dataset("webst-s", scale=0.2)
        path = tmp_path / "graph.npz"
        writer(graph, path)
        loaded = load_npz(path)
        assert_same_csr(loaded, graph)
        assert loaded.name == graph.name
        assert loaded.undirected_origin == graph.undirected_origin

    @pytest.mark.parametrize("writer", [save_npz, deflated_save_npz])
    def test_load_dataset_reads_either_cache(self, writer, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        graph = generate_dataset("dblp-s", scale=0.1)
        writer(graph, datasets_module._cache_path("dblp-s", 0.1))

        def refuse(*args, **kwargs):
            raise AssertionError("the cache file was not used")

        monkeypatch.setattr(datasets_module, "generate_dataset", refuse)
        datasets_module.clear_dataset_cache()
        try:
            loaded = load_dataset("dblp-s", scale=0.1)
        finally:
            datasets_module.clear_dataset_cache()
        assert_same_csr(loaded, graph)
        assert loaded.undirected_origin == graph.undirected_origin


def _graph_members():
    graph = rmat_digraph(6, 100, rng=np.random.default_rng(1), name="damaged")
    return {
        "out_indptr": graph.out_indptr,
        "out_indices": graph.out_indices,
        "name": np.array(graph.name),
        "undirected_origin": np.array(graph.undirected_origin),
    }


def _walk_index():
    graph = rmat_digraph(5, 60, rng=np.random.default_rng(2))
    return build_walk_index(
        graph, speedppr_walk_counts(graph), rng=np.random.default_rng(3)
    )


def _walk_members():
    index = _walk_index()
    return {
        "indptr": index.indptr,
        "stops": index.stops,
        "alpha": np.array(index.alpha),
        "policy": np.array(index.policy),
        "construction_seconds": np.array(index.construction_seconds),
        "graph_num_nodes": np.array(index.graph_num_nodes),
        "graph_num_edges": np.array(index.graph_num_edges),
    }


#: loader, its typed error, the members it reads, and the arrays that
#: must come back unchanged when a damaged file still loads.
LOADERS = {
    "graph": (
        load_npz,
        GraphFormatError,
        _graph_members,
        lambda graph: (graph.out_indptr, graph.out_indices),
    ),
    "walk-index": (
        load_walk_index,
        IndexBuildError,
        _walk_members,
        lambda index: (index.indptr, index.stops),
    ),
}

#: stored (``save_npz``) and deflated (graph files before, and
#: ``save_walk_index`` still).
WRITERS = {"stored": np.savez, "deflated": np.savez_compressed}


def _flip(data, position):
    damaged = bytearray(data)
    damaged[position] ^= 0xFF
    return bytes(damaged)


def _flip_in_largest_member(data):
    """Flip the middle byte of the largest member's (stored or deflated)
    data, where only its CRC-32 or the inflater can notice."""
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        info = max(archive.infolist(), key=lambda info: info.compress_size)
    header = info.header_offset
    name_len, extra_len = struct.unpack("<HH", data[header + 26 : header + 30])
    start = header + 30 + name_len + extra_len
    return _flip(data, start + info.compress_size // 2)


DAMAGES = {
    "cut in half": lambda data: data[: len(data) // 2],
    "zip magic then zeros": lambda data: b"PK\x03\x04" + bytes(len(data) - 4),
    "one flipped byte": _flip_in_largest_member,
}


class TestDamagedNpz:
    """A damaged ``.npz`` raises the loader's typed error, never a
    ``zipfile`` or ``zlib`` exception."""

    @pytest.mark.parametrize("damage", sorted(DAMAGES))
    @pytest.mark.parametrize("fmt", sorted(WRITERS))
    @pytest.mark.parametrize("loader", sorted(LOADERS))
    def test_damage_is_typed(self, loader, fmt, damage, tmp_path):
        load, error, members, _ = LOADERS[loader]
        path = tmp_path / "file.npz"
        WRITERS[fmt](path, **members())
        load(path)
        path.write_bytes(DAMAGES[damage](path.read_bytes()))
        with pytest.raises(error):
            load(path)

    @pytest.mark.parametrize("fmt", sorted(WRITERS))
    @pytest.mark.parametrize("loader", sorted(LOADERS))
    def test_every_flipped_byte(self, loader, fmt, tmp_path):
        # A flip the zip format does not check (a timestamp, say) may
        # load, but never as different arrays.
        load, error, members, arrays = LOADERS[loader]
        path = tmp_path / "file.npz"
        WRITERS[fmt](path, **members())
        data = path.read_bytes()
        want = arrays(load(path))
        for position in range(len(data)):
            path.write_bytes(_flip(data, position))
            try:
                got = arrays(load(path))
            except error:
                continue
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), position
