"""Unit tests for the synthetic graph generators."""

import hashlib
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_graph_build import (
    assert_same_csr,
    reference_first_occurrences,
    reference_from_edge_arrays,
)

from repro.cli import main
from repro.core import kernels
from repro.core.kernels import inverse_cdf, inverse_cdf_guide
from repro.errors import ParameterError
from repro.generators import chung_lu as chung_lu_module
from repro.generators import datasets as datasets_module
from repro.generators import rmat as rmat_module
from repro.generators.ba import barabasi_albert_digraph
from repro.generators.chung_lu import chung_lu_digraph, power_law_digraph
from repro.generators.datasets import (
    DATASETS,
    dataset_names,
    generate_dataset,
    load_dataset,
)
from repro.generators.powerlaw import (
    expected_pareto_mean,
    sample_power_law_degrees,
    scale_degrees_to_total,
)
from repro.generators.rmat import rmat_digraph
from repro.graph import cleaning as cleaning_module
from repro.graph import transforms as transforms_module
from repro.graph.build import from_edge_arrays, from_sorted_keys
from repro.graph.cleaning import clean
from repro.graph.stats import compute_stats

# Dependency floor: the vectorised Chung-Lu sampler and R-MAT's uint32 ids and
# presence-mask ranks against their sort / searchsorted / unique references.
pytestmark = pytest.mark.floor


def reference_chung_lu(
    out_weights,
    in_weights,
    num_edges,
    *,
    rng,
    name="chung-lu",
    ensure_min_out_degree=1,
    max_resample_rounds=64,
):
    """The Chung–Lu sampler as a Python loop over a ``set`` of edge keys,
    searching the uniforms as drawn: the vectorised sampler must return
    exactly its graph (and leave ``rng`` in the same state).  Inputs are
    assumed valid."""
    out_weights = np.asarray(out_weights, dtype=np.float64)
    in_weights = np.asarray(in_weights, dtype=np.float64)
    num_nodes = out_weights.shape[0]
    out_cdf = np.cumsum(out_weights) / out_weights.sum()
    in_cdf = np.cumsum(in_weights) / in_weights.sum()
    seen = set()
    sources, targets = [], []
    needed = num_edges
    for _ in range(max_resample_rounds):
        if needed <= 0:
            break
        batch = max(needed + needed // 4, 16)
        src = np.searchsorted(out_cdf, rng.random(batch)).tolist()
        dst = np.searchsorted(in_cdf, rng.random(batch)).tolist()
        for s, d in zip(src, dst):
            if s == d or s * num_nodes + d in seen:
                continue
            seen.add(s * num_nodes + d)
            sources.append(s)
            targets.append(d)
            needed -= 1
            if needed == 0:
                break
    out_deg = np.bincount(np.array(sources, dtype=np.int64), minlength=num_nodes)
    for node in np.flatnonzero(out_deg < ensure_min_out_degree).tolist():
        missing = ensure_min_out_degree - int(out_deg[node])
        attempts = 0
        while missing > 0 and attempts < 100:
            attempts += 1
            target = int(np.searchsorted(in_cdf, rng.random()))
            if target == node or node * num_nodes + target in seen:
                continue
            seen.add(node * num_nodes + target)
            sources.append(node)
            targets.append(target)
            missing -= 1
        target = (node + 1) % num_nodes
        while missing > 0:
            if target != node and node * num_nodes + target not in seen:
                seen.add(node * num_nodes + target)
                sources.append(node)
                targets.append(target)
                missing -= 1
            target = (target + 1) % num_nodes
    return reference_from_edge_arrays(
        np.array(sources, dtype=np.int64),
        np.array(targets, dtype=np.int64),
        num_nodes=num_nodes,
        name=name,
        dedup=True,
        drop_self_loops=False,
    )


def reference_rmat(
    scale,
    num_edges,
    *,
    a=0.57,
    b=0.19,
    c=0.19,
    rng,
    name="rmat",
    noise=0.1,
    ensure_no_dead_ends=True,
):
    """R-MAT with ``int64`` ids built bit by bit and compacted by
    ``np.union1d`` + ``np.searchsorted``: the ``uint32`` ids and the
    presence-mask ranks of :func:`rmat_digraph` must return exactly its
    graph (and leave ``rng`` in the same state).  Inputs are assumed
    valid."""
    d = 1.0 - a - b - c
    oversample = int(num_edges * 1.3) + 16
    rows = np.zeros(oversample, dtype=np.int64)
    cols = np.zeros(oversample, dtype=np.int64)
    for level in range(scale):
        jitter = 1.0 + noise * (2.0 * rng.random(4) - 1.0)
        pa, pb, pc, pd = np.array([a, b, c, d]) * jitter
        total = pa + pb + pc + pd
        pa, pb, pc = pa / total, pb / total, pc / total
        u = rng.random(oversample)
        right = u >= pa + pb
        down = (u >= pa) & (u < pa + pb) | (u >= pa + pb + pc)
        rows |= right.astype(np.int64) << level
        cols |= down.astype(np.int64) << level
    mask = rows != cols
    rows, cols = rows[mask], cols[mask]
    first = reference_first_occurrences(rows << scale | cols)[:num_edges]
    rows, cols = rows[first], cols[first]
    node_ids = np.union1d(rows, cols)
    rows = np.searchsorted(node_ids, rows)
    cols = np.searchsorted(node_ids, cols)
    num_nodes = int(node_ids.shape[0])
    if ensure_no_dead_ends and num_nodes > 1:
        out_deg = np.bincount(rows, minlength=num_nodes)
        dead = np.flatnonzero(out_deg == 0)
        if dead.shape[0]:
            extra_targets = cols[rng.integers(0, cols.shape[0], size=dead.shape[0])]
            collide = extra_targets == dead
            extra_targets[collide] = (dead[collide] + 1) % num_nodes
            rows = np.concatenate([rows, dead])
            cols = np.concatenate([cols, extra_targets])
    return reference_from_edge_arrays(
        rows, cols, num_nodes=num_nodes, name=name, dedup=True, drop_self_loops=True
    )


@contextmanager
def reference_builders(monkeypatch):
    """Route the generators and the cleaning pipeline through the
    reference sampler, duplicate filter and CSR builder."""
    with monkeypatch.context() as patch:
        patch.setattr(chung_lu_module, "chung_lu_digraph", reference_chung_lu)
        patch.setattr(datasets_module, "rmat_digraph", reference_rmat)
        for module in (rmat_module, cleaning_module):
            patch.setattr(module, "first_occurrences", reference_first_occurrences)
        for module in (rmat_module, transforms_module, cleaning_module):
            patch.setattr(module, "from_edge_arrays", reference_from_edge_arrays)
        yield


class TestPowerLawSampling:
    def test_respects_bounds(self, rng):
        degrees = sample_power_law_degrees(
            1000, exponent=2.5, d_min=2, d_max=50, rng=rng
        )
        assert degrees.min() >= 2
        assert degrees.max() <= 50

    def test_heavy_tail_present(self, rng):
        degrees = sample_power_law_degrees(
            5000, exponent=2.1, d_min=1, rng=rng
        )
        # A heavy-tailed sample has a max far above its mean.
        assert degrees.max() > 10 * degrees.mean()

    def test_rejects_bad_exponent(self, rng):
        with pytest.raises(ParameterError):
            sample_power_law_degrees(10, exponent=1.0, rng=rng)

    def test_rejects_bad_dmin(self, rng):
        with pytest.raises(ParameterError):
            sample_power_law_degrees(10, exponent=2.0, d_min=0, rng=rng)

    def test_empty(self, rng):
        assert sample_power_law_degrees(0, exponent=2.5, rng=rng).shape == (0,)

    def test_scale_to_total_exact(self, rng):
        degrees = sample_power_law_degrees(500, exponent=2.5, rng=rng)
        scaled = scale_degrees_to_total(degrees, 4000, rng=rng)
        assert int(scaled.sum()) == 4000
        assert scaled.min() >= 1

    def test_scale_to_total_rejects_impossible(self, rng):
        with pytest.raises(ParameterError):
            scale_degrees_to_total(np.array([1, 1, 1]), 2, rng=rng)

    def test_expected_mean_monotone_in_exponent(self):
        low = expected_pareto_mean(2.1, 1, 1000)
        high = expected_pareto_mean(3.0, 1, 1000)
        assert low > high


class TestChungLu:
    def test_edge_count_and_no_dead_ends(self, rng):
        graph = power_law_digraph(200, 1200, rng=rng)
        assert graph.num_nodes == 200
        # Dedup may shave a few edges; stay within 2%.
        assert abs(graph.num_edges - 1200) <= 24
        assert not graph.has_dead_ends

    def test_no_self_loops(self, rng):
        graph = power_law_digraph(100, 500, rng=rng)
        sources, targets = graph.edge_array()
        assert not np.any(sources == targets)

    def test_degree_weight_correlation(self, rng):
        # Nodes with 10x the out-weight should get many more out-edges.
        weights_out = np.ones(100)
        weights_out[:10] = 30.0
        graph = chung_lu_digraph(
            weights_out, np.ones(100), 800, rng=rng
        )
        heavy = graph.out_degree[:10].mean()
        light = graph.out_degree[10:].mean()
        assert heavy > 3 * light

    def test_rejects_mismatched_weights(self, rng):
        with pytest.raises(ParameterError):
            chung_lu_digraph(np.ones(5), np.ones(6), 10, rng=rng)

    def test_rejects_negative_weights(self, rng):
        with pytest.raises(ParameterError):
            chung_lu_digraph(
                np.array([-1.0, 1.0]), np.ones(2), 2, rng=rng
            )

    def test_rejects_zero_weights(self, rng):
        with pytest.raises(ParameterError):
            chung_lu_digraph(
                np.zeros(3), np.ones(3), 3, rng=rng
            )

    def test_deterministic_given_seed(self):
        a = power_law_digraph(50, 300, rng=np.random.default_rng(5))
        b = power_law_digraph(50, 300, rng=np.random.default_rng(5))
        assert a == b

    @pytest.mark.parametrize(
        "num_nodes, ensure_min_out_degree", [(1, 1), (2, 2), (5, 5)]
    )
    def test_rejects_unreachable_out_degree_floor(
        self, rng, num_nodes, ensure_min_out_degree
    ):
        # Without self-loops a node has at most n - 1 out-edges; the
        # fallback would cycle through targets forever.
        with pytest.raises(ParameterError, match="ensure_min_out_degree"):
            chung_lu_digraph(
                np.ones(num_nodes),
                np.ones(num_nodes),
                0,
                rng=rng,
                ensure_min_out_degree=ensure_min_out_degree,
            )

    def test_floor_of_n_minus_1_is_met(self, rng):
        graph = chung_lu_digraph(
            np.ones(4), np.ones(4), 0, rng=rng, ensure_min_out_degree=3
        )
        assert graph.out_degree.tolist() == [3, 3, 3, 3]


#: adversarial weight vectors: (out_weights, in_weights, num_edges, floor)
ADVERSARIAL_WEIGHTS = {
    "all in-weight on one node": (np.ones(40), np.eye(1, 40, 7)[0], 300, 1),
    "one dominant in-weight (many rounds)": (
        np.ones(60),
        np.r_[5000.0, np.ones(59)],
        400,
        1,
    ),
    "two nodes": (np.ones(2), np.ones(2), 5, 1),
    "no edges": (np.ones(30), np.ones(30), 0, 1),
    "zero weights on some nodes": (
        np.r_[np.zeros(10), np.arange(1.0, 41.0)],
        np.r_[np.arange(1.0, 41.0), np.zeros(10)],
        250,
        1,
    ),
    "floor of three": (np.r_[50.0, np.ones(19)], np.ones(20), 60, 3),
    "no floor": (np.r_[np.zeros(5), np.ones(15)], np.ones(20), 45, 0),
}


class TestChungLuMatchesReference:
    """The vectorised sampler returns the set-based loop's bytes."""

    @pytest.mark.parametrize("case", sorted(ADVERSARIAL_WEIGHTS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_adversarial_weights(self, case, seed):
        out_w, in_w, num_edges, floor = ADVERSARIAL_WEIGHTS[case]
        got_rng = np.random.default_rng(seed)
        want_rng = np.random.default_rng(seed)
        got = chung_lu_digraph(
            out_w, in_w, num_edges, rng=got_rng, ensure_min_out_degree=floor
        )
        want = reference_chung_lu(
            out_w, in_w, num_edges, rng=want_rng, ensure_min_out_degree=floor
        )
        assert_same_csr(got, want)
        assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("scale", [0.5, 1, 3])
    @pytest.mark.parametrize(
        "name",
        ["dblp-s", "webst-s", "pokec-s", "lj-s", "orkut-s", "twitter-s"],
    )
    def test_analogs(self, name, scale, monkeypatch):
        got = generate_dataset(name, scale=scale)
        with reference_builders(monkeypatch):
            want = generate_dataset(name, scale=scale)
        assert_same_csr(got, want)
        assert got.name == want.name
        assert got.undirected_origin == want.undirected_origin


def guided_search(cdf, uniforms):
    return inverse_cdf(cdf, inverse_cdf_guide(cdf), np.asarray(uniforms, dtype=float))


def assert_is_searchsorted(cdf, uniforms):
    uniforms = np.asarray(uniforms, dtype=float)
    np.testing.assert_array_equal(
        guided_search(cdf, uniforms), np.searchsorted(cdf, uniforms)
    )


def boundaries(n):
    """Every bucket boundary ``b / n`` and the floats either side of it."""
    edges = np.arange(n + 1) / n
    return np.concatenate(
        [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]
    )


@pytest.mark.parametrize("num_random", [0, 1, 7000])
def test_inverse_cdf_is_searchsorted(num_random):
    # Zero weights repeat a CDF value, and uniforms equal to CDF values
    # (0.0 included) sit exactly on the search's tie-break.
    rng = np.random.default_rng(num_random)
    weights = np.r_[0.0, rng.pareto(1.5, 300), 0.0, 0.0, 1.0]
    cdf = np.cumsum(weights) / weights.sum()
    uniforms = np.concatenate([rng.random(num_random), cdf[:-1], [0.0]])
    rng.shuffle(uniforms)
    assert_is_searchsorted(cdf, uniforms)
    assert guided_search(cdf, np.empty(0)).shape == (0,)


class TestInverseCdf:
    """The guide-table search is ``np.searchsorted`` at its corners."""

    def test_above_the_last_value_is_n(self):
        rng = np.random.default_rng(3)
        cdf = np.cumsum(rng.random(50)) / 60.0
        assert cdf[-1] < 1.0
        above = [np.nextafter(cdf[-1], 1.0), 0.9, np.nextafter(1.0, 0.0), 1.0, 7.0]
        assert_is_searchsorted(cdf, np.r_[rng.random(500), cdf, above])
        assert (guided_search(cdf, above) == cdf.shape[0]).all()

    @pytest.mark.parametrize("seed", range(4))
    def test_every_bucket_boundary_and_its_neighbours(self, seed):
        rng = np.random.default_rng(seed)
        weights = rng.pareto(1.2, 97) * (rng.random(97) < 0.8)
        weights[-1] = 1.0
        cdf = np.cumsum(weights) / weights.sum()
        assert_is_searchsorted(cdf, np.r_[boundaries(97), cdf, np.nextafter(cdf, 0)])

    def test_a_cdf_on_the_boundaries(self):
        # Every value equals some b / n, so bucket starts land on ties.
        cdf = np.repeat(np.arange(1, 9) / 8, 2)
        assert_is_searchsorted(cdf, np.r_[boundaries(16), boundaries(8)])

    def test_one_entry(self):
        for cdf in (np.ones(1), np.full(1, 0.5)):
            assert_is_searchsorted(cdf, np.r_[boundaries(1), 0.25, 0.5, 0.75])

    def test_a_long_run_of_zero_weights(self):
        rng = np.random.default_rng(5)
        weights = np.r_[1.0, np.zeros(20_000), 1.0, rng.random(30), np.zeros(500)]
        cdf = np.cumsum(weights) / weights.sum()
        n = cdf.shape[0]
        assert_is_searchsorted(cdf, np.r_[rng.random(2000), boundaries(n), cdf])

    def test_outside_the_unit_interval(self):
        cdf = np.cumsum(np.r_[0.0, 1.0, 2.0, 0.0]) / 3.0
        assert_is_searchsorted(cdf, [-np.inf, -1.0, -0.0, np.inf, np.nan])

    def test_an_empty_batch(self):
        cdf = np.cumsum(np.ones(5)) / 5.0
        got = guided_search(cdf, np.empty(0))
        assert got.dtype == np.int64 and got.shape == (0,)
        assert inverse_cdf(
            cdf, inverse_cdf_guide(cdf), np.empty(0),
            sources=np.empty(0, dtype=np.int64),
        ).shape == (0,)

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(
            st.sampled_from([0.0, 0.0, 1.0, 2.5, 1e-9, 1e6]), min_size=1, max_size=40
        ).filter(any),
        extra=st.lists(st.floats(0.0, 1.0), max_size=30),
    )
    def test_any_weights(self, weights, extra):
        weights = np.asarray(weights)
        cdf = np.cumsum(weights) / weights.sum()
        assert_is_searchsorted(cdf, np.r_[extra, cdf, boundaries(cdf.shape[0])])

    def test_with_sources_it_returns_the_keys_of_the_non_loops(self):
        rng = np.random.default_rng(7)
        weights = np.r_[rng.pareto(1.5, 40), 0.0, 50.0]
        cdf = np.cumsum(weights) / weights.sum()
        guide = inverse_cdf_guide(cdf)
        n = cdf.shape[0]
        sources = guided_search(cdf, rng.random(3000))
        uniforms = rng.random(3000)
        targets = np.searchsorted(cdf, uniforms)
        want = (sources * n + targets)[sources != targets]
        assert want.shape[0] < 3000
        got = inverse_cdf(cdf, guide, uniforms, sources=sources)
        np.testing.assert_array_equal(got, want)
        assert np.shares_memory(got, sources)

    def test_refuses_what_the_loop_cannot_take(self):
        cdf = np.cumsum(np.ones(6)) / 6.0
        guide = inverse_cdf_guide(cdf)
        uniforms = np.linspace(0.0, 1.0, 8)
        sources = np.zeros(8, dtype=np.int64)
        for label, args, name in [
            ("wrong dtype", (cdf.astype(np.float32), guide, uniforms), "cdf"),
            ("wrong dtype", (cdf, guide.astype(np.int32), uniforms), "guide"),
            ("non-contiguous", (cdf, guide, np.repeat(uniforms, 2)[::2]), "uniforms"),
            ("guide too short", (cdf, guide[:-1], uniforms), "guide"),
            ("guide too long", (cdf, np.r_[guide, 0], uniforms), "guide"),
        ]:
            with pytest.raises(ParameterError, match=name):
                inverse_cdf(*args)
            out = np.full(8, -1, dtype=np.int64)
            with pytest.raises(ParameterError, match=name):
                kernels._call("repro_inverse_cdf", 6, *args[:2], 8, args[2], None, out)
            assert (out == -1).all(), label
        for bad in (sources[:-1], sources.astype(np.int32), np.repeat(sources, 2)[::2]):
            with pytest.raises(ParameterError, match="sources"):
                inverse_cdf(cdf, guide, uniforms, sources=bad)


#: ``sha256(out_indptr.tobytes() + out_indices.tobytes())[:16]`` of the
#: analogs as the set-based sampler and the lexsort builder made them.
PINNED_ANALOG_HASHES = {
    ("lj-s", 10): "d1c6802fca3eb7fd",
    ("pokec-s", 10): "a057adc8a8c6ec2a",
    ("webst-s", 20): "1799e1978277a726",
    ("orkut-s", 3): "223bbe131b134900",
    ("dblp-s", 3): "81409bd5db0d6bd9",
    ("twitter-s", 1): "bbce996638347a7b",
}


@pytest.mark.parametrize("name, scale", sorted(PINNED_ANALOG_HASHES))
def test_pinned_analog_bytes(name, scale):
    graph = generate_dataset(name, scale=scale)
    digest = hashlib.sha256(
        graph.out_indptr.tobytes() + graph.out_indices.tobytes()
    ).hexdigest()[:16]
    assert digest == PINNED_ANALOG_HASHES[(name, scale)]


def test_generation_peak_memory_per_edge():
    """Chung–Lu keeps its edges as one sorted key array and assembles the
    CSR from it: no endpoint lists, no second sort.  The traced peak was
    111 bytes per edge with them, and 63 with the endpoints searched in
    sorted order; drawn through the guide table it is 53, here with a
    7-byte margin."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        graph = generate_dataset("lj-s", scale=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - before) / graph.num_edges <= 60


def _rows_to_edges(rows):
    sources = np.array([u for u, row in enumerate(rows) for _ in row], dtype=np.int64)
    targets = np.array([v for row in rows for v in row], dtype=np.int64)
    return sources, targets


class TestFromSortedKeys:
    """The CSR tail the Chung–Lu sampler calls with its key array is
    :func:`from_edge_arrays`' own: same arrays, same canonical flag."""

    @pytest.mark.parametrize(
        "rows, dedup",
        [
            ([[], [], []], True),  # no keys
            ([[], [], []], False),
            ([[0]], True),  # one node, its self-loop the only key
            ([[]], True),
            ([[1, 1, 3], [], [0, 0], [3]], False),  # repeated keys
        ],
    )
    def test_matches_from_edge_arrays(self, rows, dedup):
        num_nodes = len(rows)
        sources, targets = _rows_to_edges(rows)
        keys = np.sort(sources * num_nodes + targets)
        assert_same_csr(
            from_sorted_keys(keys, num_nodes=num_nodes, distinct=dedup),
            from_edge_arrays(
                sources, targets, num_nodes=num_nodes, dedup=dedup, drop_self_loops=False
            ),
        )

    def test_patch_in_the_middle_of_a_row(self, rng):
        # Node 2 is one edge short of three; all in-weight is on node 3,
        # so its patch edge (2, 3) lands between its edges to 0 and 4.
        rows = [[1, 2, 3], [0, 2, 3], [0, 4], [0, 1, 2], [0, 1, 2]]
        sources, targets = _rows_to_edges(rows)
        seen = np.sort(sources * 5 + targets)
        in_cdf = np.cumsum([0.0, 0.0, 0.0, 1.0, 0.0])
        patch = chung_lu_module._patch_keys(seen, in_cdf, min_degree=3, rng=rng)
        assert patch.tolist() == [2 * 5 + 3]
        rows[2] = [0, 3, 4]
        assert_same_csr(
            from_sorted_keys(
                np.insert(seen, np.searchsorted(seen, patch), patch), num_nodes=5
            ),
            from_edge_arrays(*_rows_to_edges(rows), num_nodes=5),
        )

    def test_endpoints_are_dropped(self):
        keys = np.array([1, 2, 5], dtype=np.int64)
        endpoints = [keys // 3, keys % 3]
        graph = from_sorted_keys(keys, num_nodes=3, endpoints=endpoints)
        assert endpoints == [None, None]
        assert graph.out_indices.tolist() == [1, 2, 2]


class TestBarabasiAlbert:
    def test_shape(self, rng):
        graph = barabasi_albert_digraph(200, 3, rng=rng)
        assert graph.num_nodes == 200
        assert not graph.has_dead_ends
        # Every non-seed node has out-degree exactly k.
        assert np.all(graph.out_degree[4:] == 3)

    def test_preferential_attachment_concentrates_in_degree(self, rng):
        graph = barabasi_albert_digraph(500, 2, rng=rng)
        in_degree = np.sort(graph.in_degree)[::-1]
        # Top 10% of nodes should hold a disproportionate share.
        top_share = in_degree[:50].sum() / in_degree.sum()
        assert top_share > 0.25

    def test_rejects_bad_k(self, rng):
        with pytest.raises(ParameterError):
            barabasi_albert_digraph(10, 0, rng=rng)

    def test_rejects_too_few_nodes(self, rng):
        with pytest.raises(ParameterError):
            barabasi_albert_digraph(3, 3, rng=rng)


class TestRMat:
    def test_shape_and_no_dead_ends(self, rng):
        graph = rmat_digraph(9, 3000, rng=rng)
        # Dead-end patching may add up to one edge per node beyond the
        # requested count.
        assert graph.num_edges <= 3000 + graph.num_nodes
        assert graph.num_edges > 2000
        assert not graph.has_dead_ends

    def test_skewed_degrees(self, rng):
        graph = rmat_digraph(10, 6000, rng=rng)
        degrees = graph.out_degree
        assert degrees.max() > 8 * max(degrees.mean(), 1)

    def test_rejects_bad_scale(self, rng):
        with pytest.raises(ParameterError):
            rmat_digraph(0, 10, rng=rng)

    def test_rejects_bad_probabilities(self, rng):
        with pytest.raises(ParameterError):
            rmat_digraph(5, 10, a=0.9, b=0.2, c=0.2, rng=rng)

    def test_deterministic_given_seed(self):
        a = rmat_digraph(8, 800, rng=np.random.default_rng(3))
        b = rmat_digraph(8, 800, rng=np.random.default_rng(3))
        assert a == b


class TestRMatMatchesReference:
    """The ``uint32`` / presence-mask R-MAT returns the ``int64`` /
    ``union1d`` construction's bytes."""

    @settings(max_examples=60, deadline=None)
    @given(
        scale=st.integers(1, 14),
        edges_per_id=st.floats(1 / 8, 4.0),
        seed=st.integers(0, 2**32 - 1),
        ensure_no_dead_ends=st.booleans(),
    )
    def test_same_csr(self, scale, edges_per_id, seed, ensure_no_dead_ends):
        num_edges = max(1, -(-(2**scale) // 8), int(edges_per_id * 2**scale))
        got_rng = np.random.default_rng(seed)
        want_rng = np.random.default_rng(seed)
        got = rmat_digraph(
            scale, num_edges, rng=got_rng, ensure_no_dead_ends=ensure_no_dead_ends
        )
        want = reference_rmat(
            scale, num_edges, rng=want_rng, ensure_no_dead_ends=ensure_no_dead_ends
        )
        assert_same_csr(got, want)
        assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("scale", [1, 3, 12])
    def test_id_space_bound(self, scale):
        # At most eight candidate ids per edge: the compaction's mask
        # and ranks take 9 bytes per candidate id.
        at_bound = -(-(2**scale) // 8)
        got = rmat_digraph(scale, at_bound, rng=np.random.default_rng(1))
        want = reference_rmat(scale, at_bound, rng=np.random.default_rng(1))
        assert_same_csr(got, want)
        if 2**scale > 8:
            with pytest.raises(ParameterError, match="candidate ids"):
                rmat_digraph(scale, at_bound - 1, rng=np.random.default_rng(1))

    def test_loadtest_refuses_a_sparse_id_space(self, capsys):
        assert main(["loadtest", "--scale", "30", "--edges", "100"]) == 2
        assert "candidate ids" in capsys.readouterr().err

    def test_loadtest_at_the_bound(self, capsys):
        code = main(
            [
                "loadtest", "--scale", "9", "--edges", "64",
                "--requests", "12", "--sources", "4", "--concurrency", "2",
            ]
        )
        assert code == 0
        assert "cache hit rate" in capsys.readouterr().out


def test_cleaning_matches_reference_dedup(monkeypatch):
    """``clean`` keeps each duplicate's first occurrence; the graph and
    the report are those of the ``np.unique`` filter it replaced."""
    rng = np.random.default_rng(9)
    sources = rng.integers(0, 5000, 20000) * 3
    targets = rng.integers(0, 5000, 20000) * 3
    got = clean(sources, targets, symmetrize=True)
    with reference_builders(monkeypatch):
        want = clean(sources, targets, symmetrize=True)
    assert_same_csr(got[0], want[0])
    assert got[1] == want[1]


class TestDatasetRegistry:
    def test_six_datasets_in_order(self):
        assert dataset_names() == [
            "dblp-s",
            "webst-s",
            "pokec-s",
            "lj-s",
            "orkut-s",
            "twitter-s",
        ]

    @pytest.mark.parametrize("name", ["dblp-s", "pokec-s"])
    def test_density_matches_table1(self, name):
        graph = generate_dataset(name, scale=0.25)
        spec = DATASETS[name]
        stats = compute_stats(graph)
        assert stats.average_degree == pytest.approx(
            spec.avg_degree, rel=0.2
        )

    def test_undirected_types_are_symmetric(self):
        graph = generate_dataset("dblp-s", scale=0.1)
        sources, targets = graph.edge_array()
        forward = set(zip(sources.tolist(), targets.tolist()))
        assert all((t, s) in forward for s, t in forward)

    def test_no_dead_ends_anywhere(self):
        for name in dataset_names():
            graph = generate_dataset(name, scale=0.05)
            assert not graph.has_dead_ends, name

    def test_load_dataset_caches_in_memory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.generators import datasets as ds

        ds.clear_dataset_cache()
        first = load_dataset("dblp-s", scale=0.1)
        second = load_dataset("dblp-s", scale=0.1)
        assert first is second
        ds.clear_dataset_cache()

    def test_load_dataset_disk_cache_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.generators import datasets as ds

        ds.clear_dataset_cache()
        first = load_dataset("webst-s", scale=0.1)
        ds.clear_dataset_cache()
        second = load_dataset("webst-s", scale=0.1)
        assert first == second
        ds.clear_dataset_cache()

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ParameterError):
            generate_dataset("no-such-dataset")

    def test_scale_env_parsing(self, monkeypatch):
        from repro.generators.datasets import current_scale

        monkeypatch.setenv("REPRO_BENCH_SCALE", "2.5")
        assert current_scale() == 2.5
        monkeypatch.setenv("REPRO_BENCH_SCALE", "junk")
        with pytest.raises(ParameterError):
            current_scale()
        monkeypatch.setenv("REPRO_BENCH_SCALE", "-1")
        with pytest.raises(ParameterError):
            current_scale()
