"""Tests for :mod:`repro.serving.shm` — shared-memory graph images.

The contract: one process exports a graph's CSR arrays into a single
shared-memory segment, any number of processes attach zero-copy views,
and exactly one process — the exporter — unlinks the segment exactly
once.  ``close`` is idempotent everywhere; nothing is left in
``/dev/shm`` after cleanup.
"""

import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import PPREngine
from repro.errors import ParameterError
from repro.generators.rmat import rmat_digraph
from repro.serving.shm import (
    SEGMENT_PREFIX,
    SharedGraphImage,
    live_segments,
)

PARAMS = {"l1_threshold": 1e-7}


@pytest.fixture(scope="module")
def base():
    rng = np.random.default_rng(11)
    return rmat_digraph(8, 1500, rng=rng, name="shm-base")


def segment_exists(name: str) -> bool:
    return (Path("/dev/shm") / name).exists()


def our_shm_files() -> set[str]:
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():
        return set()
    return {
        p.name for p in shm_dir.iterdir()
        if p.name.startswith(SEGMENT_PREFIX)
    }


#: kind -> (create an owned segment, attach class, touch the mapping)
SEGMENT_KINDS = {
    "image": (
        SharedGraphImage.export_graph,
        SharedGraphImage,
        lambda image: image.graph(),
    ),
}


@pytest.fixture(params=sorted(SEGMENT_KINDS))
def make_segment(request, base):
    """A segment's lifecycle: ``create()`` an owned one,
    ``attach(owned)`` a second mapping of it, ``use`` either."""
    create, cls, use = SEGMENT_KINDS[request.param]
    return SimpleNamespace(
        create=lambda: create(base),
        attach=lambda owned: cls.attach(owned.handle),
        use=use,
    )


class TestExportAttach:
    def test_round_trip_preserves_graph_and_answers(self, base):
        with SharedGraphImage.export_graph(base) as image:
            assert image.owner
            attached = SharedGraphImage.attach(image.handle)
            try:
                assert not attached.owner
                g = attached.graph()
                assert g.num_nodes == base.num_nodes
                assert g.num_edges == base.num_edges

                ref = PPREngine(base, alpha=0.2, seed=7)
                shm_engine = PPREngine(g, alpha=0.2, seed=7)
                for source in (0, 3, 17, 101):
                    a = ref.query(source, "powerpush", **PARAMS)
                    b = shm_engine.query(source, "powerpush", **PARAMS)
                    assert a.estimate.tobytes() == b.estimate.tobytes()
            finally:
                attached.close()

    def test_image_carries_only_what_shards_read(self, base):
        """Forward CSR and ``edge_sources`` are aliased from the
        segment; ``P^T`` is not exported — the attached graph builds an
        equal one lazily when a solver asks for it."""
        with SharedGraphImage.export_graph(base) as image:
            assert list(image.handle.arrays) == [
                "out_indptr",
                "out_indices",
                "edge_sources",
            ]
            g = image.graph()
            for shared, private in (
                (g.out_indptr, base.out_indptr),
                (g.out_indices, base.out_indices),
                (g.edge_sources, base.edge_sources),
            ):
                assert not shared.flags.owndata
                assert not shared.flags.writeable
                np.testing.assert_array_equal(shared, private)
            ours = g.transition_matrix_transpose()
            theirs = base.transition_matrix_transpose()
            for part in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(
                    getattr(ours, part), getattr(theirs, part)
                )

    def test_engine_over_attached_image(self, base):
        """What a shard does: attach by handle, serve the aliased CSR."""
        with SharedGraphImage.export_graph(base) as image:
            with SharedGraphImage.attach(image.handle) as attached:
                engine = PPREngine(attached.graph(), alpha=0.2, seed=7)
                ref = PPREngine(base, alpha=0.2, seed=7)
                a = ref.query(5, "powerpush", **PARAMS)
                b = engine.query(5, "powerpush", **PARAMS)
                assert a.estimate.tobytes() == b.estimate.tobytes()

    def test_handle_is_picklable(self, base):
        import pickle

        with SharedGraphImage.export_graph(base) as image:
            clone = pickle.loads(pickle.dumps(image.handle))
            assert clone.segment == image.handle.segment
            assert clone.num_nodes == base.num_nodes


class TestOwnershipAndTeardown:
    def test_unlink_owner_only_and_exactly_once(self, make_segment):
        owned = make_segment.create()
        name = owned.segment_name
        attached = make_segment.attach(owned)

        with pytest.raises(ParameterError, match="export"):
            attached.unlink()
        attached.close()
        assert segment_exists(name), "non-owner close must not unlink"

        owned.close()
        owned.unlink()
        assert not segment_exists(name)
        owned.unlink()  # second unlink: silent no-op, no FileNotFoundError

    def test_forked_child_pid_guard_refuses_unlink(
        self, make_segment, monkeypatch
    ):
        owned = make_segment.create()
        name = owned.segment_name
        # Simulate the object arriving in a forked child: same instance,
        # different pid.  unlink must silently refuse.
        monkeypatch.setattr(owned, "_owner_pid", os.getpid() + 1)
        owned.close()
        owned.unlink()
        assert segment_exists(name), "a forked child unlinked the parent's segment"
        monkeypatch.setattr(owned, "_owner_pid", os.getpid())
        owned.cleanup()
        assert not segment_exists(name)

    def test_close_idempotent_and_invalidates_views(self, make_segment):
        owned = make_segment.create()
        assert not owned.closed
        owned.close()
        owned.close()
        assert owned.closed
        with pytest.raises(ParameterError):
            make_segment.use(owned)
        owned.cleanup()
        owned.cleanup()  # cleanup after cleanup is also a no-op

    def test_no_segments_survive_cleanup(self, make_segment):
        before = our_shm_files()
        owned = make_segment.create()
        assert owned.segment_name.startswith(SEGMENT_PREFIX)
        assert owned.segment_name in our_shm_files()
        assert owned.segment_name in live_segments()
        owned.cleanup()
        assert owned.segment_name not in live_segments()
        assert our_shm_files() == before

    def test_context_manager_cleans_up(self, make_segment):
        with make_segment.create() as owned:
            name = owned.segment_name
            assert segment_exists(name)
        assert not segment_exists(name)
        assert owned.closed
