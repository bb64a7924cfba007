"""Concurrency stress: readers hammer the server while a writer mutates.

The hard serving invariant (extending the engine-level guarantees of
``tests/test_engine_dynamic.py`` across threads): **no query is ever
answered from a stale-version cache or index**.  Checked two ways:

* *bracketing* — every served answer's version stamp lies between the
  graph version observed before submit and after completion, so the
  answer was computed at a version that was current during the
  request's lifetime;
* *replay* — after the run, the graph is reconstructed at every
  version from the recorded update log and each answer is recomputed
  from scratch; the served vector must be byte-identical to the
  reconstruction's (for the deterministic method) — a cached vector
  from version ``v-1`` served at ``v``, or a stale walk index, cannot
  survive this.
"""

import asyncio
import sys
import threading

import numpy as np
import pytest

from repro.api import PPREngine
from repro.core.powerpush import power_push
from repro.generators.rmat import rmat_digraph
from repro.graph.dynamic import DynamicGraph, sample_edge_update
from repro.serving import AsyncFrontDoor, EngineServer, ShardedDispatcher

BASE_SEED = 17
L1 = 1e-6


def make_base():
    return rmat_digraph(
        9, 3000, rng=np.random.default_rng(BASE_SEED), name="stress"
    )


def rebuild_at(base, update_log, version):
    """The logical graph at ``version``, replayed from the update log."""
    dyn = DynamicGraph(base)
    for recorded_version, update in update_log:
        if recorded_version > version:
            break
        dyn.apply_updates([update])
    assert dyn.version == version
    return dyn.snapshot()


@pytest.mark.slow
def test_readers_never_see_stale_answers_under_writer_pressure():
    dyn = DynamicGraph(make_base())
    base = dyn.base
    update_log: list[tuple[int, tuple[str, int, int]]] = []
    records = []
    records_mutex = threading.Lock()
    errors: list[BaseException] = []
    stop_writer = threading.Event()
    # Started with the writer, the readers could finish all their
    # (mostly cached) reads before its first update.  So they start once
    # that update has landed, and the writer applies its second only
    # after an answer is cached, which the second must then invalidate.
    first_update = threading.Event()
    first_answer = threading.Event()

    with EngineServer(dyn, alpha=0.2, seed=7) as server:

        def writer() -> None:
            rng = np.random.default_rng(99)
            try:
                for _ in range(12):
                    if stop_writer.wait(0.004) and len(update_log) > 1:
                        return
                    update = sample_edge_update(dyn, rng)
                    version = server.apply_updates([update])
                    update_log.append((version, update))
                    first_update.set()
                    first_answer.wait(30.0)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)
            finally:
                first_update.set()

        def reader(worker_id: int) -> None:
            first_update.wait(30.0)
            try:
                for i in range(25):
                    source = (worker_id * 7 + i) % 10
                    v_before = server.graph_version
                    served = server.query(
                        source, "powerpush", l1_threshold=L1, timeout=30.0
                    )
                    v_after = server.graph_version
                    with records_mutex:
                        records.append(
                            (source, v_before, served.version, v_after,
                             served.result.estimate)
                        )
                    first_answer.set()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)
            finally:
                first_answer.set()

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(w,)) for w in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads[1:]:
            thread.join()
        stop_writer.set()
        threads[0].join()
        stats = server.stats()

    assert not errors, errors
    assert len(records) == 100

    # -- bracketing: the served version was current during the request
    for source, v_before, v_served, v_after, _ in records:
        assert v_before <= v_served <= v_after, (
            f"source {source}: served version {v_served} outside "
            f"[{v_before}, {v_after}]"
        )

    # -- replay: byte-identical to a from-scratch solve at that version
    snapshots = {
        version: rebuild_at(base, update_log, version)
        for version in {r[2] for r in records}
    }
    reference: dict[tuple[int, int], np.ndarray] = {}
    for source, _, v_served, _, estimate in records:
        key = (v_served, source)
        if key not in reference:
            reference[key] = power_push(
                snapshots[v_served], source, l1_threshold=L1, alpha=0.2
            ).estimate
        np.testing.assert_array_equal(
            estimate,
            reference[key],
            err_msg=f"stale answer for source {source} at version {v_served}",
        )

    # The run must actually have exercised the machinery it stresses.
    assert update_log, "writer thread applied no updates"
    assert stats["cache"]["hits"] > 0
    assert stats["cache"]["invalidations"] > 0


@pytest.mark.slow
def test_stale_walk_index_never_serves_a_seeded_speedppr_query():
    """Same invariant for index-backed queries: SpeedPPR answers are a
    deterministic function of (graph version, engine seed, query seed),
    so a reconstruction with a fresh engine catches any stale index."""
    dyn = DynamicGraph(make_base())
    base = dyn.base
    update_log: list[tuple[int, tuple[str, int, int]]] = []
    records = []
    records_mutex = threading.Lock()
    errors: list[BaseException] = []

    with EngineServer(dyn, alpha=0.2, seed=7) as server:

        def writer() -> None:
            rng = np.random.default_rng(5)
            try:
                for _ in range(6):
                    update = sample_edge_update(dyn, rng)
                    version = server.apply_updates([update])
                    update_log.append((version, update))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        def reader(worker_id: int) -> None:
            try:
                for i in range(8):
                    source = (worker_id + 3 * i) % 8
                    served = server.query(
                        source,
                        "speedppr",
                        epsilon=0.5,
                        seed=13,
                        timeout=30.0,
                    )
                    with records_mutex:
                        records.append(
                            (source, served.version, served.result.estimate)
                        )
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(w,)) for w in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    assert not errors, errors
    snapshots = {
        version: rebuild_at(base, update_log, version)
        for version in {r[1] for r in records}
    }
    engines = {
        version: PPREngine(snapshot, alpha=0.2, seed=7)
        for version, snapshot in snapshots.items()
    }
    reference: dict[tuple[int, int], np.ndarray] = {}
    for source, version, estimate in records:
        key = (version, source)
        if key not in reference:
            reference[key] = engines[version].query(
                source, "speedppr", epsilon=0.5, seed=13
            ).estimate
        np.testing.assert_array_equal(
            estimate,
            reference[key],
            err_msg=(
                f"stale index answer for source {source} at version {version}"
            ),
        )


@pytest.mark.slow
@pytest.mark.parametrize("tier", ["thread", "sharded"])
def test_door_hits_never_see_stale_answers_under_writer_pressure(tier):
    """Many coroutines on one loop read Zipf-hot sources through the
    front door — hits answered on the loop, misses and reads that meet
    a writer off it — while a thread applies single-edge updates.  No
    answer may carry a version older than one already acknowledged
    when its submit began, and answers replay byte for byte."""
    base = make_base()
    mirror = DynamicGraph(base)
    update_log: list[tuple[int, tuple[str, int, int]]] = []
    #: the latest version an ``apply_updates`` call has returned
    acked = 0
    records = []
    errors: list[BaseException] = []
    stop_writer = threading.Event()
    hot = np.random.default_rng(BASE_SEED).choice(
        base.num_nodes, size=12, replace=False
    )
    weights = 1.0 / np.arange(1, hot.size + 1) ** 1.2
    weights /= weights.sum()

    if tier == "thread":
        backend = EngineServer(DynamicGraph(base), alpha=0.2, seed=7)
    else:
        backend = ShardedDispatcher(
            DynamicGraph(base), workers=2, alpha=0.2, seed=7
        )

    def writer() -> None:
        nonlocal acked
        rng = np.random.default_rng(99)
        try:
            for _ in range(40):
                if stop_writer.wait(0.002):
                    return
                update = sample_edge_update(mirror, rng)
                mirror.apply_updates([update])
                version = backend.apply_updates([update])
                update_log.append((version, update))
                acked = version
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    async def reader(door: AsyncFrontDoor, worker_id: int) -> None:
        rng = np.random.default_rng(1000 + worker_id)
        for source in rng.choice(hot, size=40, p=weights):
            floor = acked
            served = await door.submit(
                int(source), "powerpush", l1_threshold=L1
            )
            records.append((int(source), floor, served))

    async def drive(door: AsyncFrontDoor) -> None:
        await asyncio.gather(*(reader(door, w) for w in range(32)))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with backend:
            door = AsyncFrontDoor(backend)
            thread = threading.Thread(target=writer)
            thread.start()
            try:
                asyncio.run(drive(door))
            finally:
                stop_writer.set()
                thread.join(30.0)
            assert not thread.is_alive()
            snapshot = door.snapshot()
    finally:
        sys.setswitchinterval(switch)

    assert not errors, errors
    assert len(records) == 32 * 40
    assert update_log, "writer thread applied no updates"
    # both door paths ran: hits on the loop, reads behind a writer off it
    assert any(served.cache_hit for _, _, served in records)
    assert snapshot["writer_waits"] >= 1
    assert snapshot["completed"] == len(records)

    # -- no answer older than a version acknowledged before its submit
    for source, floor, served in records:
        assert served.version >= floor, (
            f"source {source}: served version {served.version} after "
            f"version {floor} was acknowledged"
        )

    # -- a sample replays byte for byte on a serial engine
    pick = np.random.default_rng(3).choice(len(records), 48, replace=False)
    engines: dict[int, PPREngine] = {}
    for index in sorted(pick):
        source, _, served = records[index]
        version = served.version
        if version not in engines:
            engines[version] = PPREngine(
                rebuild_at(base, update_log, version), alpha=0.2, seed=7
            )
        expected = engines[version].query(
            source, "powerpush", l1_threshold=L1
        )
        assert served.result.estimate.tobytes() == expected.estimate.tobytes(), (
            f"stale answer for source {source} at version {version}"
        )
        assert served.result.residue.tobytes() == expected.residue.tobytes()
