"""Tests for the self-healing side of the sharded serving tier.

Policy units first (:class:`RestartPolicy`, :class:`RetryPolicy`,
:class:`CircuitBreaker` are pure state machines — deterministic under
a seed, no processes involved), then end-to-end supervision through a
real :class:`ShardedDispatcher`: a SIGKILLed shard is detected,
respawned, handed the current generation of the shared-memory graph
image, and serves byte-identical answers; an exhausted restart budget
degrades capacity without hanging a single future.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.api import PPREngine
from repro.errors import ParameterError
from repro.generators.rmat import rmat_digraph
from repro.graph.build import from_edge_arrays
from repro.graph.dynamic import DynamicGraph, sample_edge_update
from repro.serving import FaultInjector, FaultSpec, ShardedDispatcher
from repro.serving.shm import SharedGraphImage
from repro.serving.supervisor import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    RestartPolicy,
    RetryPolicy,
)

PARAMS = {"l1_threshold": 1e-6}

#: Fast-but-deterministic restart policy for end-to-end tests.
FAST_RESTARTS = dict(base_delay=0.01, jitter=0.0, seed=7)


@pytest.fixture(scope="module")
def base():
    rng = np.random.default_rng(31)
    return rmat_digraph(8, 1500, rng=rng, name="supervisor-base")


def pick_updates(graph):
    """Two deterministic edge inserts that are legal on ``graph``."""
    updates = []
    for u in (1, 2):
        v = next(
            v
            for v in range(graph.num_nodes)
            if v != u and not graph.has_edge(u, v)
        )
        updates.append(("add", u, v))
    return updates


def wait_respawn(disp, worker_id, generation=1, timeout=30.0):
    """Block until ``worker_id`` is alive at ``generation`` or later."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        state = disp._states.get(worker_id)
        if (
            state is not None
            and state.generation >= generation
            and state.alive
        ):
            return state
        time.sleep(0.02)
    raise AssertionError(
        f"worker {worker_id} did not respawn to generation {generation}"
    )


def wait_heartbeat(disp, worker_id, version, timeout=10.0):
    """Block until the worker's heartbeat reports ``version``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        beat = disp.stats().get("heartbeats", {}).get(str(worker_id))
        if beat is not None and beat["graph_version"] == version:
            return beat
        time.sleep(0.05)
    raise AssertionError(
        f"worker {worker_id} never heartbeat graph version {version}"
    )


def first_sources_per_shard(disp, graph, count=3):
    """``count`` sources routed to each shard, one list per worker id."""
    return [
        [s for s in range(graph.num_nodes) if disp.route(s) == worker][:count]
        for worker in range(disp.configured_workers)
    ]


def shard_requests(disp):
    """Requests each live shard has been sent, by worker id."""
    return {
        int(worker): stats["requests"]
        for worker, stats in disp.stats()["per_worker"].items()
    }


def assert_repeat_reads_never_reach_a_shard(disp, reference, sources, version):
    """Reading ``sources`` again is answered by the dispatcher's cache —
    whichever shard solved them, however often it died since."""
    before = shard_requests(disp)
    for source in sources:
        again = disp.query(source, "powerpush", **PARAMS)
        expected = reference.query(source, "powerpush", **PARAMS)
        assert again.cache_hit and again.worker is None
        assert again.version == version
        assert again.result.estimate.tobytes() == expected.estimate.tobytes()
        assert again.result.residue.tobytes() == expected.residue.tobytes()
    assert shard_requests(disp) == before


class TestRestartPolicy:
    def test_delays_are_seed_deterministic_and_jittered(self):
        policy = RestartPolicy(seed=3)
        twin = RestartPolicy(seed=3)
        sequence = [policy.delay(1, attempt) for attempt in range(4)]
        assert sequence == [twin.delay(1, attempt) for attempt in range(4)]
        # Exponential growth stretched by a jitter factor in
        # [1, 1 + jitter], never shrunk.
        for attempt, got in enumerate(sequence):
            raw = min(
                policy.max_delay,
                policy.base_delay * policy.multiplier**attempt,
            )
            assert raw <= got <= raw * (1.0 + policy.jitter)
        assert sequence[0] < sequence[1] < sequence[2]

    def test_jitter_streams_are_independent_per_worker_and_seed(self):
        policy = RestartPolicy(seed=3)
        assert [policy.delay(1, a) for a in range(4)] != [
            policy.delay(2, a) for a in range(4)
        ]
        other_seed = RestartPolicy(seed=4)
        assert [policy.delay(1, a) for a in range(4)] != [
            other_seed.delay(1, a) for a in range(4)
        ]

    def test_delay_caps_at_max_delay(self):
        policy = RestartPolicy(
            base_delay=1.0, multiplier=10.0, max_delay=2.0, jitter=0.0
        )
        assert policy.delay(0, 5) == 2.0

    def test_budget(self):
        policy = RestartPolicy(max_restarts=2)
        assert policy.allows(0)
        assert policy.allows(1)
        assert not policy.allows(2)
        assert not RestartPolicy(max_restarts=0).allows(0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_delay": -0.1},
            {"multiplier": 0.5},
            {"jitter": -1.0},
            {"max_restarts": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            RestartPolicy(**kwargs)


class TestRetryPolicy:
    def test_first_retry_is_immediate_then_backs_off(self):
        policy = RetryPolicy(seed=0)
        assert policy.delay(0) == 0.0
        first = policy.delay(1)
        second = policy.delay(2)
        assert 0.0 < first < second
        assert policy.delay(1) == first  # seed-deterministic

    def test_budget_exhaustion_returns_none(self):
        policy = RetryPolicy(max_attempts=2)
        now = 100.0
        assert policy.next_delay(0, deadline=None, now=now) == 0.0
        assert policy.next_delay(1, deadline=None, now=now) is not None
        assert policy.next_delay(2, deadline=None, now=now) is None

    def test_deadline_awareness(self):
        policy = RetryPolicy(seed=0)
        now = 100.0
        # A backoff landing past the deadline gives up now rather
        # than burning a shard on an unreadable answer.
        assert (
            policy.next_delay(1, deadline=now + 1e-4, now=now) is None
        )
        assert (
            policy.next_delay(1, deadline=now + 60.0, now=now) is not None
        )
        # Even the free immediate retry respects an expired deadline.
        assert policy.next_delay(0, deadline=now, now=now) is None

    def test_validation(self):
        with pytest.raises(ParameterError):
            RetryPolicy(max_attempts=-1)
        with pytest.raises(ParameterError):
            RetryPolicy(base_delay=-0.5)


class TestCircuitBreaker:
    def test_consecutive_failures_trip_and_cooldown_probes(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=1.0)
        now = 50.0
        for _ in range(2):
            breaker.record_failure(now)
        assert breaker.state == CLOSED
        breaker.record_failure(now)
        assert breaker.state == OPEN
        assert breaker.open_events == 1
        assert not breaker.allows(now + 0.5)
        # Cooldown elapsed: exactly one half-open probe is admitted.
        assert breaker.allows(now + 1.0)
        assert breaker.state == HALF_OPEN
        assert not breaker.allows(now + 1.0)
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allows(now + 1.1)

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0)
        breaker.record_failure(10.0)
        assert breaker.allows(11.0)  # the probe
        breaker.record_failure(11.0)
        assert breaker.state == OPEN
        assert breaker.open_events == 2
        assert not breaker.allows(11.5)

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure(1.0)
        breaker.record_failure(1.0)
        breaker.record_success()
        breaker.record_failure(2.0)
        breaker.record_failure(2.0)
        assert breaker.state == CLOSED

    def test_trip_forces_open(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.trip(5.0)
        assert breaker.state == OPEN
        assert not breaker.allows(5.1)
        assert breaker.snapshot()["state"] == OPEN


class TestRespawnEndToEnd:
    def test_killed_worker_respawns_fresh_and_serves_identically(
        self, base
    ):
        policy = RestartPolicy(max_restarts=3, **FAST_RESTARTS)
        with ShardedDispatcher(
            base, workers=2, alpha=0.2, seed=7, restart_policy=policy
        ) as disp:
            sources = list(range(16))
            disp.batch(sources, "powerpush", **PARAMS)  # warm both shards
            victim = 0
            os.kill(disp._states[victim].process.pid, signal.SIGKILL)

            state = wait_respawn(disp, victim)
            assert state.generation == 1
            wait_heartbeat(disp, victim, version=0)

            stats = disp.stats()
            supervisor = stats["supervisor"]
            assert supervisor["respawns"] == 1
            assert supervisor["degraded_capacity"] is False
            assert supervisor["removed"] == []
            assert supervisor["restarts"][str(victim)] == 1
            recovery = supervisor["recovery_s"]
            assert recovery["last"] is not None and recovery["last"] > 0.0
            assert recovery["max"] >= recovery["last"]

            # What the victim had solved did not die with it: the
            # cluster's one cache is the dispatcher's, so the respawn —
            # which memoises nothing — is not even asked.
            engine = PPREngine(base, alpha=0.2, seed=7)
            assert_repeat_reads_never_reach_a_shard(disp, engine, sources, 0)
            assert shard_requests(disp)[victim] == 0
            # ...and asked, it solves the same bytes.
            for source in sources:
                served = disp.query(
                    source, "powerpush", fresh=True, **PARAMS
                )
                expected = engine.query(source, "powerpush", **PARAMS)
                assert served.worker == disp.route(source)
                assert (
                    served.result.estimate.tobytes()
                    == expected.estimate.tobytes()
                )
            assert disp.num_workers == 2

    def test_sigkill_mid_burst_answers_every_request(self, base):
        policy = RestartPolicy(max_restarts=3, **FAST_RESTARTS)
        with ShardedDispatcher(
            base, workers=2, alpha=0.2, seed=7, restart_policy=policy
        ) as disp:
            victim = 0
            sources = [
                s for s in range(base.num_nodes) if disp.route(s) == victim
            ][:12]
            # Stopped, the victim answers nothing: the burst sits in its
            # queue when it is killed.
            pid = disp._states[victim].process.pid
            os.kill(pid, signal.SIGSTOP)
            futures = [disp.submit(s, "powerpush", **PARAMS) for s in sources]
            os.kill(pid, signal.SIGKILL)

            engine = PPREngine(base, alpha=0.2, seed=7)
            for source, future in zip(sources, futures):
                served = future.result(timeout=60)  # none may hang
                expected = engine.query(source, "powerpush", **PARAMS)
                assert (
                    served.result.estimate.tobytes()
                    == expected.estimate.tobytes()
                )

    def test_a_flight_outlives_the_shard_it_was_sent_to(self, base):
        with ShardedDispatcher(
            base, workers=2, alpha=0.2, seed=7, max_restarts=0
        ) as disp:
            victim = disp.route(5)
            pid = disp._states[victim].process.pid
            os.kill(pid, signal.SIGSTOP)
            futures = [disp.submit(5, "powerpush", **PARAMS) for _ in range(3)]
            os.kill(pid, signal.SIGKILL)
            # One retry carries all three callers to the survivor, and
            # each receives what the retried leader did.
            answers = [future.result(timeout=60) for future in futures]
            assert all(served is answers[0] for served in answers)
            assert answers[0].worker == 1 - victim
            expected = PPREngine(base, alpha=0.2, seed=7).query(
                5, "powerpush", **PARAMS
            )
            assert (
                answers[0].result.estimate.tobytes()
                == expected.estimate.tobytes()
            )
            stats = disp.stats()
            assert stats["supervisor"]["retries"] == 1
            assert stats["rerouted"] == 1
            assert not disp._flight_table
            assert disp.query(5, "powerpush", **PARAMS).cache_hit

    def test_budget_exhaustion_degrades_without_hung_futures(self, base):
        policy = RestartPolicy(max_restarts=1, **FAST_RESTARTS)
        with ShardedDispatcher(
            base, workers=2, alpha=0.2, seed=7, restart_policy=policy
        ) as disp:
            sources = list(range(12))
            disp.batch(sources, "powerpush", **PARAMS)
            victim = 0
            os.kill(disp._states[victim].process.pid, signal.SIGKILL)
            state = wait_respawn(disp, victim, generation=1)

            # Second death exhausts the budget of 1: permanent removal.
            os.kill(state.process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                if disp.stats()["supervisor"]["removed"] == [victim]:
                    break
                time.sleep(0.05)
            supervisor = disp.stats()["supervisor"]
            assert supervisor["removed"] == [victim]
            assert supervisor["respawns"] == 1
            assert supervisor["permanent_failures"] == 1
            assert supervisor["degraded_capacity"] is True

            # Degraded, not dead: every future still resolves on the
            # survivor, byte-identical (fresh: past the cache, which
            # would answer all of these without any shard).
            futures = [
                disp.submit(s, "powerpush", fresh=True, **PARAMS)
                for s in sources
            ]
            engine = PPREngine(base, alpha=0.2, seed=7)
            for source, future in zip(sources, futures):
                served = future.result(timeout=60)
                assert served.worker == 1
                expected = engine.query(source, "powerpush", **PARAMS)
                assert (
                    served.result.estimate.tobytes()
                    == expected.estimate.tobytes()
                )
            assert disp.num_workers == 1

    def test_respawn_racing_concurrent_updates_lands_on_new_version(
        self, base
    ):
        updates = pick_updates(base)
        policy = RestartPolicy(max_restarts=3, **FAST_RESTARTS)
        with ShardedDispatcher(
            DynamicGraph(base),
            workers=2,
            alpha=0.2,
            seed=7,
            restart_policy=policy,
        ) as disp:
            disp.batch(list(range(8)), "powerpush", **PARAMS)
            victim = 0
            os.kill(disp._states[victim].process.pid, signal.SIGKILL)
            # Broadcast while death detection / respawn is in flight:
            # the barrier settles on the survivor, and the respawn
            # must replay the journal to the *post-update* version.
            version = disp.apply_updates(updates)
            assert version == len(updates)

            wait_respawn(disp, victim)
            wait_heartbeat(disp, victim, version=version)

            reference = PPREngine(DynamicGraph(base), alpha=0.2, seed=7)
            reference.apply_updates(updates)
            for source in (0, 1, 2, 7, 19):
                served = disp.query(source, "powerpush", **PARAMS)
                expected = reference.query(source, "powerpush", **PARAMS)
                # Nothing warmed before the update answers after it.
                assert served.version == version and not served.cache_hit
                assert (
                    served.result.estimate.tobytes()
                    == expected.estimate.tobytes()
                )
            assert_repeat_reads_never_reach_a_shard(
                disp, reference, (0, 1, 2, 7, 19), version
            )
            assert disp.num_workers == 2

    def test_crash_mid_update_barrier_settles_and_heals(
        self, base, no_leaked_segments
    ):
        """Worker 0 applies the first update broadcast and dies before
        acking it — the worst spot for the barrier.  ``apply_updates``
        must return the survivor's version instead of hanging, the
        respawn must replay the journal past the batch it died inside,
        and both shards must then answer byte-identically to a serial
        engine at that version.  With ``max_restarts=0`` the respawn
        never happens and this test fails."""
        updates = pick_updates(base)
        policy = RestartPolicy(max_restarts=3, **FAST_RESTARTS)
        victim = 0
        injector = FaultInjector(
            [FaultSpec("crash_update", worker=victim, at=0)]
        )
        with ShardedDispatcher(
            DynamicGraph(base),
            workers=2,
            alpha=0.2,
            seed=7,
            restart_policy=policy,
            fault_injector=injector,
        ) as disp:
            version = disp.apply_updates(updates)
            assert version == len(updates)

            wait_respawn(disp, victim)
            wait_heartbeat(disp, victim, version=version)
            supervisor = disp.stats()["supervisor"]
            assert supervisor["respawns"] == 1
            assert supervisor["removed"] == []
            assert supervisor["degraded_capacity"] is False
            assert disp.num_workers == 2

            reference = PPREngine(DynamicGraph(base), alpha=0.2, seed=7)
            reference.apply_updates(updates)
            sources = first_sources_per_shard(disp, base)
            for source in sources[0] + sources[1]:
                served = disp.query(source, "powerpush", **PARAMS)
                expected = reference.query(source, "powerpush", **PARAMS)
                assert served.version == version
                assert served.worker == disp.route(source)
                assert (
                    served.result.estimate.tobytes()
                    == expected.estimate.tobytes()
                )
            assert_repeat_reads_never_reach_a_shard(
                disp, reference, sources[0] + sources[1], version
            )


class TestRespawnAcrossGenerations:
    """A respawn is handed the current generation like any other shard:
    whatever it raced, it ends on the newest one, and none is left."""

    @staticmethod
    def assert_both_shards_match(disp, base, reference, version):
        for worker, routed in enumerate(first_sources_per_shard(disp, base)):
            for source in routed:
                served = disp.query(source, "powerpush", **PARAMS)
                expected = reference.query(source, "powerpush", **PARAMS)
                assert served.version == version
                assert served.worker == worker
                assert served.result.estimate.tobytes() == expected.estimate.tobytes()
                assert served.result.residue.tobytes() == expected.residue.tobytes()

    def test_crash_mid_hand_over_retires_the_old_generation(
        self, base, shm_files, mapped_segments
    ):
        # Dies after attaching the new generation, before acking it.
        updates = pick_updates(base)
        injector = FaultInjector([FaultSpec("crash_update", worker=0, at=0)])
        with ShardedDispatcher(
            DynamicGraph(base),
            workers=2,
            alpha=0.2,
            seed=7,
            restart_policy=RestartPolicy(max_restarts=3, **FAST_RESTARTS),
            fault_injector=injector,
        ) as disp:
            old = disp.image.segment_name
            assert disp.apply_updates(updates) == len(updates)
            new = disp.image.segment_name
            assert old not in shm_files() and new in shm_files()
            state = wait_respawn(disp, 0)
            assert mapped_segments(state.process.pid) == {new}

    def test_kill_while_an_update_is_prepared_respawns_on_the_new_generation(
        self, base, shm_files, mapped_segments, monkeypatch
    ):
        """The shard dies — and its respawn is forked — while
        ``apply_updates`` is between applying the batch and handing
        the new generation over.  The generation current at the fork
        is retired before the respawn attaches anything: it must be
        handed the new one."""
        updates = pick_updates(base)
        export = SharedGraphImage.export_graph
        with ShardedDispatcher(
            DynamicGraph(base),
            workers=2,
            alpha=0.2,
            seed=7,
            restart_policy=RestartPolicy(max_restarts=3, **FAST_RESTARTS),
        ) as disp:
            disp.batch(list(range(8)), "powerpush", **PARAMS)
            old = disp.image.segment_name

            def kill_then_export(graph):
                os.kill(disp._states[0].process.pid, signal.SIGKILL)
                deadline = time.monotonic() + 30.0
                while not disp._respawning:
                    assert time.monotonic() < deadline, "no respawn started"
                    time.sleep(0.01)
                return export(graph)

            monkeypatch.setattr(
                SharedGraphImage, "export_graph", kill_then_export
            )
            version = disp.apply_updates(updates)
            monkeypatch.undo()
            assert version == len(updates)
            assert old not in shm_files()

            state = wait_respawn(disp, 0)
            wait_heartbeat(disp, 0, version=version)
            assert mapped_segments(state.process.pid) == {
                disp.image.segment_name
            }
            assert disp.stats()["supervisor"]["respawns"] == 1
            reference = PPREngine(DynamicGraph(base), alpha=0.2, seed=7)
            reference.apply_updates(updates)
            self.assert_both_shards_match(disp, base, reference, version)
            # What was warmed at version 0 is gone; what the respawn
            # and the survivor just solved is held once, in the parent.
            assert disp.stats()["cache"]["invalidations"] == 8
            assert_repeat_reads_never_reach_a_shard(
                disp,
                reference,
                sum(first_sources_per_shard(disp, base), []),
                version,
            )

    def test_forty_updates_and_a_kill_match_a_cold_engine(self, base):
        """Recovery does not depend on the update history: the respawn
        attaches the image of version 40.  The reference shares no code
        with ``DynamicGraph.snapshot``: the edge set is kept as a
        Python set and built from scratch."""
        rng = np.random.default_rng(43)
        scratch = DynamicGraph(base)  # only to sample legal updates
        edges = set(base.iter_edges())
        with ShardedDispatcher(
            DynamicGraph(base),
            workers=2,
            alpha=0.2,
            seed=7,
            restart_policy=RestartPolicy(max_restarts=3, **FAST_RESTARTS),
        ) as disp:
            for _ in range(40):
                op, u, v = sample_edge_update(scratch, rng)
                scratch.apply_updates([(op, u, v)])
                (edges.add if op == "+" else edges.remove)((u, v))
                disp.apply_updates([(op, u, v)])
            os.kill(disp._states[0].process.pid, signal.SIGKILL)
            wait_respawn(disp, 0)
            pairs = sorted(edges)
            cold = PPREngine(
                from_edge_arrays(
                    [u for u, _ in pairs],
                    [v for _, v in pairs],
                    num_nodes=base.num_nodes,
                    name=base.name,
                ),
                alpha=0.2,
                seed=7,
            )
            self.assert_both_shards_match(disp, base, cold, 40)
