"""Tests for deterministic fault injection (:mod:`repro.serving.faults`).

The schedule layer is pure bookkeeping, so most of this file needs no
processes: spec validation, seed-deterministic schedule generation,
fire-once parent dispatch, and the worker-local trigger ordinals.  One
end-to-end test drives a real :class:`ShardedDispatcher` through a
dropped and a late reply to show the request-timeout + bounded-retry
path recovers the answer byte-identically and strands no request.
"""

import numpy as np
import pytest

from repro.api import PPREngine
from repro.errors import ParameterError
from repro.generators.rmat import rmat_digraph
from repro.serving import ShardedDispatcher
from repro.serving.faults import (
    PARENT_KINDS,
    WORKER_KINDS,
    FaultInjector,
    FaultSpec,
    WorkerFaultPlan,
)

PARAMS = {"l1_threshold": 1e-6}


class TestFaultSpec:
    def test_valid_kinds_cover_both_sides(self):
        assert PARENT_KINDS == {"kill", "stop", "cont"}
        assert WORKER_KINDS == {"delay_reply", "drop_reply", "crash_update"}

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "explode", "worker": 0, "at": 0},
            {"kind": "kill", "worker": -1, "at": 0},
            {"kind": "kill", "worker": 0, "at": -1},
            {"kind": "delay_reply", "worker": 0, "at": 0, "delay": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            FaultSpec(**kwargs)

    def test_injector_rejects_non_spec_entries(self):
        with pytest.raises(ParameterError):
            FaultInjector([("kill", 0, 3)])


class TestRandomSchedule:
    def test_same_seed_same_schedule(self):
        kwargs = dict(
            workers=3, requests=100, kills=2, stops=1, drops=2, delays=1
        )
        a = FaultInjector.random_schedule(seed=11, **kwargs)
        b = FaultInjector.random_schedule(seed=11, **kwargs)
        assert a.schedule == b.schedule
        c = FaultInjector.random_schedule(seed=12, **kwargs)
        assert a.schedule != c.schedule

    def test_kill_points_land_in_the_warm_middle(self):
        injector = FaultInjector.random_schedule(
            workers=2, requests=100, kills=5, seed=0
        )
        for spec in injector.schedule:
            assert spec.kind == "kill"
            assert 10 <= spec.at < 90
            assert spec.worker in (0, 1)

    def test_every_stop_gets_a_later_cont(self):
        injector = FaultInjector.random_schedule(
            workers=2, requests=50, kills=0, stops=2, seed=5
        )
        stops = [s for s in injector.schedule if s.kind == "stop"]
        conts = [s for s in injector.schedule if s.kind == "cont"]
        assert len(stops) == len(conts) == 2
        for stop, cont in zip(stops, conts):
            assert cont.worker == stop.worker
            assert cont.at > stop.at

    def test_validation(self):
        with pytest.raises(ParameterError):
            FaultInjector.random_schedule(workers=0, requests=100)
        with pytest.raises(ParameterError):
            FaultInjector.random_schedule(workers=2, requests=5)

    def test_summary_counts_by_kind(self):
        injector = FaultInjector.random_schedule(
            workers=2, requests=100, kills=1, stops=1, drops=2, seed=0
        )
        assert injector.summary() == {
            "kill": 1,
            "stop": 1,
            "cont": 1,
            "drop_reply": 2,
        }


class TestParentDispatch:
    def test_parent_faults_fire_exactly_once(self):
        kill = FaultSpec("kill", 0, at=7)
        stop = FaultSpec("stop", 1, at=7)
        injector = FaultInjector([kill, stop, FaultSpec("cont", 1, at=9)])
        assert injector.parent_faults_at(6) == []
        assert injector.parent_faults_at(7) == [kill, stop]
        # Fired means consumed: a replayed submit count is a no-op.
        assert injector.parent_faults_at(7) == []
        assert injector.fired() == [kill, stop]
        assert [s.kind for s in injector.parent_faults_at(9)] == ["cont"]

    def test_worker_kinds_never_reach_the_parent(self):
        injector = FaultInjector([FaultSpec("drop_reply", 0, at=3)])
        for count in range(10):
            assert injector.parent_faults_at(count) == []
        assert injector.fired() == []

    def test_worker_plan_splits_by_worker_and_kind(self):
        drop0 = FaultSpec("drop_reply", 0, at=1)
        delay1 = FaultSpec("delay_reply", 1, at=2, delay=0.5)
        injector = FaultInjector([drop0, delay1, FaultSpec("kill", 0, at=4)])
        assert injector.worker_plan(0) == (drop0,)
        assert injector.worker_plan(1) == (delay1,)
        assert injector.worker_plan(2) == ()


class TestWorkerFaultPlan:
    def test_empty_plan_is_falsy_and_inert(self):
        plan = WorkerFaultPlan(())
        assert not plan
        assert all(plan.on_reply() is None for _ in range(5))
        assert not any(plan.on_update_applied() for _ in range(5))

    def test_reply_ordinals_trigger_drop_and_delay(self):
        plan = WorkerFaultPlan(
            (
                FaultSpec("drop_reply", 0, at=1),
                FaultSpec("delay_reply", 0, at=3, delay=0.25),
            )
        )
        assert plan
        assert plan.on_reply() is None  # ordinal 0
        assert plan.on_reply() == ("drop", 0.0)  # ordinal 1
        assert plan.on_reply() is None  # ordinal 2
        assert plan.on_reply() == ("delay", 0.25)  # ordinal 3
        assert plan.on_reply() is None  # one-shot, does not repeat

    def test_crash_ordinal_counts_update_broadcasts(self):
        plan = WorkerFaultPlan((FaultSpec("crash_update", 0, at=1),))
        assert plan.on_update_applied() is False  # broadcast 0
        assert plan.on_update_applied() is True  # broadcast 1
        assert plan.on_update_applied() is False


class TestLostReplyEndToEnd:
    @pytest.mark.parametrize(
        "fault",
        [
            {"kind": "drop_reply"},
            # Later than the timeout: the retry's answer and then the
            # late original both come back, the original to nobody.
            {"kind": "delay_reply", "delay": 1.0},
        ],
        ids=lambda fault: fault["kind"],
    )
    def test_lost_reply_recovers_via_retry_byte_identical(self, fault):
        rng = np.random.default_rng(13)
        graph = rmat_digraph(8, 1200, rng=rng, name="faults-e2e")
        injector = FaultInjector(
            [FaultSpec(worker=w, at=0, **fault) for w in (0, 1)]
        )
        with ShardedDispatcher(
            graph,
            workers=2,
            alpha=0.2,
            seed=7,
            fault_injector=injector,
            request_timeout=0.5,
        ) as disp:
            sources = list(range(10))
            served = {
                s: disp.query(s, "powerpush", **PARAMS) for s in sources
            }
            stats = disp.stats()
            assert stats["supervisor"]["retries"] >= 1
            # The late or missing reply left nothing pending behind it.
            assert not any(state.pending for state in disp._states.values())
        engine = PPREngine(graph, alpha=0.2, seed=7)
        for s in sources:
            expected = engine.query(s, "powerpush", **PARAMS)
            assert (
                served[s].result.estimate.tobytes()
                == expected.estimate.tobytes()
            )
