"""Tests for the workload generator and the load/soak harness."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.generators.rmat import rmat_digraph
from repro.graph.dynamic import DynamicGraph
from repro.serving import FaultInjector, WorkloadGenerator, run_loadtest


def make_static():
    return rmat_digraph(
        9, 3000, rng=np.random.default_rng(1), name="wl-static"
    )


def make_dynamic():
    return DynamicGraph(
        rmat_digraph(9, 3000, rng=np.random.default_rng(1), name="wl-dyn")
    )


class TestWorkloadGenerator:
    def test_deterministic_per_seed(self):
        a = WorkloadGenerator(512, seed=5).generate(50)
        b = WorkloadGenerator(512, seed=5).generate(50)
        assert a.operations == b.operations
        c = WorkloadGenerator(512, seed=6).generate(50)
        assert a.operations != c.operations

    def test_read_only_by_default(self):
        workload = WorkloadGenerator(512, seed=1).generate(40)
        assert workload.num_updates == 0
        assert workload.num_queries == 40

    def test_read_write_mix(self):
        workload = WorkloadGenerator(
            512, read_fraction=0.5, seed=1
        ).generate(200)
        assert workload.num_updates > 40
        assert workload.num_queries > 40
        for op in workload.operations:
            assert (op.kind == "update") == (op.source == -1)

    def test_zipf_skew_concentrates_the_head(self):
        flat = WorkloadGenerator(
            512, num_sources=16, zipf_exponent=0.0, seed=2
        ).generate(800)
        skewed = WorkloadGenerator(
            512, num_sources=16, zipf_exponent=1.5, seed=2
        ).generate(800)

        def top_share(workload):
            counts = {}
            for op in workload.queries():
                counts[op.source] = counts.get(op.source, 0) + 1
            return max(counts.values()) / workload.num_queries

        assert top_share(skewed) > 2 * top_share(flat)

    def test_sources_stay_in_hot_set(self):
        workload = WorkloadGenerator(64, num_sources=4, seed=3).generate(100)
        assert workload.distinct_sources <= 4
        assert all(
            0 <= op.source < 64 for op in workload.queries()
        )

    def test_open_loop_arrivals_are_increasing(self):
        workload = WorkloadGenerator(
            64, arrival="open", arrival_rate=100.0, seed=4
        ).generate(50)
        arrivals = [op.at for op in workload.operations]
        assert all(b > a for a, b in zip(arrivals, arrivals[1:]))
        assert arrivals[-1] > 0.1  # ~50 ops at 100/s

    def test_closed_loop_has_no_timestamps(self):
        workload = WorkloadGenerator(64, seed=4).generate(10)
        assert all(op.at == 0.0 for op in workload.operations)

    def test_update_rng_reproducible(self):
        workload = WorkloadGenerator(64, seed=9).generate(5)
        a = workload.update_rng().integers(0, 1000, 4)
        b = workload.update_rng().integers(0, 1000, 4)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_sources": 0},
            {"num_sources": 100},
            {"zipf_exponent": -0.1},
            {"read_fraction": 1.5},
            {"arrival": "poisson"},
            {"arrival_rate": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            WorkloadGenerator(64, **kwargs)

    def test_generate_rejects_empty(self):
        with pytest.raises(ParameterError):
            WorkloadGenerator(64).generate(0)

    def test_describe_mentions_shape(self):
        workload = WorkloadGenerator(
            64, num_sources=8, zipf_exponent=1.3, seed=0
        ).generate(20)
        text = workload.describe()
        assert "20 ops" in text and "s=1.3" in text and "8 hot" in text


class TestRunLoadtest:
    def test_read_only_closed_loop_is_identical_and_measured(self):
        workload = WorkloadGenerator(
            make_static().num_nodes, num_sources=12, zipf_exponent=1.2, seed=5
        ).generate(60)
        report = run_loadtest(
            make_static,
            workload,
            method="powerpush",
            params={"l1_threshold": 1e-6},
            concurrency=3,
            seed=5,
        )
        assert report.identical is True
        assert report.served.queries == 60
        assert report.serial.queries == 60
        assert report.served.throughput_qps > 0
        assert report.speedup > 0
        # 60 Zipfian reads over 12 hot sources must hit the cache
        assert 0.0 < report.cache_hit_rate <= 1.0
        # every read is a hit, joins a flight or leads one
        stats = report.server_stats
        flights = stats["flights"]
        assert stats["cache"]["hits"] + flights["led"] + flights["joined"] == 60
        # no writer: every read was enqueued on the loop
        assert report.frontdoor["writer_waits"] == 0
        payload = report.to_dict()
        assert payload["identical"] is True
        assert payload["served"]["p99_ms"] >= payload["served"]["p50_ms"]
        assert "speedup" in report.render() or "speedup:" in report.render()

    def test_open_loop_runs(self):
        workload = WorkloadGenerator(
            make_static().num_nodes,
            num_sources=8,
            arrival="open",
            arrival_rate=3000.0,
            seed=6,
        ).generate(40)
        report = run_loadtest(
            make_static,
            workload,
            method="powerpush",
            params={"l1_threshold": 1e-6},
            concurrency=1,
            seed=6,
        )
        assert report.identical is True
        assert report.served.queries == 40

    def test_soak_with_writes_completes_consistently(self):
        workload = WorkloadGenerator(
            make_dynamic().num_nodes,
            num_sources=10,
            read_fraction=0.85,
            seed=7,
        ).generate(60)
        assert workload.num_updates > 0
        report = run_loadtest(
            make_dynamic,
            workload,
            method="powerpush",
            params={"l1_threshold": 1e-6},
            concurrency=3,
            seed=7,
        )
        # writes make byte-comparison meaningless, reported as None
        assert report.identical is None
        assert report.served.updates == workload.num_updates
        stats = report.server_stats
        assert stats["graph_version"] == workload.num_updates

    def test_soak_applies_the_same_updates_as_serial(self):
        """Both runs must sample/apply the identical update stream
        (claim-ordered), so the two final graphs match exactly."""
        workload = WorkloadGenerator(
            make_dynamic().num_nodes,
            num_sources=10,
            read_fraction=0.7,
            seed=11,
        ).generate(60)
        graphs = []

        def tracked_make_dynamic():
            graph = make_dynamic()
            graphs.append(graph)
            return graph

        run_loadtest(
            tracked_make_dynamic,
            workload,
            method="powerpush",
            params={"l1_threshold": 1e-6},
            concurrency=4,
            seed=11,
        )
        served_graph, serial_graph = graphs
        assert served_graph.version == serial_graph.version > 0
        a_sources, a_targets = served_graph.snapshot().edge_array()
        b_sources, b_targets = serial_graph.snapshot().edge_array()
        np.testing.assert_array_equal(a_sources, b_sources)
        np.testing.assert_array_equal(a_targets, b_targets)

    def test_stochastic_method_reports_identical_none(self):
        workload = WorkloadGenerator(
            make_static().num_nodes, num_sources=6, seed=8
        ).generate(20)
        report = run_loadtest(
            make_static,
            workload,
            method="montecarlo",
            params={"num_walks": 100, "seed": 3},
            concurrency=2,
            seed=8,
        )
        assert report.identical is None
        assert report.method == "montecarlo"

    def test_updates_require_dynamic_graph(self):
        workload = WorkloadGenerator(
            make_static().num_nodes, read_fraction=0.5, seed=9
        ).generate(30)
        with pytest.raises(ParameterError, match="DynamicGraph"):
            run_loadtest(make_static, workload, concurrency=1)

    def test_rejects_bad_concurrency(self):
        workload = WorkloadGenerator(64, seed=0).generate(5)
        with pytest.raises(ParameterError, match="concurrency"):
            run_loadtest(make_static, workload, concurrency=0)

    def test_slo_run_accounts_every_request(self):
        """SLO-aware runs bucket every request exactly once (completed,
        shed, deadline-expired, or failed) — `accounted == queries` is
        the no-hung-futures invariant — and every answer actually
        served stays byte-identical to the serial baseline."""
        workload = WorkloadGenerator(
            make_static().num_nodes,
            num_sources=8,
            arrival="open",
            arrival_rate=4000.0,  # well past a tiny server's capacity
            seed=12,
        ).generate(60)
        report = run_loadtest(
            make_static,
            workload,
            method="powerpush",
            params={"l1_threshold": 1e-7},
            concurrency=1,
            seed=12,
            slo_ms=50.0,
            deadline_ms=150.0,
            max_inflight=8,
            degrade_params={"l1_threshold": 1e-3},
        )
        served = report.served
        assert served.accounted == served.queries == 60
        assert served.failed == 0
        assert served.completed >= 1
        # 60 arrivals in ~15 ms against 8 in-flight slots: admission
        # control must have acted, or this is not an overload test.
        assert served.shed + served.degraded + served.deadline_expired > 0
        assert served.within_slo <= served.completed
        assert served.goodput_qps >= 0.0
        assert 0.0 <= served.shed_rate <= 1.0
        assert report.identical is True  # served answers, full + degraded
        assert report.frontdoor  # snapshot travels on the report
        assert report.frontdoor["submitted"] == 60
        payload = report.to_dict()
        assert payload["served"]["accounted"] == 60
        assert payload["served"]["slo_ms"] == 50.0
        assert "goodput" in report.render()

    def test_slo_requires_open_loop(self):
        workload = WorkloadGenerator(
            make_static().num_nodes, seed=13
        ).generate(10)
        with pytest.raises(ParameterError, match="open-loop"):
            run_loadtest(make_static, workload, slo_ms=50.0)

    def test_slo_soak_with_writes_accounts_every_request(self):
        """Writes take the same front-door path as reads: an open-loop
        SLO-aware soak loses no request and its served graph ends equal
        to the serial one, edge for edge."""
        workload = WorkloadGenerator(
            make_dynamic().num_nodes,
            num_sources=10,
            read_fraction=0.8,
            arrival="open",
            arrival_rate=2000.0,
            seed=14,
        ).generate(60)
        assert workload.num_updates > 0
        graphs = []

        def tracked_make_dynamic():
            graph = make_dynamic()
            graphs.append(graph)
            return graph

        report = run_loadtest(
            tracked_make_dynamic,
            workload,
            method="powerpush",
            params={"l1_threshold": 1e-6},
            seed=14,
            slo_ms=50.0,
            deadline_ms=10_000.0,
            degrade_params={"l1_threshold": 1e-3},
        )
        served = report.served
        assert served.accounted == served.queries == workload.num_queries
        assert served.failed == 0
        assert report.server_stats["graph_version"] == workload.num_updates
        served_graph, serial_graph = graphs
        assert served_graph.version == serial_graph.version > 0
        a_sources, a_targets = served_graph.snapshot().edge_array()
        b_sources, b_targets = serial_graph.snapshot().edge_array()
        np.testing.assert_array_equal(a_sources, b_sources)
        np.testing.assert_array_equal(a_targets, b_targets)

    def test_degrade_params_require_slo(self):
        workload = WorkloadGenerator(
            make_static().num_nodes, seed=15
        ).generate(10)
        with pytest.raises(ParameterError, match="slo_ms"):
            run_loadtest(
                make_static,
                workload,
                degrade_params={"l1_threshold": 1e-3},
            )

    def test_sharded_run_is_identical_and_leaves_no_segments(
        self, no_leaked_segments
    ):
        """``workers=2``: the same replay through two shard processes
        over one shared-memory image — placement must not change a
        byte, and teardown must unlink every segment."""
        workload = WorkloadGenerator(
            make_static().num_nodes, num_sources=24, zipf_exponent=1.2, seed=16
        ).generate(120)
        report = run_loadtest(
            make_static,
            workload,
            method="powerpush",
            params={"l1_threshold": 1e-6},
            concurrency=4,
            seed=16,
            workers=2,
        )
        assert report.identical is True
        assert report.workers == 2
        assert report.served.accounted == report.served.queries == 120
        assert report.served.failed == 0
        assert report.server_stats["workers"] == 2
        assert report.server_stats["requests"] == 120

    def test_chaos_run_recovers_every_request(self, no_leaked_segments):
        """A seeded fault schedule — one SIGKILLed shard, one dropped
        and one delayed reply — must cost nothing observable: every
        request accounted and answered, byte-identical to the serial
        baseline, the killed shard respawned, full capacity restored.
        With respawning disabled (``max_restarts=0``) this test fails:
        the victim is removed and the run ends degraded."""
        requests = 160
        chaos = FaultInjector.random_schedule(
            workers=2, requests=requests, kills=1, drops=1, delays=1, seed=17
        )
        workload = WorkloadGenerator(
            make_static().num_nodes, num_sources=24, zipf_exponent=1.2, seed=17
        ).generate(requests)
        report = run_loadtest(
            make_static,
            workload,
            method="powerpush",
            params={"l1_threshold": 1e-6},
            concurrency=4,
            seed=17,
            workers=2,
            chaos=chaos,
            request_timeout=1.0,
            max_restarts=3,
        )
        served = report.served
        assert served.accounted == served.queries == requests
        assert served.failed == 0
        assert report.identical is True
        assert report.chaos["scheduled"] == {
            "kill": 1,
            "drop_reply": 1,
            "delay_reply": 1,
        }
        kills_fired = sum(
            spec["kind"] == "kill" for spec in report.chaos["fired"]
        )
        assert kills_fired == 1
        supervisor = report.chaos["supervisor"]
        assert supervisor["respawns"] >= kills_fired
        assert supervisor["removed"] == []
        assert supervisor["degraded_capacity"] is False
        # The dropped reply is only ever recovered by the hang detector.
        assert supervisor["request_timeouts"] >= 1
        assert supervisor["retries"] >= 1
        stats = report.server_stats
        assert stats["workers"] == stats["configured_workers"] == 2

    def test_json_roundtrip(self, tmp_path):
        workload = WorkloadGenerator(
            make_static().num_nodes, num_sources=6, seed=10
        ).generate(20)
        report = run_loadtest(
            make_static,
            workload,
            method="powerpush",
            params={"l1_threshold": 1e-6},
            concurrency=2,
            seed=10,
        )
        path = report.write_json(tmp_path / "bench" / "serving.json")
        import json

        payload = json.loads(path.read_text())
        assert payload["method"] == "powerpush"
        assert payload["served"]["queries"] == 20
        assert payload["speedup"] == pytest.approx(report.speedup)
