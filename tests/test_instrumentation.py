"""Unit tests for counters and traces."""

import time

from repro.instrumentation.counters import PushCounters
from repro.instrumentation.tracing import ConvergenceTrace


class TestCounters:
    def test_count_push(self):
        counters = PushCounters()
        counters.count_push(5)
        counters.count_push(0)
        assert counters.pushes == 2
        assert counters.residue_updates == 5

    def test_bulk(self):
        counters = PushCounters()
        counters.count_bulk_pushes(10, 300)
        assert counters.pushes == 10
        assert counters.residue_updates == 300

    def test_bump_extras(self):
        counters = PushCounters()
        counters.bump("epochs")
        counters.bump("epochs", 2)
        assert counters.extras["epochs"] == 3

    def test_merge(self):
        a = PushCounters(pushes=1, residue_updates=2, random_walks=3)
        a.bump("x", 1)
        b = PushCounters(pushes=10, residue_updates=20, walk_steps=5)
        b.bump("x", 2)
        a.merge(b)
        assert a.pushes == 11
        assert a.residue_updates == 22
        assert a.random_walks == 3
        assert a.walk_steps == 5
        assert a.extras["x"] == 3

    def test_as_dict_includes_extras(self):
        counters = PushCounters()
        counters.bump("custom", 7)
        data = counters.as_dict()
        assert data["custom"] == 7
        assert "pushes" in data


class TestTrace:
    def test_stride_filtering(self):
        trace = ConvergenceTrace(stride=100)
        trace.maybe_record(0, 1.0)
        trace.maybe_record(50, 0.9)  # skipped: only 50 new updates
        trace.maybe_record(120, 0.8)
        assert len(trace) == 2

    def test_record_always_appends(self):
        trace = ConvergenceTrace(stride=1000)
        trace.record(0, 1.0)
        trace.record(1, 0.5)
        assert len(trace) == 2

    def test_series_views(self):
        trace = ConvergenceTrace()
        trace.record(10, 0.5)
        trace.record(20, 0.25)
        xs, ys = trace.series_vs_updates()
        assert xs == [10, 20]
        assert ys == [0.5, 0.25]
        ts, ys2 = trace.series_vs_time()
        assert len(ts) == 2
        assert ys2 == ys

    def test_threshold_queries(self):
        trace = ConvergenceTrace()
        trace.record(10, 0.5)
        trace.record(20, 0.05)
        assert trace.updates_to_error(0.1) == 20
        assert trace.updates_to_error(0.01) is None
        assert trace.time_to_error(0.1) is not None

    def test_clock_restart(self):
        trace = ConvergenceTrace()
        time.sleep(0.01)
        trace.restart_clock()
        trace.record(0, 1.0)
        assert trace.points[0].seconds < 0.01

