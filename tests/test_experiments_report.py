"""Unit tests for report rendering and experiment configuration."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.experiments.config import (
    ExperimentConfig,
    bench_config,
    full_config,
    query_sources,
)
from repro.experiments.report import (
    ascii_chart,
    format_bytes,
    format_ratio,
    format_seconds,
    format_series,
    format_table,
)
from repro.graph.build import cycle_graph


class TestFormatters:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"],
            [["a", "1"], ["long-name", "22"]],
            title="T",
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        # All data rows have the same width.
        assert len(lines[3]) == len(lines[4])

    def test_format_ratio(self):
        assert format_ratio(2.0, 1.0) == "2.0x"
        assert format_ratio(170.0, 10.0) == "17x"
        assert format_ratio(1.0, 0.0) == "n/a"

    def test_format_seconds(self):
        assert format_seconds(0.5e-6).endswith("us")
        assert format_seconds(0.005).endswith("ms")
        assert format_seconds(2.0) == "2.00s"
        assert format_seconds(500.0) == "500s"

    def test_format_bytes(self):
        assert format_bytes(512) == "512B"
        assert format_bytes(2048) == "2.00KB"
        assert format_bytes(8.01 * 1024 * 1024).startswith("8.0")

    def test_ascii_chart_renders_markers(self):
        chart = ascii_chart(
            {
                "a": ([1, 2, 3], [1.0, 0.1, 0.01]),
                "b": ([1, 2, 3], [0.5, 0.05, 0.005]),
            },
            title="demo",
            width=20,
            height=6,
        )
        assert "demo" in chart
        assert "*" in chart and "o" in chart
        assert "legend" in chart

    def test_ascii_chart_empty(self):
        assert "(no data)" in ascii_chart({}, title="x")

    def test_ascii_chart_handles_zeros_on_log_axis(self):
        chart = ascii_chart({"a": ([1, 2], [0.0, 1.0])}, log_y=True)
        assert "legend" in chart

    def test_format_series_downsamples(self):
        xs = list(range(100))
        ys = [1.0 / (i + 1) for i in xs]
        text = format_series({"curve": (xs, ys)}, max_points=5)
        assert text.count("(") <= 12


class TestConfig:
    def test_default_l1_threshold_rule(self):
        config = ExperimentConfig()
        graph = cycle_graph(10)
        assert config.l1_threshold(graph) == pytest.approx(1e-8)

    def test_full_config_uses_30_sources(self):
        assert full_config().num_sources == 30

    def test_bench_config_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DATASETS", "dblp-s, orkut-s")
        monkeypatch.setenv("REPRO_BENCH_SOURCES", "7")
        config = bench_config()
        assert config.datasets == ("dblp-s", "orkut-s")
        assert config.num_sources == 7

    def test_bench_config_rejects_unknown_dataset(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DATASETS", "nope-s")
        with pytest.raises(ParameterError):
            bench_config()

    def test_bench_config_rejects_bad_sources(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SOURCES", "zero")
        with pytest.raises(ParameterError):
            bench_config()

    def test_query_sources_deterministic(self):
        graph = cycle_graph(50)
        a = query_sources(graph, 5, seed=1)
        b = query_sources(graph, 5, seed=1)
        np.testing.assert_array_equal(a, b)
        assert a.min() >= 0 and a.max() < 50

    def test_query_sources_rejects_zero(self):
        with pytest.raises(ParameterError):
            query_sources(cycle_graph(5), 0)
