"""Unit tests for PPRResult and the shared validation helpers."""

import math
from functools import partial

import numpy as np
import pytest

from repro.api.engine import PPREngine
from repro.core.powerpush import power_push
from repro.core.result import PPRResult
from repro.core.validation import (
    check_alpha,
    check_epsilon,
    check_failure_probability,
    check_l1_threshold,
    check_mu,
    check_r_max,
    check_source,
    default_l1_threshold,
)
from repro.errors import NodeNotFoundError, ParameterError
from repro.graph.build import cycle_graph, empty_graph


class TestPPRResult:
    def _result(self, values):
        return PPRResult(
            estimate=np.asarray(values, dtype=float),
            residue=np.zeros(len(values)),
            source=0,
            alpha=0.2,
        )

    def test_top_k_descending_with_ties_by_id(self):
        result = self._result([0.1, 0.5, 0.5, 0.3])
        assert result.top_k(3) == [
            (1, 0.5),
            (2, 0.5),
            (3, 0.3),
        ]

    def test_top_k_clamps(self):
        result = self._result([0.2, 0.8])
        assert len(result.top_k(10)) == 2
        assert result.top_k(0) == []
        assert result.top_k(-3) == []

    def test_r_sum_without_residue_is_nan(self):
        result = PPRResult(
            estimate=np.ones(2), residue=None, source=0, alpha=0.2
        )
        assert math.isnan(result.r_sum)

    def test_r_sum_with_residue(self):
        result = PPRResult(
            estimate=np.zeros(3),
            residue=np.array([0.1, 0.2, 0.3]),
            source=0,
            alpha=0.2,
        )
        assert result.r_sum == pytest.approx(0.6)


class TestValidationHelpers:
    def test_alpha_domain(self):
        assert check_alpha(0.2) == 0.2
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ParameterError):
                check_alpha(bad)

    def test_source_domain(self):
        graph = cycle_graph(4)
        assert check_source(graph, 3) == 3
        assert check_source(graph, np.int64(2)) == 2
        with pytest.raises(NodeNotFoundError):
            check_source(graph, 4)
        with pytest.raises(NodeNotFoundError):
            check_source(graph, -1)
        with pytest.raises(ParameterError):
            check_source(graph, "zero")
        # only integers are ids: none is truncated, at any entry point
        engine = PPREngine(graph)
        for solve in (
            partial(check_source, graph),
            partial(power_push, graph),
            engine.query,
        ):
            for bad in (2.7, np.float64(4.5), True, "3"):
                with pytest.raises(ParameterError, match="integer"):
                    solve(bad)
        assert type(power_push(graph, np.int64(2)).source) is int

    def test_l1_threshold_domain(self):
        assert check_l1_threshold(1.0) == 1.0
        assert check_l1_threshold(1e-12) == 1e-12
        for bad in (0.0, 1.5, -1e-9):
            with pytest.raises(ParameterError):
                check_l1_threshold(bad)

    def test_r_max_domain(self):
        assert check_r_max(0.0) == 0.0
        assert check_r_max(1.0) == 1.0
        with pytest.raises(ParameterError):
            check_r_max(-0.1)
        with pytest.raises(ParameterError):
            check_r_max(1.1)

    def test_epsilon_domain(self):
        assert check_epsilon(2.5) == 2.5
        with pytest.raises(ParameterError):
            check_epsilon(0.0)

    def test_mu_domain(self):
        assert check_mu(1.0) == 1.0
        with pytest.raises(ParameterError):
            check_mu(0.0)
        with pytest.raises(ParameterError):
            check_mu(1.0001)

    def test_failure_probability_domain(self):
        assert check_failure_probability(0.5) == 0.5
        for bad in (0.0, 1.0):
            with pytest.raises(ParameterError):
                check_failure_probability(bad)

    def test_default_l1_threshold(self):
        # min(1e-8, 1/m): small graph -> 1e-8; huge m -> 1/m.
        assert default_l1_threshold(cycle_graph(5)) == pytest.approx(1e-8)
        assert default_l1_threshold(empty_graph(3)) == pytest.approx(1e-8)


class TestPublicApi:
    def test_top_level_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_the_frozen_harness_can_stamp_its_kernel_name(self, monkeypatch):
        # benchmarks/e2e/run.py's whole use of repro.backends; nothing
        # in the environment selects kernels.
        import repro.backends

        monkeypatch.setenv("REPRO_PPR_BACKEND", "tpu")
        assert repro.backends.resolve_backend(None).name == "numpy"
        assert repro.backends.__all__ == ["resolve_backend"]

    def test_version(self):
        import repro

        assert repro.__version__ == "1.1.0"
