"""Tests for the solver registry (:mod:`repro.api.registry`)."""

import numpy as np
import pytest

from repro.api import (
    PPREngine,
    SolverSpec,
    UnknownMethodError,
    canonical_method_name,
    get_solver,
    register_solver,
    resolve_method,
    solve,
    solver_names,
    solver_specs,
)
from repro.api.registry import BEPI_INDEX, FORA_INDEX, PARAMS, WALK_INDEX
from repro.core.power_iteration import power_iteration
from repro.core.powerpush import power_push
from repro.errors import ParameterError, ReproError
from repro.graph.build import paper_example_graph
from repro.serving.cache import resolve_request

ALL_METHODS = (
    "bepi",
    "fifo-fwdpush",
    "fora",
    "incremental",
    "montecarlo",
    "powerpush",
    "powitr",
    "resacc",
    "speedppr",
)

#: Spellings of the two unregistered solvers (SimFwdPush and Algorithm
#: 1's scheduled loop are plain functions in repro.core).
REMOVED_SPELLINGS = (
    "simfwdpush",
    "simultaneous-fwdpush",
    "sim",
    "fwdpush-scheduled",
    "scalar-fwdpush",
    "algo1",
)

#: Parameters that left the unified schema with them.
REMOVED_PARAMS = {
    "mode": "faithful",
    "push_mode": "faithful",
    "scheduler": "lifo",
    "max_pushes": 10,
}


class TestResolution:
    def test_every_expected_method_is_registered(self):
        assert tuple(solver_names()) == ALL_METHODS

    @pytest.mark.parametrize(
        "alias, canonical",
        [
            ("powerpush", "powerpush"),
            ("Power-Push", "powerpush"),
            ("ALGO3", "powerpush"),
            ("powitr", "powitr"),
            ("power_iteration", "powitr"),
            ("power-iteration", "powitr"),
            ("fwdpush", "fifo-fwdpush"),
            ("FIFO FwdPush", "fifo-fwdpush"),
            ("algo2", "fifo-fwdpush"),
            ("speedppr", "speedppr"),
            ("speed_ppr", "speedppr"),
            ("SpeedPPR-Index", "speedppr"),
            ("fora", "fora"),
            ("fora+", "fora"),
            ("FORA-Index", "fora"),
            ("resacc", "resacc"),
            ("mc", "montecarlo"),
            ("monte-carlo", "montecarlo"),
            ("bepi", "bepi"),
            ("BLOCKELIM", "bepi"),
        ],
    )
    def test_alias_resolution(self, alias, canonical):
        assert canonical_method_name(alias) == canonical

    def test_variant_alias_implies_parameters(self):
        spec, implied = resolve_method("fora+")
        assert spec.name == "fora"
        assert implied == {"use_index": True}
        spec, implied = resolve_method("speedppr-index")
        assert spec.name == "speedppr"
        assert implied == {"use_index": True}
        _, implied = resolve_method("fora")
        assert implied == {}

    @pytest.mark.parametrize(
        "spelling", ["incremental", "tracked", "Incremental-PPR"]
    )
    def test_incremental_is_an_ordinary_registration(self, spelling):
        spec, implied = resolve_method(spelling)
        assert spec is get_solver(spelling)
        assert spec.name == "incremental" and implied == {}
        assert spec.params == ("l1_threshold", "trace")
        listed = solver_names(include_aliases=True)
        assert {"incremental", "tracked", "incremental-ppr"} <= set(listed)

    def test_incremental_without_an_engine_is_a_typed_refusal(self):
        with pytest.raises(ParameterError, match="PPREngine"):
            solve(paper_example_graph(), 0, "incremental")

    def test_unknown_method_lists_valid_names(self):
        with pytest.raises(UnknownMethodError) as excinfo:
            get_solver("pagerank-turbo")
        message = str(excinfo.value)
        assert "pagerank-turbo" in message
        for name in ("powerpush", "fwdpush", "speedppr", "montecarlo"):
            assert name in message

    def test_unknown_method_is_a_repro_error(self):
        with pytest.raises(ReproError):
            get_solver("nope")
        with pytest.raises(KeyError):
            get_solver("nope")

    @pytest.mark.parametrize("spelling", REMOVED_SPELLINGS)
    def test_removed_spelling_is_unknown(self, spelling):
        with pytest.raises(UnknownMethodError, match=spelling):
            get_solver(spelling)
        assert spelling not in solver_names(include_aliases=True)
        graph = paper_example_graph()
        with pytest.raises(UnknownMethodError):
            solve(graph, 0, spelling, l1_threshold=1e-6)
        with pytest.raises(UnknownMethodError):
            PPREngine(graph).query(0, spelling, l1_threshold=1e-6)
        with pytest.raises(UnknownMethodError):
            resolve_request(0, spelling, {"l1_threshold": 1e-6})


class TestSpecs:
    def test_kinds(self):
        exact = {s.name for s in solver_specs() if s.kind == "exact"}
        approx = {s.name for s in solver_specs() if s.kind == "approx"}
        assert exact == {
            "powerpush",
            "powitr",
            "fifo-fwdpush",
            "bepi",
            "incremental",
        }
        assert approx == {"speedppr", "fora", "resacc", "montecarlo"}

    def test_capability_flags(self, paper_graph):
        assert get_solver("bepi").artefact is BEPI_INDEX
        assert get_solver("speedppr").artefact is WALK_INDEX
        # SpeedPPR's eps-independent index is wanted by default, FORA's
        # per-budget one only on request (and ResAcc shares it).
        assert WALK_INDEX.wanted(paper_graph, {})
        assert not WALK_INDEX.wanted(paper_graph, {"use_index": False})
        assert get_solver("fora").artefact is FORA_INDEX
        assert get_solver("resacc").artefact is FORA_INDEX
        assert not FORA_INDEX.wanted(paper_graph, {})
        assert FORA_INDEX.wanted(paper_graph, {"use_index": True})
        assert get_solver("speedppr").needs_rng
        assert not get_solver("powerpush").needs_rng
        assert get_solver("powerpush").artefact is None
        assert get_solver("incremental").tracked
        assert not get_solver("powerpush").tracked

    def test_params_are_subset_of_unified_schema(self):
        for spec in solver_specs():
            for param in spec.params:
                assert param in PARAMS, (spec.name, param)

    def test_spec_rejects_bad_kind_and_bad_params(self):
        with pytest.raises(ParameterError):
            SolverSpec(
                name="x", aliases=(), kind="magic", summary="", params=()
            )
        with pytest.raises(ParameterError):
            SolverSpec(
                name="x",
                aliases=(),
                kind="exact",
                summary="",
                params=("no_such_parameter",),
            )

    def test_spec_requires_a_callable_fn(self):
        with pytest.raises(ParameterError):
            SolverSpec(
                name="x", aliases=(), kind="exact", summary="", params=()
            )

    def test_register_rejects_alias_collision(self):
        clone = SolverSpec(
            name="powerpush-2",
            aliases=("powerpush",),  # collides with the real one
            kind="exact",
            summary="",
            params=(),
            fn=power_push,
        )
        with pytest.raises(ParameterError):
            register_solver(clone)
        assert "powerpush-2" not in solver_names()

    def test_register_rejects_canonical_name_reuse(self):
        impostor = SolverSpec(
            name="powerpush",
            aliases=(),
            kind="exact",
            summary="",
            params=(),
            fn=power_iteration,
        )
        with pytest.raises(ParameterError):
            register_solver(impostor)
        # the real solver is untouched
        assert get_solver("powerpush").fn is power_push

    def test_register_rejects_duplicate_spelling_within_one_spec(self):
        twice = SolverSpec(
            name="brand-new",
            aliases=("brandnew",),  # normalises to the spec name itself
            kind="exact",
            summary="",
            params=(),
            fn=power_push,
        )
        with pytest.raises(ParameterError):
            register_solver(twice)
        assert "brand-new" not in solver_names()


class TestSolve:
    def test_unknown_parameter_rejected_with_accepted_list(self):
        graph = paper_example_graph()
        with pytest.raises(ParameterError) as excinfo:
            solve(graph, 0, method="powerpush", epsilon=0.5)
        assert "epsilon" in str(excinfo.value)
        assert "l1_threshold" in str(excinfo.value)
        for name in solver_names():
            with pytest.raises(ParameterError, match="backend"):
                solve(graph, 0, method=name, backend="numpy")

    @pytest.mark.parametrize("door", ["solve", "engine", "resolve_request"])
    @pytest.mark.parametrize("param", sorted(REMOVED_PARAMS))
    def test_removed_param_is_rejected(self, param, door):
        # The execution-mode and scalar-loop knobs are gone from every
        # solver and every front door.
        assert param not in PARAMS
        graph = paper_example_graph()
        engine = PPREngine(graph)
        value = REMOVED_PARAMS[param]
        for name in solver_names():
            with pytest.raises(ParameterError, match=param):
                if door == "solve":
                    solve(graph, 0, method=name, **{param: value})
                elif door == "engine":
                    engine.query(0, name, **{param: value})
                else:
                    resolve_request(0, name, {param: value})

    def test_solve_matches_direct_call(self):
        graph = paper_example_graph()
        via_registry = solve(graph, 0, method="powitr", l1_threshold=1e-9)
        direct = power_iteration(graph, 0, l1_threshold=1e-9)
        np.testing.assert_array_equal(via_registry.estimate, direct.estimate)
        assert via_registry.method == direct.method == "PowItr"

    def test_registry_seed_matches_engine_seed(self):
        # One derivation everywhere: registry-direct seeded answers are
        # byte-identical to the engine's (and hence the serving layer's).
        from repro.api import PPREngine

        graph = paper_example_graph()
        direct = solve(graph, 2, method="montecarlo", num_walks=300, seed=11)
        via_engine = PPREngine(graph, seed=99).query(
            2, method="montecarlo", num_walks=300, seed=11
        )
        np.testing.assert_array_equal(
            direct.estimate, via_engine.estimate
        )

    def test_seed_makes_stochastic_methods_reproducible(self):
        graph = paper_example_graph()
        first = solve(graph, 0, method="montecarlo", num_walks=500, seed=11)
        second = solve(graph, 0, method="montecarlo", num_walks=500, seed=11)
        other = solve(graph, 0, method="montecarlo", num_walks=500, seed=12)
        np.testing.assert_array_equal(first.estimate, second.estimate)
        assert not np.array_equal(first.estimate, other.estimate)

    def test_params_mapping_and_kwargs_merge(self):
        graph = paper_example_graph()
        spec = get_solver("powitr")
        result = spec.solve(
            graph, 0, params={"l1_threshold": 1e-4}, l1_threshold=1e-9
        )
        # kwargs win over the mapping
        assert result.r_sum <= 1e-9

    def test_bepi_via_registry_builds_index_ad_hoc(self):
        graph = paper_example_graph()
        result = solve(graph, 0, method="bepi", delta=1e-10)
        exact = power_iteration(graph, 0, l1_threshold=1e-12)
        assert np.abs(result.estimate - exact.estimate).sum() < 1e-6

    def test_fora_plus_alias_builds_walk_index(self):
        graph = paper_example_graph()
        result = solve(graph, 0, method="fora+", epsilon=0.5, seed=5)
        assert result.method == "FORA-Index"
