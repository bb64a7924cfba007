"""Backend registry, selection precedence, fallback, and equivalence.

Covers the pluggable compute-backend layer (:mod:`repro.backends`):

* registry behaviour — lookup, case-insensitivity, unknown-name errors
  listing the choices, third-party registration;
* selection precedence — explicit argument > ``REPRO_PPR_BACKEND`` >
  numpy default — at the solver, engine, and CLI levels;
* the numba-missing fallback: serves numpy, warns exactly once;
* byte-identity of the explicit numpy backend with the default path;
* the empty-frontier fast path (zero workspace requests);
* numpy vs numba numerical equivalence on randomized graphs (skipped
  when numba is not installed — the dedicated CI job runs it).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro.backends as backends
from repro.api import PPREngine
from repro.api.registry import solve
from repro.backends import (
    BACKEND_ENV_VAR,
    KernelBackend,
    NumpyBackend,
    active_backend,
    available_backends,
    get_backend,
    numba_available,
    registered_backends,
    resolve_backend,
)
from repro.core import kernels
from repro.core.powerpush import power_push, power_push_block
from repro.core.residues import PushState
from repro.core.workspace import Workspace
from repro.errors import ParameterError
from repro.generators.rmat import rmat_digraph
from repro.graph.build import from_edges, star_graph


@pytest.fixture(autouse=True)
def _fresh_backend_state():
    """Isolate the warn-once flag and instance cache per test."""
    backends._reset_backend_state()
    yield
    backends._reset_backend_state()


def _graph(seed: int = 7, scale: int = 7, edges: int = 700):
    return rmat_digraph(scale, edges, rng=np.random.default_rng(seed))


class TestRegistry:
    def test_numpy_always_available(self):
        assert "numpy" in available_backends()
        assert get_backend("numpy").name == "numpy"

    def test_numba_always_registered(self):
        # Registered regardless of availability: the name is a valid
        # spelling everywhere, falling back when the extra is missing.
        assert "numba" in registered_backends()

    def test_lookup_is_case_insensitive(self):
        assert get_backend("NumPy") is get_backend("numpy")

    def test_instances_are_cached(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_unknown_backend_lists_choices(self):
        with pytest.raises(ParameterError) as excinfo:
            get_backend("tpu")
        message = str(excinfo.value)
        assert "tpu" in message
        assert "numpy" in message and "numba" in message

    def test_register_backend_rejects_duplicates(self):
        with pytest.raises(ParameterError):
            backends.register_backend("numpy", NumpyBackend)

    def test_third_party_registration(self):
        class Custom(KernelBackend):
            name = "custom-test"

        try:
            backends.register_backend("custom-test", Custom)
            assert "custom-test" in available_backends()
            assert resolve_backend("custom-test").name == "custom-test"
            # Non-reference backends dispatch through the kernel layer.
            assert active_backend("custom-test") is get_backend("custom-test")
        finally:
            backends._FACTORIES.pop("custom-test", None)
            backends._reset_backend_state()

    def test_importing_repro_does_not_import_numba(self):
        # The numba import is deferred to first NumbaBackend use, so
        # plain `import repro` (and numpy-only queries) never pay it.
        import os
        import subprocess
        import sys
        from pathlib import Path

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = (
            "import sys, repro; "
            "sys.exit(1 if 'numba' in sys.modules else 0)"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env)
        assert proc.returncode == 0

    def test_resolve_accepts_instances_unregistered(self):
        class AdHoc(KernelBackend):
            name = "ad-hoc"

        instance = AdHoc()
        assert resolve_backend(instance) is instance
        assert active_backend(instance) is instance


class TestSelectionPrecedence:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend(None).name == "numpy"
        # The reference resolves to "no dispatch" for the kernels.
        assert active_backend(None) is None

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert resolve_backend(None).name == "numpy"

    def test_env_var_unknown_name_mentions_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "warp-drive")
        with pytest.raises(ParameterError) as excinfo:
            resolve_backend(None)
        assert BACKEND_ENV_VAR in str(excinfo.value)

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "warp-drive")
        # An explicit argument never consults the (broken) env var.
        assert resolve_backend("numpy").name == "numpy"

    def test_solver_picks_up_env_error(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "warp-drive")
        with pytest.raises(ParameterError):
            power_push(_graph(), 0)

    def test_engine_constructor_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "warp-drive")
        engine = PPREngine(_graph(), backend="numpy")
        assert engine.backend is not None
        assert engine.backend.name == "numpy"

    def test_engine_resolves_backend_at_construction(self):
        with pytest.raises(ParameterError):
            PPREngine(_graph(), backend="warp-drive")

    def test_engine_injects_backend_into_queries(self):
        class Counting(NumpyBackend):
            name = "counting-test"

            def __init__(self):
                self.calls = 0

            def sweep_active(self, *args, **kwargs):
                self.calls += 1
                return super().sweep_active(*args, **kwargs)

            def frontier_push(self, *args, **kwargs):
                self.calls += 1
                return super().frontier_push(*args, **kwargs)

        counting = Counting()
        engine = PPREngine(_graph(), backend=counting)
        engine.query(0, "powerpush", l1_threshold=1e-6)
        assert counting.calls > 0

    def test_registry_rejects_backend_for_backendless_methods(self):
        with pytest.raises(ParameterError, match="does not accept"):
            solve(_graph(), 0, "montecarlo", backend="numpy", num_walks=10)


class TestFallback:
    def test_missing_numba_warns_exactly_once(self, monkeypatch):
        monkeypatch.setattr(
            "repro.backends.numba_backend.NUMBA_AVAILABLE", False
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = get_backend("numba")
            second = get_backend("numba")
        assert first.name == "numpy" and second.name == "numpy"
        fallback_warnings = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(fallback_warnings) == 1
        assert "numba" in str(fallback_warnings[0].message)
        assert "repro-ppr[numba]" in str(fallback_warnings[0].message)

    def test_fallback_answers_match_reference(self, monkeypatch):
        monkeypatch.setattr(
            "repro.backends.numba_backend.NUMBA_AVAILABLE", False
        )
        graph = _graph()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            via_fallback = power_push(graph, 3, backend="numba")
        reference = power_push(graph, 3)
        np.testing.assert_array_equal(
            via_fallback.estimate, reference.estimate
        )


class TestNumpyBackendIdentity:
    """backend="numpy" must be byte-identical to no backend at all."""

    def test_power_push_identical(self):
        graph = _graph()
        default = power_push(graph, 5)
        explicit = power_push(graph, 5, backend="numpy")
        np.testing.assert_array_equal(default.estimate, explicit.estimate)
        np.testing.assert_array_equal(default.residue, explicit.residue)
        assert (
            default.counters.residue_updates
            == explicit.counters.residue_updates
        )

    def test_block_identical(self):
        graph = _graph()
        sources = [0, 3, 9, 11]
        default = power_push_block(graph, sources)
        explicit = power_push_block(graph, sources, backend="numpy")
        for a, b in zip(default, explicit):
            np.testing.assert_array_equal(a.estimate, b.estimate)

    def test_engine_batch_identical(self):
        graph = _graph()
        plain = PPREngine(graph, seed=1).batch_query([1, 2, 3], "powerpush")
        picked = PPREngine(graph, seed=1, backend="numpy").batch_query(
            [1, 2, 3], "powerpush"
        )
        for a, b in zip(plain, picked):
            np.testing.assert_array_equal(a.estimate, b.estimate)


class TestEmptyFrontierFastPath:
    """Empty frontiers must not touch the workspace (satellite fix)."""

    def test_frontier_push_empty_nodes(self):
        graph = _graph()
        state = PushState(graph, 0)
        workspace = Workspace()
        kernels.frontier_push(
            state, np.empty(0, dtype=np.int64), workspace=workspace
        )
        assert workspace.requests == 0
        assert state.r_sum == 1.0

    def test_gather_ranges_empty_nodes(self):
        graph = _graph()
        workspace = Workspace()
        nodes = np.empty(0, dtype=np.int64)
        pointers, targets = kernels.gather_ranges(
            graph.out_indices, nodes, nodes, workspace=workspace
        )
        assert targets.shape[0] == 0 and pointers.tolist() == [0]
        assert workspace.requests == 0

    def test_frontier_push_all_dead_frontier(self):
        graph = star_graph(4, bidirectional=False)  # leaves are dead ends
        state = PushState(graph, 0)
        state.residue[:] = 0.25
        state.refresh_r_sum()
        workspace = Workspace()
        # Pushing only dead ends gathers zero edges: no scatter, no
        # workspace traffic, yet reserves/dead-mass still settle.
        kernels.frontier_push(
            state,
            graph.dead_ends.astype(np.int64),
            workspace=workspace,
        )
        assert workspace.requests == 0
        assert state.counters.pushes == graph.dead_ends.shape[0]


needs_numba = pytest.mark.skipif(
    not numba_available(), reason="numba not installed (optional extra)"
)

#: Compiled loops accumulate sequentially where NumPy reduces pairwise.
EQUIV_TOL = 1e-12


def _assert_async_sweeps_agree(backend):
    """``async_sweep`` on ``backend`` vs the reference.

    Same chunk schedule, so residues, reserves and billing must agree
    after every sweep — on graphs whose plans have empty and edgeless
    chunks, with dead ends under both dynamic policies.
    """
    graphs = [
        rmat_digraph(6, 400, rng=np.random.default_rng(3)),
        star_graph(5, bidirectional=False),
        from_edges([(0, 1), (1, 0), (1, 2), (2, 0), (2, 2)]),
    ]
    for graph in graphs:
        for policy in ("redirect-to-source", "uniform-teleport"):
            reference = PushState(graph, 0, dead_end_policy=policy)
            compiled = PushState(graph, 0, dead_end_policy=policy)
            workspace = Workspace()
            for _ in range(4):
                kernels.async_sweep(reference)
                kernels.async_sweep(
                    compiled, workspace=workspace, backend=backend
                )
                for ours, ref in (
                    (compiled.residue, reference.residue),
                    (compiled.reserve, reference.reserve),
                ):
                    assert float(np.abs(ours - ref).sum()) <= EQUIV_TOL
                assert abs(compiled.r_sum - reference.r_sum) <= EQUIV_TOL
                assert compiled.counters.as_dict() == reference.counters.as_dict()


@needs_numba
class TestNumbaEquivalence:
    """Compiled answers agree with the reference within 1e-12 L1."""

    def _graphs(self):
        for seed in (1, 2, 3):
            yield rmat_digraph(7, 900, rng=np.random.default_rng(seed))
        yield star_graph(6, bidirectional=False)  # dead ends
        yield from_edges([(0, 1), (1, 0), (1, 2), (2, 0), (2, 2)])

    def test_power_push_matches(self):
        for graph in self._graphs():
            for source in (0, graph.num_nodes - 1):
                reference = power_push(graph, source, l1_threshold=1e-8)
                compiled = power_push(
                    graph, source, l1_threshold=1e-8, backend="numba"
                )
                deviation = float(
                    np.abs(reference.estimate - compiled.estimate).sum()
                )
                assert deviation <= EQUIV_TOL
                assert compiled.r_sum <= 1e-8

    def test_power_push_block_matches(self):
        graph = rmat_digraph(8, 2000, rng=np.random.default_rng(9))
        sources = [0, 5, 17, 40, 41, 99]
        reference = power_push_block(graph, sources)
        compiled = power_push_block(graph, sources, backend="numba")
        for ref, ours in zip(reference, compiled):
            deviation = float(np.abs(ref.estimate - ours.estimate).sum())
            assert deviation <= EQUIV_TOL
            assert ours.source == ref.source

    def test_dead_end_policies_match(self):
        graph = star_graph(6, bidirectional=False)
        for policy in ("redirect-to-source", "uniform-teleport"):
            reference = power_push(graph, 0, dead_end_policy=policy)
            compiled = power_push(
                graph, 0, dead_end_policy=policy, backend="numba"
            )
            deviation = float(
                np.abs(reference.estimate - compiled.estimate).sum()
            )
            assert deviation <= EQUIV_TOL

    def test_other_solvers_match(self):
        from repro.core.fifo_fwdpush import fifo_forward_push
        from repro.core.power_iteration import power_iteration
        from repro.core.sim_fwdpush import simultaneous_forward_push

        graph = rmat_digraph(7, 900, rng=np.random.default_rng(4))
        for solver, kwargs in (
            (fifo_forward_push, {"l1_threshold": 1e-7}),
            (power_iteration, {"l1_threshold": 1e-8}),
            (simultaneous_forward_push, {"l1_threshold": 1e-8}),
        ):
            reference = solver(graph, 2, **kwargs)
            compiled = solver(graph, 2, backend="numba", **kwargs)
            deviation = float(
                np.abs(reference.estimate - compiled.estimate).sum()
            )
            assert deviation <= EQUIV_TOL

    def test_async_sweeps_match(self):
        _assert_async_sweeps_agree(get_backend("numba"))


def _load_numba_backend_with_stub():
    """Instantiate the numba backend over an identity-decorator stub.

    Runs the compiled-loop *logic* as plain Python (``njit`` returns
    the function unchanged, ``prange`` is ``range``), so the numerical
    behaviour of the numba backend is exercised on every CI run — even
    the numba-free ones — leaving only numba's typing/compilation to
    the dedicated numba job.  Returns a live backend instance whose
    kernels were built against the stub.
    """
    import importlib.machinery
    import importlib.util
    import sys
    import types
    from pathlib import Path

    import repro.backends.numba_backend as real_module

    fake = types.ModuleType("numba")
    # A real-looking spec so importlib.util.find_spec("numba") (the
    # module's availability probe) sees the stub as installed.
    fake.__spec__ = importlib.machinery.ModuleSpec("numba", loader=None)

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def decorator(fn):
            return fn

        return decorator

    fake.njit = njit
    fake.prange = range

    saved = sys.modules.get("numba")
    sys.modules["numba"] = fake
    try:
        spec = importlib.util.spec_from_file_location(
            "repro_backends_numba_stubbed", Path(real_module.__file__)
        )
        module = importlib.util.module_from_spec(spec)
        assert spec.loader is not None
        spec.loader.exec_module(module)
        assert module.NUMBA_AVAILABLE
        # Instantiation triggers the lazy `from numba import njit`,
        # which must resolve to the stub — keep it in sys.modules.
        backend = module.NumbaBackend()
    finally:
        if saved is None:
            del sys.modules["numba"]
        else:
            sys.modules["numba"] = saved
    return backend


class TestNumbaLogicViaStub:
    """The numba kernels' arithmetic, checked without numba installed."""

    @pytest.fixture(scope="class")
    def stub_backend(self):
        return _load_numba_backend_with_stub()

    def _graphs(self):
        for seed in (1, 2):
            yield rmat_digraph(6, 400, rng=np.random.default_rng(seed))
        yield star_graph(5, bidirectional=False)  # dead ends
        yield from_edges([(0, 1), (1, 0), (1, 2), (2, 0), (2, 2)])

    def test_power_push_matches_reference(self, stub_backend):
        for graph in self._graphs():
            reference = power_push(graph, 0, l1_threshold=1e-7)
            compiled = power_push(
                graph, 0, l1_threshold=1e-7, backend=stub_backend
            )
            deviation = float(
                np.abs(reference.estimate - compiled.estimate).sum()
            )
            assert deviation <= EQUIV_TOL
            assert compiled.r_sum <= 1e-7

    def test_block_matches_reference(self, stub_backend):
        graph = rmat_digraph(7, 900, rng=np.random.default_rng(8))
        sources = [0, 3, 11, 12, 50]
        reference = power_push_block(graph, sources)
        compiled = power_push_block(graph, sources, backend=stub_backend)
        for ref, ours in zip(reference, compiled):
            deviation = float(np.abs(ref.estimate - ours.estimate).sum())
            assert deviation <= EQUIV_TOL
            # Billing is integer arithmetic: must agree exactly when
            # the push schedules coincide (they do at these sizes).
            assert (
                ours.counters.residue_updates
                == ref.counters.residue_updates
            )

    def test_dead_end_policies_match(self, stub_backend):
        graph = star_graph(5, bidirectional=False)
        for policy in ("redirect-to-source", "uniform-teleport"):
            reference = power_push(graph, 0, dead_end_policy=policy)
            compiled = power_push(
                graph, 0, dead_end_policy=policy, backend=stub_backend
            )
            deviation = float(
                np.abs(reference.estimate - compiled.estimate).sum()
            )
            assert deviation <= EQUIV_TOL

    def test_other_solvers_match(self, stub_backend):
        from repro.core.fifo_fwdpush import fifo_forward_push
        from repro.core.power_iteration import power_iteration
        from repro.core.sim_fwdpush import simultaneous_forward_push

        graph = rmat_digraph(6, 400, rng=np.random.default_rng(4))
        for solver, kwargs in (
            (fifo_forward_push, {"l1_threshold": 1e-7}),
            (power_iteration, {"l1_threshold": 1e-8}),
            (simultaneous_forward_push, {"l1_threshold": 1e-8}),
        ):
            reference = solver(graph, 2, **kwargs)
            compiled = solver(graph, 2, backend=stub_backend, **kwargs)
            deviation = float(
                np.abs(reference.estimate - compiled.estimate).sum()
            )
            assert deviation <= EQUIV_TOL

    def test_async_sweeps_match_reference(self, stub_backend):
        _assert_async_sweeps_agree(stub_backend)


class TestCLI:
    def test_list_shows_backends(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "backends:" in out
        assert "numpy: available" in out

    def test_query_parses_backend_and_reorder(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["query", "dblp-s", "--backend", "numba", "--reorder", "degree"]
        )
        assert args.backend == "numba"
        assert args.reorder == "degree"
