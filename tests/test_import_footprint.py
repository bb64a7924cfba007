"""What ``import repro`` loads: no scipy until BePI runs.

Only :mod:`repro.bepi` (BePI's sparse LU and SlashBurn) needs scipy at
load time; ``repro`` resolves BePI's three public names on first
access.  Each footprint check runs in a fresh interpreter, because the
test process itself has long since imported scipy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.bepi
from repro.api import solver_names

# Dependency floor: `import repro` and every solver but BePI load no scipy module, at
# the oldest scipy too.
pytestmark = pytest.mark.floor

SRC = Path(repro.__file__).resolve().parents[1]

# Prints the scipy modules loaded after the script's own work.
SCIPY_LOADED = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

GRAPH = """
import numpy as np
from repro import power_law_digraph
graph = power_law_digraph(300, 1800, rng=np.random.default_rng(777))
"""


def run_python(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def scipy_loaded_after(code: str) -> list[str]:
    return json.loads(run_python(code + SCIPY_LOADED).splitlines()[-1])


class TestNoScipyOffTheBePIPath:
    def test_import_repro(self):
        assert scipy_loaded_after("import repro") == []

    def test_import_the_cli(self):
        assert scipy_loaded_after("import repro.cli") == []

    def test_one_query_of_each_paper_solver(self):
        code = GRAPH + """
from repro import PPREngine
engine = PPREngine(graph, alpha=0.2, seed=7)
engine.query(0, method="powerpush", l1_threshold=1e-8)
engine.query(1, method="speedppr", epsilon=0.5, use_index=True)
engine.query(2, method="fora", epsilon=0.5)
engine.query(3, method="powitr", l1_threshold=1e-8)
assert engine.index_builds["walk"] == 1
"""
        assert scipy_loaded_after(code) == []

    def test_an_engine_server_round_trip(self):
        code = GRAPH + """
from repro import EngineServer
with EngineServer(graph, alpha=0.2, seed=7) as server:
    served = server.query(5, method="powerpush")
assert served.result.source == 5
"""
        assert scipy_loaded_after(code) == []


def test_every_solver_but_bepi_answers_without_scipy():
    code = (
        'import sys\nsys.modules["scipy"] = None\n'
        + GRAPH
        + """
import json
from repro import DynamicGraph, PPREngine
from repro.api import solver_names
# A dynamic graph, so that the tracked ``incremental`` solver runs too.
engine = PPREngine(DynamicGraph(graph), alpha=0.2, seed=7)
params = {"fifo-fwdpush": {"l1_threshold": 1e-6}}
outcome = {}
for name in solver_names():
    try:
        result = engine.query(4, method=name, **params.get(name, {}))
    except ImportError:
        outcome[name] = "ImportError"
    else:
        assert result.estimate.shape == (graph.num_nodes,)
        outcome[name] = "answered"
print(json.dumps(outcome))
"""
    )
    outcome = json.loads(run_python(code).splitlines()[-1])
    assert set(outcome) == set(solver_names())
    assert outcome.pop("bepi") == "ImportError"
    assert set(outcome.values()) == {"answered"}


class TestLazyBePINames:
    def test_names_resolve_to_the_bepi_package(self):
        assert repro.BePIIndex is repro.bepi.BePIIndex
        assert repro.bepi_query is repro.bepi.bepi_query
        assert repro.build_bepi_index is repro.bepi.build_bepi_index

    def test_public_surface_is_kept(self):
        assert {"BePIIndex", "bepi_query", "build_bepi_index"} <= set(repro.__all__)
        assert all(hasattr(repro, name) for name in repro.__all__)
        assert set(repro.__all__) | {"bepi"} <= set(dir(repro))
        assert {"__getattr__", "__dir__", "_LAZY"}.isdisjoint(dir(repro))

    def test_unknown_names_still_raise(self):
        assert not hasattr(repro, "nope")

    def test_from_import_in_a_fresh_process(self):
        code = """
import repro
from repro import BePIIndex, bepi_query
import repro.bepi
assert BePIIndex is repro.bepi.BePIIndex and bepi_query is repro.bepi.bepi_query
print("ok")
"""
        assert run_python(code).split() == ["ok"]

    def test_engine_bepi_answer_equals_a_direct_query(self, medium_graph):
        engine = repro.PPREngine(medium_graph, alpha=0.2, seed=7)
        served = engine.query(9, method="bepi", delta=1e-9)
        index = repro.build_bepi_index(medium_graph, alpha=0.2)
        direct = repro.bepi_query(medium_graph, index, 9, delta=1e-9)
        assert isinstance(engine.bepi_index(), repro.BePIIndex)
        assert served.estimate.tobytes() == direct.estimate.tobytes()
        assert np.array_equal(served.residue, direct.residue)
