"""Building and loading the C kernels (``repro.core.kernels._build``).

The first import of :mod:`repro.core.kernels` compiles ``_kernels.c``
with ``cc`` into a cache directory and loads it with ``ctypes``.  What
must hold: a cold build leaves exactly one library and no temporary
file; a warm load starts no process; two processes building into one
empty directory both load a complete library; and a missing compiler
is a typed ``ImportError`` that names ``cc``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import kernels
from repro.errors import KernelBuildError, ReproError

SRC = Path(kernels.__file__).resolve().parents[2]

# Build into argv[1], then sweep a 3-cycle from node 0 and print it.
BUILD_AND_SWEEP = """
import ctypes, json, sys
from pathlib import Path
import numpy as np
from repro.core import kernels
lib = kernels._build(Path(sys.argv[1]))
indptr = np.array([0, 1, 2, 3], dtype=np.int64)
indices = np.array([1, 2, 0], dtype=np.int32)
residue, reserve, settled = np.array([1.0, 0, 0]), np.zeros(3), np.zeros(3)
counts = (ctypes.c_int64 * 2)()
lib.repro_async_sweep(3, indptr.ctypes.data, indices.ctypes.data, 0.2,
    residue.ctypes.data, reserve.ctypes.data, settled.ctypes.data, counts)
print(json.dumps([residue.tolist(), reserve.tolist(), list(counts)]))
"""


def libraries(cache_dir: Path) -> list[str]:
    return sorted(path.name for path in cache_dir.iterdir())


def test_a_cold_build_creates_exactly_one_library(tmp_path):
    lib = kernels._build(tmp_path)
    (name,) = libraries(tmp_path)
    assert name.startswith("_kernels-") and name.endswith(".so")
    assert lib.repro_async_sweep and lib.repro_extrapolate_window
    assert lib.repro_refine and lib.repro_index_read


def test_a_second_load_reuses_it_and_starts_no_process(tmp_path, monkeypatch):
    kernels._build(tmp_path)
    built = libraries(tmp_path)

    def no_process(*args, **kwargs):
        raise AssertionError("a warm load started a process")

    monkeypatch.setattr(subprocess, "run", no_process)
    monkeypatch.setattr(subprocess, "Popen", no_process)
    lib = kernels._build(tmp_path)
    assert lib.repro_async_sweep
    assert libraries(tmp_path) == built


def test_two_processes_building_into_one_empty_dir(tmp_path):
    cache = tmp_path / "cache"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    children = [
        subprocess.Popen(
            [sys.executable, "-c", BUILD_AND_SWEEP, str(cache)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for _ in range(2)
    ]
    outputs = [child.communicate(timeout=120) for child in children]
    for child, (out, err) in zip(children, outputs):
        assert child.returncode == 0, err
        # Node 0 pushes 0.8 to node 1, which pushes 0.64 on to node 2,
        # which pushes 0.512 back to node 0: one sweep, three pushes.
        residue, reserve, counts = json.loads(out)
        np.testing.assert_allclose(residue, [0.512, 0.0, 0.0])
        np.testing.assert_allclose(reserve, [0.2, 0.16, 0.128])
        assert counts == [3, 3]
    (name,) = libraries(cache)
    assert name.endswith(".so")


def test_without_a_compiler_a_cold_build_is_an_import_error(
    tmp_path, monkeypatch
):
    monkeypatch.setenv("PATH", "")
    with pytest.raises(KernelBuildError, match="`cc`") as raised:
        kernels._build(tmp_path)
    assert isinstance(raised.value, ImportError)
    assert isinstance(raised.value, ReproError)
    assert libraries(tmp_path) == []


def test_a_compile_error_carries_the_compilers_output(tmp_path, monkeypatch):
    broken = tmp_path / "_kernels.c"
    broken.write_text("this is not C;\n")
    monkeypatch.setattr(kernels, "_SOURCE", broken)
    cache = tmp_path / "cache"
    with pytest.raises(KernelBuildError, match="error") as raised:
        kernels._build(cache)
    assert "_kernels.c" in str(raised.value)
    assert libraries(cache) == []
