"""The C loops' sum of a vector is ``ndarray.sum()``, bit for bit.

PowerPush's scan recounts ``r_sum`` after every sweep inside
``_kernels.c`` (and ``IncrementalPPR`` its ``sum(|r|)``), where the
Python loop it replaced called ``residue.sum()`` and
``np.abs(residue).sum()``.  Each answer carries those sums and each stop
rule compares them, so the C must reproduce NumPy's pairwise summation
exactly: every size around its unrolled blocks (up to 300), around
8192, and two large odd sizes; mixed signs, zeros, ``-0.0`` and
magnitudes from 1e-300 to 1.  The bits are compared, so a sign of zero
counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kernels import _LIB

# Dependency floor: the C pairwise sum against ndarray.sum(), bit for bit.
pytestmark = pytest.mark.floor

SIZES = [*range(301), 8191, 8192, 8193, 63_476, 100_003]


def vector(size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.5, 1.0, size) * 10.0 ** -rng.integers(0, 301, size)
    values *= rng.choice([-1.0, 1.0], size)
    kind = rng.random(size)
    values[kind < 0.15] = 0.0
    values[(kind >= 0.15) & (kind < 0.25)] = -0.0
    return values


def c_sum(values: np.ndarray, absolute: bool) -> float:
    return _LIB.repro_sum(values.ctypes.data, values.shape[0], absolute)


def same_bits(got: float, expected) -> bool:
    return np.float64(got).tobytes() == np.float64(expected).tobytes()


@pytest.mark.parametrize("size", SIZES)
def test_sum_and_abs_sum_are_numpys(size):
    for seed in range(3):
        values = vector(size, seed)
        assert same_bits(c_sum(values, False), values.sum()), seed
        assert same_bits(c_sum(values, True), np.abs(values).sum()), seed


@pytest.mark.parametrize("size", [0, 1, 7, 8, 9, 128, 129, 8193])
def test_zeros_of_either_sign(size):
    for fill in (0.0, -0.0):
        values = np.full(size, fill)
        assert same_bits(c_sum(values, False), values.sum())
        assert same_bits(c_sum(values, True), np.abs(values).sum())


def test_a_residue_vector_the_scan_sums(medium_graph):
    """Non-negative residues a few sweeps into a solve, as the scan sees
    them: most entries tiny, many exactly zero."""
    from repro.core.kernels import async_sweep
    from repro.core.residues import PushState

    state = PushState(medium_graph, 3, 0.2)
    for _ in range(6):
        async_sweep(state)
        assert same_bits(c_sum(state.residue, False), state.residue.sum())
