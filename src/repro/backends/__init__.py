"""The name of the one kernel path, for the frozen end-to-end harness."""

from __future__ import annotations

from types import SimpleNamespace

__all__ = ["resolve_backend"]


# benchmarks/e2e/run.py stamps ``resolve_backend(None).name`` into its env line.
def resolve_backend(backend: object = None) -> SimpleNamespace:
    """Name what runs — :mod:`repro.core.kernels`; the argument is ignored."""
    return SimpleNamespace(name="numpy")
