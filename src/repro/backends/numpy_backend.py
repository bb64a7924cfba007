"""The always-available reference backend.

Delegates every kernel to the NumPy bodies in
:mod:`repro.core.kernels` — this backend *is* the reference
implementation, so selecting ``backend="numpy"`` explicitly is
byte-identical to not selecting a backend at all (the golden-trace
suite relies on exactly this).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.backends.base import KernelBackend

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.residues import PushState
    from repro.core.workspace import Workspace

__all__ = ["NumpyBackend"]


class NumpyBackend(KernelBackend):
    """Reference kernels: vectorised NumPy gather/scatter + scipy sparse kernels."""

    name = "numpy"
    compiled = False

    def global_sweep(
        self, state: PushState, *, count_all_edges: bool = True
    ) -> None:
        from repro.core import kernels

        kernels.global_sweep(state, count_all_edges=count_all_edges)

    def frontier_push(
        self,
        state: PushState,
        nodes: np.ndarray,
        *,
        workspace: Workspace | None = None,
    ) -> None:
        from repro.core import kernels

        kernels.frontier_push(state, nodes, workspace=workspace)

    def async_sweep(
        self, state: PushState, *, workspace: Workspace | None = None
    ) -> np.ndarray:
        from repro.core import kernels

        return kernels.async_sweep(state, workspace=workspace)

    def sweep_active(
        self,
        state: PushState,
        r_max: float,
        *,
        threshold_vec: np.ndarray | None = None,
        workspace: Workspace | None = None,
    ) -> int:
        from repro.core import kernels

        return kernels.sweep_active(
            state,
            r_max,
            threshold_vec=threshold_vec,
            workspace=workspace,
        )
