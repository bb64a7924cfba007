"""The kernel contract every compute backend implements.

A *backend* is one implementation of the bulk push operations that
every vectorised solver in :mod:`repro.core` reduces to — the contract
that used to be hard-coded as the NumPy bodies of
:mod:`repro.core.kernels`:

* :meth:`KernelBackend.global_sweep` / :meth:`KernelBackend.frontier_push`
  / :meth:`KernelBackend.async_sweep` / :meth:`KernelBackend.sweep_active`
  — the single-source kernels that
  :func:`~repro.core.powerpush.power_push`, FIFO-FwdPush, SimFwdPush and
  the refinement loop are built from.

Backends mutate the passed state exactly like the reference kernels:
reserve/residue updated in place, counters billed, ``r_sum`` kept
incrementally correct.  The **semantic** contract is strict — every
backend must compute the same pushes from the same residues (those at
entry; for the asynchronous sweeps, those at each chunk boundary of
``graph.sweep_plan()``) — but the **bitwise** contract is graded:

* the ``numpy`` backend *is* the reference (it delegates to the
  :mod:`repro.core.kernels` bodies), so golden traces stay
  byte-identical;
* compiled backends (``numba``) may re-associate floating-point sums
  (sequential scalar accumulation instead of NumPy's pairwise
  reduction), so their answers agree to ~1e-12 L1 rather than
  bit-for-bit.  The equivalence suite in ``tests/test_backends.py``
  pins the tolerance down.

Scratch buffers: like the reference kernels, backend methods accept an
optional :class:`~repro.core.workspace.Workspace` and must serve their
temporaries from it when one is threaded, so allocation counts stay
flat across a solve regardless of backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    # Keeping repro.core out of the backends' import graph means the
    # solvers can import repro.backends at module level without cycles.
    from repro.core.residues import PushState
    from repro.core.workspace import Workspace

__all__ = ["KernelBackend"]


class KernelBackend:
    """Abstract kernel set; see the module docstring for the contract.

    Attributes
    ----------
    name:
        Registry key (``"numpy"``, ``"numba"`` …).
    compiled:
        Whether the kernels run as ahead-of-time/JIT compiled loops
        (whoever times them makes an untimed warm-up call first, so
        JIT compilation never lands inside a timed region).
    """

    name: str = ""
    compiled: bool = False

    def global_sweep(
        self, state: PushState, *, count_all_edges: bool = True
    ) -> None:
        """One simultaneous push of every node (a Power-Iteration step)."""
        raise NotImplementedError

    def frontier_push(
        self,
        state: PushState,
        nodes: np.ndarray,
        *,
        workspace: Workspace | None = None,
    ) -> None:
        """Simultaneously push exactly ``nodes`` (local gather/scatter)."""
        raise NotImplementedError

    def async_sweep(
        self, state: PushState, *, workspace: Workspace | None = None
    ) -> np.ndarray:
        """Push every residue holder once, chunk by chunk, freshest residues.

        Returns the sweep's reserve gain (``alpha`` times what each node
        pushed), scratch valid until the next sweep.
        """
        raise NotImplementedError

    def sweep_active(
        self,
        state: PushState,
        r_max: float,
        *,
        threshold_vec: np.ndarray | None = None,
        workspace: Workspace | None = None,
    ) -> int:
        """Push all active nodes once; return how many were pushed."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "compiled" if self.compiled else "interpreted"
        return f"<{type(self).__name__} {self.name!r} ({kind})>"
