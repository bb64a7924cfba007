"""The O(m) post-refinement step (paper Section 5, Remark; Lemma 4.5).

PowerPush's epoch loop stops once ``r_sum <= lambda``, which does *not*
imply the FwdPush termination condition ``r(s,v) <= d_v * r_max`` for
every node.  SpeedPPR (Algorithm 4, Line 3) needs that stronger
per-node guarantee so its Monte-Carlo phase requires at most ``d_v``
walks per node.  Lemma 4.5 shows that finishing the remaining pushes
from a state with ``r_sum <= lambda`` costs only ``O(m)`` extra time,
in any push order.

The same loop, started from ``e_s``, is all of SpeedPPR-Index's push
phase: by the FwdPush bound (Lemma 4.4) it reaches ``r <= d_v * r_max``
in ``O(m log(1/(m r_max)))``, Theorem 6.1's phase-1 bound, without
PowerPush (see :mod:`repro.core.speedppr` for why only the indexed
path skips it).  The sweep budget below is computed from the current
mass for that reason: about 750 passes from ``e_s`` at ``W`` ~ 1e7,
of which about 21 are used.

:func:`refine_to_r_max` performs exactly those remaining pushes on an
existing :class:`PushState` in the cheapest order measured, Algorithm
3's active-only scan: passes that each push, in ascending id, only the
nodes with ``r > d_v * r_max`` as they reach them, until a pass pushes
nothing.  A pass reads no mask and gathers no frontier.  On ``pokec-s``
x10 at SpeedPPR's ``W`` ~ 1.0e7 (epsilon 0.5; median of 40 sources on
a shared 2-vCPU VM) this took the refinement from ~30 rounds of the
auto-switching sweep kernel, each an O(n) mask plus a simultaneous push
of the active set (7.0-7.9 ms, 585 k residue updates a query), to ~15
passes (3.9 ms, 469 k).

All the passes, and the dead-end routing between them, are one C call
(:func:`~repro.core.kernels.refine_passes`) with the bytes of a loop of
single passes; from ``e_s`` on ``pokec-s`` x10 at epsilon 0.5 (30
sources, best of 5 each, one pinned CPU of a shared 2-vCPU VM) that
took the refinement from 8.8-9.4 to 7.0-8.2 ms.
"""

from __future__ import annotations

from repro.core.kernels import refine_passes
from repro.core.residues import PushState
from repro.core.validation import check_r_max
from repro.errors import ConvergenceError, ParameterError

__all__ = ["refine_to_r_max"]


def refine_to_r_max(
    state: PushState,
    r_max: float,
    *,
    max_sweeps: int | None = None,
) -> PushState:
    """Push until no node is active w.r.t. ``r_max``; return the state.

    The state is modified in place (and also returned for chaining).
    More than ``max_sweeps`` passes that push something raise
    :class:`~repro.errors.ConvergenceError`.
    """
    check_r_max(r_max)
    if r_max == 0.0:
        raise ParameterError("r_max must be positive for refinement")
    if max_sweeps is None:
        import math

        # From r_sum <= m * r_max the remaining work is O(m)
        # (Lemma 4.5); translate into a sweep budget with slack, based
        # on the current mass rather than assuming the caller got to
        # lambda already.
        state.refresh_r_sum()
        excess = max(state.r_sum / max(r_max, 1e-300), 2.0)
        max_sweeps = int(8.0 * (math.log(excess) + 1.0) / state.alpha) + 64

    # The first pass over budget still runs, billed and routed, before
    # the raise: the state the raise leaves is that of max_sweeps + 1
    # passes.
    limit = max(max_sweeps, 0) + 1
    passes, pushes, updates = refine_passes(
        state.graph,
        state.residue,
        state.reserve,
        state.alpha,
        state.threshold_vector(r_max),
        limit,
        source=state.source,
        dead_end_policy=state.dead_end_policy,
    )
    state.counters.count_bulk_pushes(pushes, updates)
    if passes == limit:
        raise ConvergenceError(
            f"refinement exceeded {max_sweeps} sweeps "
            f"(r_sum={state.refresh_r_sum():.3e}, r_max={r_max:.3e})"
        )
    state.refresh_r_sum()
    return state
