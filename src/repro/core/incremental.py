"""Incremental PPR maintenance on evolving graphs (push invariant).

The forward-push invariant that underpins every algorithm in this
library,

.. math::

    r = e_s - \\frac{1}{\\alpha}\\,(I - (1-\\alpha) P^T)\\, p,

is exactly what makes PPR *incrementally maintainable*: it certifies
``||p - pi_s||_1 <= sum(|r|)`` for any ``(p, r)`` pair satisfying it,
and when one out-edge of node ``u`` changes, the pair can be made valid
for the *new* graph by a purely local, degree-scaled correction — no
recomputation anywhere else.  With ``d`` the out-degree of ``u``
*before* the update and ``p_u`` its current reserve:

* **insert** ``(u, w)``::

      p[u] *= (d + 1) / d
      r[u] -= p_u / (alpha * d)
      r[w] += p_u * (1 - alpha) / (alpha * d)

* **delete** ``(u, w)``::

      p[u] *= (d - 1) / d
      r[u] += p_u / (alpha * d)
      r[w] -= p_u * (1 - alpha) / (alpha * d)

(both follow by solving the invariant for the new transition matrix
with a reserve change confined to ``u``; the same rule appears in the
dynamic-PPR literature, e.g. Zhang et al., VLDB 2016).  Corrections can
drive residues *negative*; the push recurrence is linear, so pushes of
negative mass are algebraically identical and the certified error
bound becomes ``sum(|r|)``.

:class:`IncrementalPPR` tracks one source on a
:class:`~repro.graph.dynamic.DynamicGraph`: it lazily replays the
graph's update journal, applies the corrections above, then re-runs
vectorised dynamic-threshold sweeps until ``sum(|r|)`` is back under
the contract — re-certifying with pushes governed by the perturbation
magnitude, instead of a from-scratch solve.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.kernels import extrapolate_window, settle_sweep
from repro.core.powerpush import PowerPushConfig, power_push
from repro.core.result import PPRResult
from repro.core.validation import check_alpha, check_l1_threshold, check_source
from repro.errors import ConvergenceError, ParameterError
from repro.graph.digraph import DiGraph
from repro.graph.dynamic import DynamicGraph
from repro.instrumentation.counters import PushCounters
from repro.instrumentation.tracing import ConvergenceTrace

__all__ = ["IncrementalPPR"]

#: Safety cap on certification sweeps; signed residue mass contracts by
#: at least (1 - alpha) per sweep, so hundreds suffice for any sane
#: l1_threshold — thousands means something is wrong.
_MAX_SWEEPS = 10_000


class IncrementalPPR:
    """Maintained ``(p, r)`` pair for one tracked source.

    Parameters
    ----------
    graph:
        The evolving graph.  Must be dead-end-free (dead ends make the
        transition matrix policy-dependent, which breaks the purely
        local correction; the library's walk indexes carry the same
        restriction).
    source, alpha:
        The tracked query.
    l1_threshold:
        The certification contract: after :meth:`refresh`,
        ``sum(|r|) <= l1_threshold`` and therefore
        ``||p - pi_s||_1 <= l1_threshold``.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        source: int,
        *,
        alpha: float = 0.2,
        l1_threshold: float = 1e-8,
        config: PowerPushConfig | None = None,
    ) -> None:
        if not isinstance(graph, DynamicGraph):
            raise ParameterError(
                "IncrementalPPR requires a DynamicGraph (wrap a DiGraph "
                "with repro.graph.DynamicGraph to track it)"
            )
        check_alpha(alpha)
        check_l1_threshold(l1_threshold)
        self.graph = graph
        self.alpha = float(alpha)
        self.l1_threshold = float(l1_threshold)
        self._config = config
        snapshot = graph.snapshot()
        check_source(snapshot, source)
        self.source = int(source)
        self._require_no_dead_ends(snapshot)
        self._needs_rebuild = False
        self.total_counters = PushCounters()
        self._version = graph.version
        self._solve_from_scratch(snapshot, self.total_counters)

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Graph version the maintained pair is valid for."""
        return self._version

    @property
    def stale(self) -> bool:
        """True when graph updates exist that have not been replayed."""
        return self.graph.version > self._version

    @property
    def error_bound(self) -> float:
        """``sum(|r|)`` — the certified l1-error of the current ``p``.

        Only meaningful for the graph at :attr:`version`; call
        :meth:`refresh` first when :attr:`stale`.
        """
        return float(np.abs(self._r).sum())

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def refresh(self, *, trace: ConvergenceTrace | None = None) -> PPRResult:
        """Repair the pair for the current graph and re-certify.

        Replays the journal (degree-scaled corrections), then sweeps
        until ``sum(|r|) <= l1_threshold`` — the same stop rule
        PowerPush certifies from scratch.  Returns a
        :class:`~repro.core.result.PPRResult` whose counters cover
        *this refresh only* — the cost of absorbing the pending updates
        — so callers can compare against a from-scratch solve.  Note
        the residue vector may hold negative entries; the certified
        l1-error is ``sum(|residue|)`` (also :attr:`error_bound`), not
        the signed ``r_sum``.

        Wall-clock note: a refresh at a new graph version materialises
        the CSR snapshot if nothing else has yet — an ``O(m)``-ish cost that any query on the new version
        pays once and every consumer of the same version then shares.
        The *solve* cost on top is what the counters measure, and it
        scales with the perturbation.
        """
        started = time.perf_counter()
        counters = PushCounters()
        if trace is not None:
            trace.restart_clock()
            trace.record(0, self.error_bound)

        if self._version < self.graph.journal_floor:
            # The replayed prefix of the journal was trimmed past us;
            # resync from the current snapshot instead of replaying.
            self._needs_rebuild = True
        else:
            for update in self.graph.updates_since(self._version):
                self._apply_correction(update, counters)
                if self._needs_rebuild:
                    # The rebuild discards (p, r); replaying (and
                    # billing) the remaining corrections would be waste.
                    break
        self._version = self.graph.version

        snapshot = self.graph.snapshot()
        self._require_no_dead_ends(snapshot)
        if self._needs_rebuild:
            self._solve_from_scratch(snapshot, counters)
            self._needs_rebuild = False
        else:
            self._certify(snapshot, counters, trace)

        self.total_counters.merge(counters)
        if trace is not None:
            trace.record(counters.residue_updates, self.error_bound)
        return PPRResult(
            estimate=self._p.copy(),
            residue=self._r.copy(),
            source=self.source,
            alpha=self.alpha,
            counters=counters,
            trace=trace,
            seconds=time.perf_counter() - started,
            method="IncrementalPPR",
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _solve_from_scratch(
        self, snapshot: DiGraph, counters: PushCounters
    ) -> None:
        result = power_push(
            snapshot,
            self.source,
            alpha=self.alpha,
            l1_threshold=self.l1_threshold,
            config=self._config,
        )
        self._p = result.estimate.copy()
        assert result.residue is not None
        self._r = result.residue.copy()
        counters.merge(result.counters)
        counters.bump("full_rebuilds")

    def _apply_correction(self, update, counters: PushCounters) -> None:
        """One journal entry -> the local invariant repair at ``u``."""
        u, w, d = update.source, update.target, update.old_out_degree
        if update.op == "+":
            if d == 0:
                # No valid old transition row to rescale (u was a dead
                # end); the local repair does not exist — fall back to
                # a full rebuild at the end of the replay.
                self._needs_rebuild = True
                return
            scale = (d + 1) / d
            signed = -1.0
        else:
            if d <= 1:
                self._needs_rebuild = True
                return
            scale = (d - 1) / d
            signed = 1.0
        p_u = float(self._p[u])
        self._p[u] = p_u * scale
        correction = p_u / (self.alpha * d)
        self._r[u] += signed * correction
        self._r[w] -= signed * (1.0 - self.alpha) * correction
        counters.residue_updates += 2
        counters.bump("residue_corrections")

    def _certify(
        self,
        snapshot: DiGraph,
        counters: PushCounters,
        trace: ConvergenceTrace | None,
    ) -> None:
        """Signed whole sweeps until ``sum(|r|) <= l1_threshold``.

        Reuses PowerPush's dynamic-threshold idea: epoch targets shrink
        geometrically — by PowerPush's own per-epoch factor
        ``l1_threshold ** (1 / epoch_num)`` — from the *current*
        perturbation mass down to the contract.  The total cost is
        therefore governed by ``log(perturbation / l1_threshold)``
        rather than the from-scratch ``log(1 / l1_threshold)``.  Every
        push is a whole asynchronous sweep
        (:func:`~repro.core.kernels.settle_sweep`, signed), as in
        PowerPush's scan phase: after a certification nearly every node
        holds a little residue, so re-certifying sweeps the graph
        anyway, and a node-granular sweep does more per edge than a
        frontier push.  Every epoch that swept ends in an
        extrapolation of its last sweep
        (:func:`~repro.core.kernels.extrapolate_window`, which keeps
        every residue's sign and only ever lowers ``sum(|r|)``).
        """
        m = snapshot.num_edges
        if m == 0:
            return
        bound = self.error_bound
        if bound <= self.l1_threshold:
            return
        n = snapshot.num_nodes
        epochs = (self._config or PowerPushConfig()).epoch_num
        shrink = self.l1_threshold ** (1.0 / epochs)
        targets = []
        target = bound
        while target > self.l1_threshold:
            target = max(target * shrink, self.l1_threshold)
            targets.append(target)
        r_before = np.empty(n)
        settled = np.empty(n)
        sweeps = 0
        for target in targets:
            swept = False
            while float(np.abs(self._r).sum()) > target:
                r_before[:] = self._r
                # Dead-end-free, so no dead-end mass comes back.
                pushes, updates, _ = settle_sweep(
                    snapshot, self._r, self._p, settled, self.alpha
                )
                counters.count_bulk_pushes(pushes, updates)
                counters.iterations += 1
                swept = True
                sweeps += 1
                if sweeps > _MAX_SWEEPS:
                    raise ConvergenceError(
                        f"incremental certification did not converge in "
                        f"{_MAX_SWEEPS} sweeps "
                        f"(|r| sum = {float(np.abs(self._r).sum()):.3e})"
                    )
                if trace is not None:
                    trace.maybe_record(
                        counters.residue_updates,
                        float(np.abs(self._r).sum()),
                    )
            if (
                swept
                and self.error_bound > self.l1_threshold
                and extrapolate_window(self._p, self._r, settled, r_before)
            ):
                counters.bump("extrapolations")

    @staticmethod
    def _require_no_dead_ends(snapshot: DiGraph) -> None:
        if snapshot.has_dead_ends:
            raise ParameterError(
                "incremental PPR maintenance requires a dead-end-free "
                "graph: dead-end mass routing is policy-dependent, which "
                "breaks the local residue correction"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IncrementalPPR(source={self.source}, version={self._version}, "
            f"stale={self.stale}, error_bound={self.error_bound:.3e})"
        )
