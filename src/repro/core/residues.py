"""Reserve/residue state and the push primitive (paper Section 3.2).

Every Forward-Push-family algorithm maintains, per node ``v``:

* a **reserve** ``pi_hat(s, v)`` — the settled underestimate of the PPR,
* a **residue** ``r(s, v)`` — unprocessed probability mass of the alive
  random walk currently at ``v``.

:class:`PushState` bundles both vectors with the graph, source, alpha,
a dead-end policy, and instrumentation.  Its :meth:`push` method is the
*faithful scalar* push of Algorithm 1 — used by the reference
implementations and the unit tests that replay the paper's Figure 2/3
traces.  The vectorised kernels in :mod:`repro.core.kernels` operate on
the same state object.

Mass invariant
--------------
A push moves ``alpha * r_v`` into the reserve and ``(1 - alpha) * r_v``
onto out-neighbours' residues, so the quantity
``sum(reserve) + sum(residue)`` is exactly 1 at all times (with the
``redirect-to-source`` or ``self-loop`` dead-end policies).  The
property-based tests assert this invariant under arbitrary push
sequences.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro.core.validation import check_alpha, check_source
from repro.errors import ParameterError
from repro.graph.digraph import DiGraph
from repro.instrumentation.counters import PushCounters

__all__ = [
    "DeadEndPolicy",
    "PushState",
    "check_dead_end_policy",
    "dead_end_degree",
    "effective_out_degree",
]

DeadEndPolicy = Literal["redirect-to-source", "self-loop", "uniform-teleport"]

_VALID_POLICIES: tuple[str, ...] = (
    "redirect-to-source",
    "self-loop",
    "uniform-teleport",
)


def check_dead_end_policy(dead_end_policy: str) -> None:
    """Raise :class:`ParameterError` unless the policy is a known one."""
    if dead_end_policy not in _VALID_POLICIES:
        raise ParameterError(
            f"unknown dead-end policy {dead_end_policy!r}; "
            f"expected one of {_VALID_POLICIES}"
        )


def effective_out_degree(graph: DiGraph, dead_end_policy: str) -> np.ndarray:
    """Out-degrees with dead ends replaced by their *conceptual* degree.

    The paper removes dead ends by conceptually adding an edge to the
    source, so a dead end's conceptual out-degree is 1 (or ``n`` under
    the uniform-teleport policy).  Using the conceptual degree in the
    activity test ``r > d_v * r_max`` is what makes push algorithms
    terminate on graphs with dead ends.
    """
    degree = graph.out_degree
    if graph.has_dead_ends:
        degree = degree.copy()
        degree[graph.dead_ends] = dead_end_degree(graph, dead_end_policy)
        degree.flags.writeable = False
    return degree


def dead_end_degree(graph: DiGraph, dead_end_policy: str) -> int:
    """A dead end's conceptual out-degree: ``n`` under uniform-teleport, else 1."""
    return graph.num_nodes if dead_end_policy == "uniform-teleport" else 1


class PushState:
    """Mutable reserve/residue state for one SSPPR query.

    Parameters
    ----------
    graph, source, alpha:
        The query.  ``alpha`` is the teleport (stop) probability.
    dead_end_policy:
        What a push on an out-degree-0 node does with the ``1 - alpha``
        continue-mass.  ``redirect-to-source`` (paper default) sends it
        back to the source; ``self-loop`` leaves it on the node;
        ``uniform-teleport`` spreads it over all nodes.
    counters:
        Optional shared counter object (phases of a composite algorithm
        pass the same one through).
    """

    __slots__ = (
        "graph",
        "source",
        "alpha",
        "dead_end_policy",
        "reserve",
        "residue",
        "counters",
        "_r_sum",
        "_effective_out_degree",
    )

    def __init__(
        self,
        graph: DiGraph,
        source: int,
        alpha: float = 0.2,
        *,
        dead_end_policy: DeadEndPolicy = "redirect-to-source",
        counters: PushCounters | None = None,
    ) -> None:
        check_dead_end_policy(dead_end_policy)
        self.graph = graph
        self.source = check_source(graph, source)
        self.alpha = check_alpha(alpha)
        self.dead_end_policy: DeadEndPolicy = dead_end_policy
        self.reserve = np.zeros(graph.num_nodes, dtype=np.float64)
        self.residue = np.zeros(graph.num_nodes, dtype=np.float64)
        self.residue[self.source] = 1.0
        self.counters = counters if counters is not None else PushCounters()
        self._r_sum = 1.0
        self._effective_out_degree: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Residue-mass bookkeeping
    # ------------------------------------------------------------------
    @property
    def r_sum(self) -> float:
        """Total residue mass — the current guaranteed l1-error (Eq. 7).

        Maintained incrementally; call :meth:`refresh_r_sum` to squash
        accumulated floating-point drift at iteration boundaries.
        """
        return self._r_sum

    @r_sum.setter
    def r_sum(self, value: float) -> None:
        self._r_sum = value

    def refresh_r_sum(self) -> float:
        """Recompute ``r_sum`` exactly from the residue vector."""
        self._r_sum = float(self.residue.sum())
        return self._r_sum

    def note_r_sum_delta(self, delta: float) -> None:
        """Adjust the cached ``r_sum`` (used by the vectorised kernels)."""
        self._r_sum += delta

    # ------------------------------------------------------------------
    # Activity tests
    # ------------------------------------------------------------------
    @property
    def effective_out_degree(self) -> np.ndarray:
        """Out-degrees with dead ends replaced by their *conceptual* degree.

        The paper removes dead ends by conceptually adding an edge to
        the source, so a dead end's conceptual out-degree is 1 (or
        ``n`` under the uniform-teleport policy).  Using the conceptual
        degree in the activity test ``r > d_v * r_max`` is what makes
        push algorithms terminate on graphs with dead ends: with the
        raw degree 0, any node that keeps receiving mass (e.g. from the
        uniform spread) would stay active forever.
        """
        if self._effective_out_degree is None:
            self._effective_out_degree = effective_out_degree(
                self.graph, self.dead_end_policy
            )
        return self._effective_out_degree

    def is_active(self, v: int, r_max: float) -> bool:
        """Paper definition: ``v`` is active iff ``r(s,v) > d_v * r_max``.

        Dead ends use their conceptual degree (see
        :attr:`effective_out_degree`).
        """
        return self.residue[v] > self.effective_out_degree[v] * r_max

    def active_mask(self, r_max: float) -> np.ndarray:
        """Boolean mask of all currently active nodes."""
        return self.residue > self.effective_out_degree * r_max

    def threshold_vector(self, r_max: float) -> np.ndarray:
        """Precomputed ``effective_out_degree * r_max`` for sweep loops."""
        return self.effective_out_degree.astype(np.float64) * r_max

    def active_nodes(self, r_max: float) -> np.ndarray:
        """Ids of all currently active nodes (ascending)."""
        return np.flatnonzero(self.active_mask(r_max))

    # ------------------------------------------------------------------
    # The push primitive (faithful scalar version of Algorithm 1)
    # ------------------------------------------------------------------
    def push(self, v: int) -> float:
        """Perform one push operation on node ``v``; return its old residue.

        Implementation note: the residue of ``v`` is zeroed *before*
        distributing, so a self-loop edge correctly re-deposits mass on
        ``v`` instead of being erased (the pseudo-code's final
        ``r(s,v) <- 0`` assumes no self-loops).
        """
        r_v = float(self.residue[v])
        if r_v == 0.0:
            self.counters.count_push(int(self.graph.out_degree[v]))
            return 0.0
        self.residue[v] = 0.0
        self.reserve[v] += self.alpha * r_v
        spread = (1.0 - self.alpha) * r_v

        neighbors = self.graph.out_neighbors(v)
        degree = neighbors.shape[0]
        if degree > 0:
            share = spread / degree
            # np.add.at handles repeated neighbours (parallel edges).
            np.add.at(self.residue, neighbors, share)
            self.counters.count_push(degree)
        else:
            self._spread_dead_end(spread)
            self.counters.count_push(1)
        self._r_sum -= self.alpha * r_v
        return r_v

    def _spread_dead_end(self, spread: float) -> None:
        if self.dead_end_policy == "redirect-to-source":
            self.residue[self.source] += spread
        elif self.dead_end_policy == "self-loop":
            # A dynamic self-loop would keep the dead end active forever
            # (its activity threshold is d_v * r_max = 0), so this policy
            # must be applied structurally before querying.
            raise ParameterError(
                "self-loop dead-end policy requires structural self-loops; "
                "apply repro.graph.apply_dead_end_rule(graph, 'self-loop') first"
            )
        else:  # uniform-teleport
            self.residue += spread / self.graph.num_nodes

    # ------------------------------------------------------------------
    # Invariants & conversions
    # ------------------------------------------------------------------
    def mass_total(self) -> float:
        """``sum(reserve) + sum(residue)`` — must equal 1 (see module doc)."""
        return float(self.reserve.sum() + self.residue.sum())

    def check_invariants(self, atol: float = 1e-9) -> None:
        """Assert conservation and non-negativity; used by tests."""
        if not np.all(self.reserve >= -atol):
            raise AssertionError("reserve went negative")
        if not np.all(self.residue >= -atol):
            raise AssertionError("residue went negative")
        total = self.mass_total()
        if abs(total - 1.0) > max(atol, 1e-9 * self.graph.num_edges):
            raise AssertionError(
                f"mass not conserved: reserve+residue = {total!r}"
            )


# Harness-only: benchmarks/e2e/layers.py is the sole caller.
class BlockPushState:
    """``(B, n)`` reserve/residue rows for ``B`` sources of one graph.

    What :func:`repro.core.kernels.block_global_sweep` needs and no
    more: row ``i`` is source ``sources[i]``'s :class:`PushState`
    vectors, ``r_sum`` and the two billing counters are length-``B``
    arrays.
    """

    __slots__ = (
        "graph",
        "sources",
        "alpha",
        "dead_end_policy",
        "reserve",
        "residue",
        "pushes",
        "residue_updates",
        "r_sum",
    )

    def __init__(
        self,
        graph: DiGraph,
        sources,
        alpha: float = 0.2,
        *,
        dead_end_policy: DeadEndPolicy = "redirect-to-source",
    ) -> None:
        check_dead_end_policy(dead_end_policy)
        sources = [check_source(graph, int(s)) for s in sources]
        if not sources:
            raise ParameterError("BlockPushState needs at least one source")
        self.graph = graph
        self.sources = np.asarray(sources, dtype=np.int64)
        self.alpha = check_alpha(alpha)
        self.dead_end_policy: DeadEndPolicy = dead_end_policy
        num_rows = self.sources.shape[0]
        self.reserve = np.zeros((num_rows, graph.num_nodes), dtype=np.float64)
        self.residue = np.zeros((num_rows, graph.num_nodes), dtype=np.float64)
        self.residue[np.arange(num_rows), self.sources] = 1.0
        self.pushes = np.zeros(num_rows, dtype=np.int64)
        self.residue_updates = np.zeros(num_rows, dtype=np.int64)
        self.r_sum = np.ones(num_rows, dtype=np.float64)

    def count_bulk_pushes(
        self, rows: np.ndarray, num_nodes, num_updates
    ) -> None:
        """Bill a sweep to each row in ``rows`` (scalars or per-row arrays)."""
        self.pushes[rows] += num_nodes
        self.residue_updates[rows] += num_updates
