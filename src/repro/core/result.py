"""Result object returned by every SSPPR algorithm in this library."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.instrumentation.counters import PushCounters
from repro.instrumentation.tracing import ConvergenceTrace

__all__ = ["PPRResult"]


@dataclass
class PPRResult:
    """The answer to one Single-Source PPR query.

    Attributes
    ----------
    estimate:
        The estimated PPR vector ``pi_hat`` (length ``n``).  For push
        algorithms this is the reserve vector; for Monte-Carlo methods
        the empirical frequencies.
    residue:
        The final residue vector ``r`` for push-based algorithms, or
        ``None`` for pure Monte-Carlo.  When present, ``sum(residue)``
        equals the algorithm's guaranteed l1-error (Eq. 7).
    source, alpha:
        Echo of the query parameters.
    counters:
        Operation counts accumulated during the run.
    trace:
        Optional convergence trace (Figures 5-6) if one was requested.
    seconds:
        Wall-clock time of the algorithm body.
    method:
        Name of the algorithm that produced the result.
    """

    estimate: np.ndarray
    residue: np.ndarray | None
    source: int
    alpha: float
    counters: PushCounters = field(default_factory=PushCounters)
    trace: ConvergenceTrace | None = None
    seconds: float = 0.0
    method: str = ""

    @property
    def r_sum(self) -> float:
        """Total residue mass = guaranteed l1-error (push methods only)."""
        if self.residue is None:
            return float("nan")
        return float(self.residue.sum())

    def top_k(self, k: int) -> list[tuple[int, float]]:
        """The ``k`` nodes with the largest estimated PPR, descending.

        Ties break by ascending node id for determinism.
        """
        k = min(max(k, 0), self.estimate.shape[0])
        if k == 0:
            return []
        # argsort on (-value, id): stable sort on ids then values.
        order = np.argsort(-self.estimate, kind="stable")[:k]
        return [(int(v), float(self.estimate[v])) for v in order]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PPRResult(method={self.method!r}, source={self.source}, "
            f"n={self.estimate.shape[0]}, r_sum={self.r_sum:.3e}, "
            f"seconds={self.seconds:.4f})"
        )
