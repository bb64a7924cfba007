"""Parameter validation shared by every algorithm entry point.

All public algorithm functions funnel their arguments through these
checks so that error messages are uniform and the domain of each
parameter is documented in exactly one place.
"""

from __future__ import annotations

import numbers

from repro.errors import NodeNotFoundError, ParameterError
from repro.graph.digraph import DiGraph

__all__ = [
    "check_alpha",
    "check_node_id",
    "check_source",
    "check_l1_threshold",
    "check_r_max",
    "check_epsilon",
    "check_mu",
    "check_failure_probability",
    "default_l1_threshold",
]


def check_alpha(alpha: float) -> float:
    """Teleport probability ``alpha`` must lie in ``(0, 1)``.

    The paper allows ``alpha = 0`` formally, but every bound divides by
    ``alpha``, and a zero-teleport walk never stops, so we require it
    strictly positive.
    """
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
    return float(alpha)


def check_node_id(node: int, num_nodes: int) -> int:
    """``node`` as an ``int`` id in ``[0, num_nodes)``.

    Only integers are ids — numpy integers included, ``bool`` not: a
    float, a bool or a numeric string is refused, never truncated.
    """
    if type(node) is not int:
        if isinstance(node, bool) or not isinstance(node, numbers.Integral):
            raise ParameterError(f"source must be an integer, got {node!r}")
        node = int(node)
    if not 0 <= node < num_nodes:
        raise NodeNotFoundError(f"source {node} outside [0, {num_nodes})")
    return node


def check_source(graph: DiGraph, source: int) -> int:
    """Source node must be a valid id of ``graph``."""
    return check_node_id(source, graph.num_nodes)


def check_l1_threshold(l1_threshold: float) -> float:
    """HP-SSPPR error threshold ``lambda`` must lie in ``(0, 1]``."""
    if not 0.0 < l1_threshold <= 1.0:
        raise ParameterError(
            f"l1_threshold (lambda) must be in (0, 1], got {l1_threshold}"
        )
    return float(l1_threshold)


def check_r_max(r_max: float) -> float:
    """Push stop parameter ``r_max`` must lie in ``[0, 1]``."""
    if not 0.0 <= r_max <= 1.0:
        raise ParameterError(f"r_max must be in [0, 1], got {r_max}")
    return float(r_max)


def check_epsilon(epsilon: float) -> float:
    """Approximate-query relative error ``eps`` must be positive."""
    if not epsilon > 0.0:
        raise ParameterError(f"epsilon must be > 0, got {epsilon}")
    return float(epsilon)


def check_mu(mu: float) -> float:
    """PPR threshold ``mu`` must lie in ``(0, 1]``."""
    if not 0.0 < mu <= 1.0:
        raise ParameterError(f"mu must be in (0, 1], got {mu}")
    return float(mu)


def check_failure_probability(p_fail: float) -> float:
    """Failure probability must lie in ``(0, 1)``."""
    if not 0.0 < p_fail < 1.0:
        raise ParameterError(f"failure probability must be in (0, 1), got {p_fail}")
    return float(p_fail)


def default_l1_threshold(graph: DiGraph) -> float:
    """The paper's default ``lambda = min(1e-8, 1/m)``."""
    if graph.num_edges == 0:
        return 1e-8
    return min(1e-8, 1.0 / graph.num_edges)
