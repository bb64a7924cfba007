"""The paper's cost bounds, checked on exact op counts.

The counters of the C loops are deterministic, so a bound from the
analysis can be asserted on them exactly: a loop that did more work than
the theory allows fails here even when its answer is still right.
"""

from __future__ import annotations

import numpy as np
import pytest

from test_core_async_sweep import CORNER_GRAPHS, POLICIES, prepared
from test_golden_traces import load_golden_graph

from repro.core.kernels import queue_rounds
from repro.core.residues import PushState

GRAPHS = {**CORNER_GRAPHS, "golden": load_golden_graph()}


@pytest.mark.parametrize("alpha", [0.05, 0.2, 0.9])
@pytest.mark.parametrize("policy", POLICIES)
def test_local_push_bills_fewer_than_one_over_alpha_r_max(policy, alpha):
    """Queue rounds run until no node is active bill fewer than
    ``1 / (alpha * r_max)`` residue updates.

    The rounds are the loop FIFO-FwdPush and PowerPush's queue phase
    share; ``scan_threshold = inf`` keeps them from stopping at a wide
    frontier, and no ``r_sum`` target stops them either.

    Mass accounting: residues stay non-negative and a push moves mass
    without making any (``alpha * r`` to the reserve, ``(1 - alpha) *
    r`` to the residues, a dead end's share routed by the policy), so
    ``sum(reserve) + sum(residue) = 1`` throughout and the reserve never
    holds more than 1.  A round pushes only active nodes, each holding
    ``r_v > d_v * r_max``, ``d_v`` being the out-degree or, for a dead
    end, its conceptual degree (1, or ``n`` under uniform-teleport,
    never less than 1); the push adds ``alpha * r_v > alpha * d_v *
    r_max`` to the reserve.  Summed over every push, ``alpha * r_max *
    sum(d_v) < sum(reserve) <= 1``, so ``sum(d_v) < 1 / (alpha *
    r_max)``.  A push bills ``d_v`` residue updates, a dead end 1 (at
    most its conceptual degree), so the updates are below the bound.

    The bound is also the loop's update cap, so a loop that overspends
    stops there and fails instead of running on.
    """
    for name, graph in GRAPHS.items():
        graph = prepared(graph, policy)
        for r_max in (1e-2, 1e-4, 1e-6, 1e-8):
            bound = 1.0 / (alpha * r_max)
            for source in (0, graph.num_nodes - 1):
                state = PushState(graph, source, alpha, dead_end_policy=policy)
                _, within = queue_rounds(
                    state, r_max, -np.inf, np.inf, int(bound)
                )
                label = (name, r_max, source)
                assert within, label
                assert not state.active_mask(r_max).any(), label
                assert state.counters.residue_updates < bound, label
