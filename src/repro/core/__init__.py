"""The paper's algorithms: PowItr, FwdPush variants, PowerPush, SpeedPPR.

All entry points share the same conventions:

* graphs are :class:`repro.graph.DiGraph` objects,
* results are :class:`repro.core.result.PPRResult` objects,
* ``alpha`` defaults to the paper's 0.2,
* high-precision queries take ``l1_threshold`` (the paper's lambda),
  approximate queries take ``epsilon`` (+ optional ``mu``, ``p_fail``).
"""

from repro.core.backward_push import backward_push
from repro.core.fifo_fwdpush import fifo_forward_push, r_max_for_l1_threshold
from repro.core.fwdpush import forward_push
from repro.core.incremental import IncrementalPPR
from repro.core.kernels import frontier_push, global_sweep
from repro.core.mc_phase import monte_carlo_refine, required_walks
from repro.core.pagerank import pagerank, preference_pagerank
from repro.core.power_iteration import power_iteration
from repro.core.powerpush import PowerPushConfig, power_push, power_push_block
from repro.core.refinement import refine_to_r_max
from repro.core.residues import DeadEndPolicy, PushState
from repro.core.result import PPRResult
from repro.core.sim_fwdpush import simultaneous_forward_push
from repro.core.speedppr import speed_ppr
from repro.core.topk import TopKResult, top_k_ppr
from repro.core.validation import default_l1_threshold

__all__ = [
    "PPRResult",
    "PushState",
    "DeadEndPolicy",
    "power_iteration",
    "forward_push",
    "backward_push",
    "simultaneous_forward_push",
    "fifo_forward_push",
    "r_max_for_l1_threshold",
    "power_push",
    "power_push_block",
    "PowerPushConfig",
    "IncrementalPPR",
    "refine_to_r_max",
    "speed_ppr",
    "pagerank",
    "preference_pagerank",
    "top_k_ppr",
    "TopKResult",
    "monte_carlo_refine",
    "required_walks",
    "global_sweep",
    "frontier_push",
    "default_l1_threshold",
]
