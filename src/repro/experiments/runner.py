"""Registry and dispatcher for the reproduction experiments.

Maps experiment ids (T1, T2, F4-F8, A1, A2 — the ids used in
DESIGN.md's per-experiment index — plus DY, the dynamic-graph
workload) to their runners, behind ``repro-ppr run``:

>>> from repro.experiments import run_experiment
>>> text = run_experiment("T1").render()  # doctest: +SKIP

Every result also checks the paper's claims on its own numbers:
``claims()`` returns ``(text, passed)`` pairs, and ``render()`` ends
with one ``PASS``/``FAIL`` line per claim.
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro.errors import ParameterError
from repro.experiments.ablations import (
    run_powerpush_ablation,
    run_scheduling_ablation,
)
from repro.experiments.dynamic import run_dynamic
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig7 import run_fig7
from repro.experiments.fig8 import run_fig8
from repro.experiments.report import Claim
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.workspace import Workspace

__all__ = ["EXPERIMENTS", "run_experiment", "experiment_ids"]


class Renderable(Protocol):
    """Every experiment result renders itself and checks its claims."""

    def render(self) -> str: ...

    def claims(self) -> list[Claim]: ...


EXPERIMENTS: dict[str, tuple[str, Callable[[Workspace], Renderable]]] = {
    "T1": ("Table 1 — dataset statistics", run_table1),
    "T2": ("Table 2 — index size and construction time", run_table2),
    "F4": ("Figure 4 — high-precision query time", run_fig4),
    "F5": ("Figure 5 — l1-error vs execution time", run_fig5),
    "F6": ("Figure 6 — l1-error vs #residue updates", run_fig6),
    "F7": ("Figure 7 — approximate query time vs eps", run_fig7),
    "F8": ("Figure 8 — approximate l1-error vs eps", run_fig8),
    "A1": ("Ablation — PowerPush design choices", run_powerpush_ablation),
    "A2": ("Ablation — FwdPush scheduling orders", run_scheduling_ablation),
    "DY": (
        "Dynamic — incremental PPR maintenance vs from-scratch",
        run_dynamic,
    ),
}


def experiment_ids() -> list[str]:
    """All experiment ids, in DESIGN.md order."""
    return list(EXPERIMENTS)


def run_experiment(
    experiment_id: str, workspace: Workspace | None = None
) -> Renderable:
    """Run one experiment by id and return its (renderable) result."""
    key = experiment_id.upper()
    if key not in EXPERIMENTS:
        raise ParameterError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {', '.join(EXPERIMENTS)}"
        )
    _, runner = EXPERIMENTS[key]
    return runner(workspace if workspace is not None else Workspace())
