"""Monte-Carlo SSPPR baseline and the shared Chernoff walk budget."""

from repro.montecarlo.chernoff import (
    chernoff_walk_count,
    default_failure_probability,
    default_mu,
)
from repro.montecarlo.mc import monte_carlo_ppr

__all__ = [
    "chernoff_walk_count",
    "default_mu",
    "default_failure_probability",
    "monte_carlo_ppr",
]
