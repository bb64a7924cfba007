"""BePI-style high-precision comparator (SlashBurn + block elimination).

This is the reproduction's stand-in for the paper's BePI baseline
(released only as MATLAB P-code): the same pipeline — SlashBurn
hub-and-spoke reordering, block elimination with a pre-factorised
block-diagonal ``H11``, and an iterative solve on the hub Schur
complement — reimplemented openly.  See DESIGN.md, "Substitutions".
"""

from repro.bepi.blockelim import BePIIndex, build_bepi_index
from repro.bepi.slashburn import SlashBurnResult, slashburn
from repro.bepi.solver import bepi_query

__all__ = [
    "slashburn",
    "SlashBurnResult",
    "BePIIndex",
    "build_bepi_index",
    "bepi_query",
]
