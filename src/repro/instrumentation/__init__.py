"""Counters and convergence traces (Figures 5-6 substrate)."""

from repro.instrumentation.counters import PushCounters
from repro.instrumentation.tracing import ConvergenceTrace, TracePoint

__all__ = [
    "PushCounters",
    "ConvergenceTrace",
    "TracePoint",
]
