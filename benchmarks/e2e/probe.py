"""Interference probe: how much slower than its quiet state is the box right now?

The benchmark box is a small VM on a shared host.  Other tenants slow
it down by 10-40 % for seconds to minutes at a time, which neither
longer runs nor medians over rounds can average out: a whole run can
fall inside one episode.  So the timed phase carries its own ruler.
Between rounds, while no request is in flight, it times a fixed piece of
work that shares nothing with the program under test: a few products of
a fixed random sparse matrix with a fixed vector.  Each round's clock is
then deflated by how much slower the probes next to it ran than
``PROBE_REF_MS``, the probe's time on the reference box with a quiet
host.

The probe is timed on its own thread's CPU clock, not on the wall clock.
It runs on the vCPU the program is pinned to, because the host slows the
two vCPUs differently (a probe on the other vCPU left up to twice the spread).
There the program's own threads and shard processes (heartbeats, the
supervisor, WAL or checkpoint work, whatever a later change adds) can
preempt the probe, but the time they run is not on its clock.  What is
left on it is what slows instructions down: the host's contention for
caches, memory and the core.  So load the program creates stays in the
metrics, and ``sensitivity_check.py`` checks that it does.  Time the
hypervisor steals outright is not on the probe's clock either; it was
under 4 % of this box's busy time and stays in the metrics as noise.

How well one linear factor fits was measured per workload, over 20-30
runs of 15 s with the host between 1.0x and 1.9x slow: the logarithm of
a run's median time per read against that of its mean probe time has
correlation 0.95 (slope 0.84) on highprec-single, 0.99 (1.21) on
approx-index, 0.95 (1.02) on serve-hot and 0.87 (0.95) on serve-churn,
whose fsyncs the probe cannot see.  Deflating takes the spread of the
medians from 10-28 % to 2-10 %.  With nothing in flight the CPU clock
and the wall clock of the probe agree within 1 %.

Corrected values are therefore milliseconds of the reference box's
quiet state.  On another box every metric is scaled by one constant,
which no comparison of two commits on that box can see.  The run prints
the raw values next to the corrected ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse

#: the probe's time between rounds on the reference box (2-vCPU Xeon at
#: 2.1 GHz) when the host is quiet: the value at which the corrected
#: latencies of the two solver workloads equal their fastest raw ones
PROBE_REF_MS = 11.5
_NODES = 1 << 16
_NONZEROS = 1 << 20
_PRODUCTS = 8


class Probe:
    """``probe()`` runs the fixed work once and returns its milliseconds of
    CPU time, the time other threads and processes ran in between left out."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        rows = np.sort(rng.integers(0, _NODES, _NONZEROS))
        cols = rng.integers(0, _NODES, _NONZEROS)
        self._matrix = scipy.sparse.csr_matrix(
            (rng.random(_NONZEROS), (rows, cols)), shape=(_NODES, _NODES)
        )
        self._vector = rng.random(_NODES)

    def __call__(self) -> float:
        start = time.thread_time()
        for _ in range(_PRODUCTS):
            self._matrix.dot(self._vector)
        return (time.thread_time() - start) * 1e3


def slowdown(probe_ms: list[float]) -> float:
    """Interference factor of an interval, from the probes around it."""
    return statistics.fmean(probe_ms) / PROBE_REF_MS


def round_slowdowns(probe_ms: list[float]) -> list[float]:
    """One factor per round, given the probes taken before each round and
    after the last: the mean of the four probes nearest the round."""
    return [
        slowdown(probe_ms[max(r - 1, 0) : r + 3]) for r in range(len(probe_ms) - 1)
    ]
