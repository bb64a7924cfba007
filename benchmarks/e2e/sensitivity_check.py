"""Sensitivity check: does load the program itself creates still show?

    python3 benchmarks/e2e/sensitivity_check.py --pairs 3

The corrected clock (``probe.py``) divides every timing by how much
slower than its reference the probe ran.  That is sound only while the
probe sees the host's interference and not the program's own load: a
change that adds background work to a shard must not slow the probe
too, or its cost would be deflated out of every metric.  ``aa_check.py``
shows that the numbers repeat; this script shows that they still move.

For every workload of ``BENCHMARK.json`` it alternates runs of the
committed benchmark without and with a *burner*: a process that takes
``INJECTED`` of the CPU the program under test is pinned to, as a busy
background thread inside a shard would.  The probe is timed on its own
thread's CPU clock, so the burner can preempt it but not lengthen it.
The script prints by how much each timing's median got worse, next to
the shift the injected load would cause on a saturated CPU, and exits
non-zero when a workload's ``throughput_qps`` moved by less than half
or more than twice of it.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import statistics
import sys
import time

from aa_check import BENCHMARK, run_once

#: share of the program's CPU the burner takes
INJECTED = 0.10
#: the burner is busy for ``INJECTED * PERIOD_S`` of CPU time in every period
PERIOD_S = 0.05
FIRST_SEED = 500
TIMINGS = ("throughput_qps", "query_ms_p50", "query_ms_p90", "setup_s")


def burn(stop, share) -> None:
    start = due = time.perf_counter()
    while not stop.is_set():
        # CPU time, not wall time: being preempted must not shrink the load
        busy_until = time.process_time() + INJECTED * PERIOD_S
        while time.process_time() < busy_until:
            pass
        due += PERIOD_S
        time.sleep(max(due - time.perf_counter(), 0.0))
    share.value = time.process_time() / (time.perf_counter() - start)


def run_with_burner(workload: str, seed: int) -> tuple[dict[str, float], float]:
    stop = multiprocessing.Event()
    share = multiprocessing.Value("d", 0.0)
    burner = multiprocessing.Process(target=burn, args=(stop, share))
    burner.start()
    try:
        values = run_once(workload, seed)
    finally:
        stop.set()
        burner.join()
    return values, share.value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, default=3, help="runs per side and workload")
    args = parser.parse_args()
    # run.py pins itself to the highest CPU it may use.  Left with one CPU
    # to choose from, it takes this one, and so does the burner.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    better = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
    # the program keeps 1 - INJECTED of its CPU
    expected = {"higher": INJECTED, "lower": 1 / (1 - INJECTED) - 1}

    insensitive = 0
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        quiet: list[dict[str, float]] = []
        loaded: list[dict[str, float]] = []
        shares = []
        for i in range(args.pairs):
            for with_burner in ((False, True), (True, False))[i % 2]:
                if with_burner:
                    values, share = run_with_burner(workload, FIRST_SEED + i)
                    loaded.append(values)
                    shares.append(share)
                else:
                    quiet.append(run_once(workload, FIRST_SEED + i))
            print(f"pair {i + 1}/{args.pairs} {workload}: done", flush=True)
        print(f"{workload}: the burner took {statistics.median(shares):.1%} of CPU {cpu}")
        for name in TIMINGS:
            base = statistics.median(run[name] for run in quiet)
            with_load = statistics.median(run[name] for run in loaded)
            sign = 1.0 if better[name] == "lower" else -1.0
            worse = sign * (with_load - base) / base
            line = (
                f"{workload}/{name}: {base:.5g} -> {with_load:.5g}, worse by "
                f"{worse:+.1%}; expected {expected[better[name]]:+.1%}"
            )
            if name == "throughput_qps" and not INJECTED / 2 <= worse <= INJECTED * 2:
                insensitive += 1
                line += "  NOT DETECTED"
            print(line)
    print(f"{insensitive} workloads on which the injected load did not show as it should")
    return 1 if insensitive else 0


if __name__ == "__main__":
    sys.exit(main())
