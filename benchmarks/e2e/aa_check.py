"""A/A check: do two sets of runs of the *same* tree agree within the bounds?

    python3 benchmarks/e2e/aa_check.py --runs 5

Runs two interleaved sets (A1 B1 A2 B2 ...) of every workload of
``BENCHMARK.json`` for its ``run_seconds``, run ``i`` of either set with
seed ``FIRST_SEED + i``: a pass always refers to the committed benchmark.
For each workload/metric it prints both sets' quartiles and spread
(inter-quartile distance over the median), and the share by which set B's
median is worse than set A's, next to the metric's bound.  Exits non-zero
when a median differs by more than its bound, or a spread other than
``setup_s``'s exceeds it.  If a bound must be widened, choose it from
these quartiles.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = Path(__file__).with_name("run.py")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
FIRST_SEED = 100


def run_once(workload: str, seed: int) -> dict[str, float]:
    # run.py takes the length of the timed phase from BENCHMARK.json
    command = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if done.returncode:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stdout}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    low, median, high = statistics.quantiles(values, n=4)
    return low, median, high


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set (>= 5)")
    args = parser.parse_args()
    if args.runs < 5:
        parser.error("quartiles of fewer than 5 runs say little; use --runs >= 5")
    metrics = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    workloads = [w["name"] for w in BENCHMARK["workloads"]]

    sets: dict[str, dict[str, dict[str, list[float]]]] = {
        label: {w: {m: [] for m in metrics} for w in workloads} for label in "AB"
    }
    for i in range(args.runs):
        for label in "AB":
            for workload in workloads:
                values = run_once(workload, FIRST_SEED + i)
                for name in metrics:
                    sets[label][workload][name].append(values[name])
                print(f"run {i + 1}/{args.runs} set {label} {workload}: done", flush=True)

    exceeded = 0
    for workload in workloads:
        for name, metric in metrics.items():
            bound = metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            stats = {label: quartiles(sets[label][workload][name]) for label in "AB"}
            worse = sign * (stats["B"][1] - stats["A"][1]) / stats["A"][1]
            spreads = {
                label: (high - low) / median
                for label, (low, median, high) in stats.items()
            }
            over = abs(worse) > bound or (
                name != "setup_s" and max(spreads.values()) > bound
            )
            exceeded += over
            print(
                f"{workload}/{name} [{metric['unit']}]: "
                + "; ".join(
                    f"{label} q1 {low:.5g} median {median:.5g} q3 {high:.5g} "
                    f"spread {spreads[label]:.2%}"
                    for label, (low, median, high) in stats.items()
                )
                + f"; B worse than A by {worse:+.2%}; bound {bound:.0%}"
                + ("  EXCEEDED" if over else "")
            )
    print(f"{exceeded} workload/metric pairs outside their bound")
    return 1 if exceeded else 0


if __name__ == "__main__":
    sys.exit(main())
