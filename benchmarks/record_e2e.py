"""Append measured end-to-end medians to the tracked ``BENCH_e2e.json``.

Runs ``benchmarks/e2e/run.py`` once per workload and round in each named
tree, alternating which tree goes first from round to round, and appends
one entry per tree: git sha, environment stamp, seed, and per workload
every run's value with the median::

    python benchmarks/record_e2e.py --seed 2021 --runs 10 \\
        --tree parent=/root/scratch/parent --tree change=.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LOG = ROOT / "BENCH_e2e.json"


def run_once(tree: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """One ``run.py`` process in ``tree``: its env stamp and last-line JSON."""
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True,
    )
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", metavar="LABEL=PATH",
                        help="checkout to measure (repeatable; default change=<repo>)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--workloads", help="comma-separated subset of BENCHMARK.json's")
    args = parser.parse_args(argv)
    trees = [(label, Path(path).resolve()) for label, path in
             (spec.split("=", 1) for spec in args.tree or [f"change={ROOT}"])]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in declared]
    entries = {label: {"label": label, "seed": args.seed, "runs": args.runs, "failed": 0,
                       "workloads": {w: {} for w in workloads}} for label, _ in trees}
    for round_index in range(args.runs):
        for workload in workloads:
            for label, tree in trees[:: 1 if round_index % 2 == 0 else -1]:
                env, result = run_once(tree, workload, args.seed)
                entry = entries[label]
                entry["git_sha"] = env.pop("git_sha")
                entry["env"] = {k: v for k, v in env.items() if k != "seed"}
                entry["failed"] += result["failed"] + (not result["correct"])
                for metric, got in result["metrics"].items():
                    slot = entry["workloads"][workload].setdefault(
                        metric, {"unit": got["unit"], "values": []})
                    slot["values"].append(float(f"{got['value']:.4g}"))
                print(f"round {round_index} {label} {workload}: " + ", ".join(
                    f"{m} {v['value']:.4g}" for m, v in result["metrics"].items()), flush=True)
    log = json.loads(LOG.read_text()) if LOG.exists() else []
    for label, tree in trees:
        entry = entries[label]
        entry["dirty"] = bool(subprocess.run(
            ["git", "status", "--porcelain"], cwd=tree, stdout=subprocess.PIPE).stdout.strip())
        for metrics in entry["workloads"].values():
            for slot in metrics.values():
                slot["median"] = statistics.median(slot["values"])
        log.append(entry)
    # One entry per line: appending a measurement is a one-line diff.
    LOG.write_text("[\n" + ",\n".join(json.dumps(e) for e in log) + "\n]\n")
    return 1 if any(entry["failed"] for entry in entries.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
