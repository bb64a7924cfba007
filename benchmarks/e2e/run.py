"""End-to-end benchmark of repro-ppr: one command, every metric, answers checked.

    python3 benchmarks/e2e/run.py --workload serve-hot --seed 1 --seconds 15 --trace 0

Without ``--workload`` every workload runs in turn, each in a fresh
subprocess.  ``--trace 0`` measures the end-to-end metrics with no
tracing; ``--trace 1`` replays the workload at a quarter of its length
with spans on and then measures every layer (see ``layers.py``).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when an operation, a verification or a cleanliness check
failed.  See README.md for the workloads, the metrics and the noise
rules.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, fixed before numpy is first imported: a library
# pool would compete with the shard processes for the CPU.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

# One vCPU for the whole stack, shards included (children inherit it).
# On a shared host a wake-up-heavy workload spread over several vCPUs is
# at the mercy of the host's scheduler: the rounds of serve-hot collapsed
# fourfold for minutes at a time.  On one vCPU a hand-off between
# processes is a context switch, and the probe measures the very CPU the
# work runs on.  So the serving workloads measure CPU cost per request,
# not the speed-up of two shards side by side.  The highest CPU is taken;
# interrupts favour the lowest.
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import argparse
import gc
import json
import multiprocessing
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
OUT_DIR = ROOT / ".e2e_out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np
import scipy

import repro

if ROOT / "src" not in Path(repro.__file__).resolve().parents:
    sys.exit(f"repro was imported from {repro.__file__}, not from {ROOT / 'src'}")

from repro.backends import resolve_backend
from repro.serving.shm import live_segments

from probe import Probe, round_slowdowns, slowdown
from spans import Tracer
from workloads import SPECS, Timed

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3
END_TO_END = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def environment(seed: int) -> dict:
    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": has_numba,
        "kernel_backend": resolve_backend(None).name,
        "git_sha": sha,
        "seed": seed,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
    }


class Checks:
    """Verification and cleanliness checks; a failed one is a failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def child_pids() -> list[int]:
    """Every process whose parent is this one, un-reaped zombies included."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                state_ppid = handle.read().rsplit(")", 1)[1].split()
        except OSError:  # it ended while we were looking
            continue
        if int(state_ppid[1]) == me:
            pids.append(int(entry))
    return pids


def stop_resource_tracker() -> None:
    """End multiprocessing's resource tracker and wait for it.

    Creating a shared-memory segment starts it as a child of ours, and
    left alone it ends only when it sees our end of its pipe close: some
    milliseconds *after* we exited.  It is started again on demand.
    """
    resource_tracker._resource_tracker._stop()


def check_clean(check: Checks, unresolved: int) -> None:
    """Nothing may outlive a workload: shm, WAL dir, children, futures."""
    segments = live_segments()
    check(not segments, f"shared-memory segments left: {segments}")
    leftovers = sorted(p.name for p in OUT_DIR.glob("wal-*"))
    check(not leftovers, f"temp WAL dirs left: {leftovers}")
    multiprocessing.active_children()  # reaps the shards that have ended
    stop_resource_tracker()
    children = child_pids()
    check(not children, f"child processes left: {children}")
    check(not unresolved, f"{unresolved} operations neither answered nor failed")


def reap_children() -> None:
    """Last thing on every path out: kill what is left and wait for it."""
    stop_resource_tracker()
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except OSError:  # already reaped by its multiprocessing handle
            pass


def corrected(timed: Timed) -> tuple[list[float], np.ndarray]:
    """Round rates and read latencies on the interference-corrected clock."""
    factors = round_slowdowns(timed.probe_ms)
    rates = [r.reads / r.seconds * f for r, f in zip(timed.rounds, factors)]
    reads = np.concatenate(
        [
            np.asarray(timed.read_ms[r.first_read : r.first_read + r.reads]) / f
            for r, f in zip(timed.rounds, factors)
        ]
    )
    return rates, reads


def run_workload(args: argparse.Namespace) -> tuple[dict, Checks, Timed]:
    spec, cls = SPECS[args.workload]
    if args.smoke:
        spec = spec.smoke()
    seconds = args.seconds
    if args.trace:
        spec = replace(spec, round_size=max(spec.round_size // 4, 2))
        seconds /= 4
    tracer = Tracer()
    probe = Probe()
    workload = cls(spec, args.seed, tracer, probe, OUT_DIR)
    check = Checks()
    if args.break_check == "clean":
        (OUT_DIR / "wal-left-behind").mkdir(parents=True, exist_ok=True)

    try:
        #: (seconds, interference factor) of every set-up
        setups = []
        for repeat in range(1 if args.trace else SETUP_REPEATS):
            if repeat:
                workload.teardown()
            gc.collect()
            before = probe()
            start = time.perf_counter()
            workload.setup()
            elapsed = time.perf_counter() - start
            setups.append((elapsed, slowdown([before, probe()])))
        print(
            f"workload {spec.name}: {spec.why}\n"
            f"graph {spec.dataset} x{spec.scale:g}: n={workload.graph.num_nodes} "
            f"m={workload.graph.num_edges}; {spec.clients} client(s), rounds of "
            f"{spec.round_size} operations\n"
            "set-ups: " + ", ".join(f"{s:.3f} s at {f:.2f}x" for s, f in setups)
        )

        gc.collect()
        tracer.enabled = bool(args.trace)
        timed = workload.run(seconds, alternate=bool(args.trace))
        tracer.enabled = False
        if args.break_check == "verify":
            check(False, "--break-check verify: a verification made to fail")
        workload.verify(check)
    finally:  # on a failure too: the shards, their segment, the WAL dir
        workload.teardown()
    check_clean(check, timed.issued - timed.attempted)
    if args.break_check == "clean":
        (OUT_DIR / "wal-left-behind").rmdir()

    rates, reads = corrected(timed)
    print(
        f"timed phase: {timed.seconds:.2f} s, {len(timed.rounds)} rounds, "
        f"{len(timed.read_ms)} reads, {len(timed.update_ms)} updates, "
        f"{timed.failed} failed\n"
        f"probe: median {statistics.median(timed.probe_ms):.2f} ms over "
        f"{len(timed.probe_ms)} probes, so the box ran "
        f"{slowdown(timed.probe_ms):.2f}x slower than its quiet state\n"
        "uncorrected: throughput_qps "
        f"{statistics.median(r.reads / r.seconds for r in timed.rounds):.6g}, "
        f"query_ms_p50 {np.percentile(timed.read_ms, 50):.6g}, "
        f"query_ms_p90 {np.percentile(timed.read_ms, 90):.6g}, "
        f"setup_s {statistics.median(s for s, _ in setups):.6g}"
    )
    if timed.update_ms:
        print(
            f"update_ms_p50 {statistics.median(timed.update_ms):.3f} ms over "
            f"{len(timed.update_ms)} write acks (uncorrected; reported, not bounded)"
        )
    if args.trace:
        metrics = per_layer(args, tracer, timed, rates)
        check_clean(check, 0)
    else:
        metrics = end_to_end(setups, rates, reads)
    return metrics, check, timed


def end_to_end(setups: list, rates: list[float], reads: np.ndarray) -> dict:
    usage = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    values = {
        "setup_s": statistics.median(s / f for s, f in setups),
        "throughput_qps": statistics.median(rates),
        "query_ms_p50": float(np.percentile(reads, 50)),
        "query_ms_p90": float(np.percentile(reads, 90)),
        "peak_rss_mb": usage / 1024,
    }
    return {name: (value, END_TO_END[name]) for name, value in values.items()}


def per_layer(
    args: argparse.Namespace, tracer: Tracer, timed: Timed, rates: list[float]
) -> dict:
    from layers import LADDER_CHAINS, LayerRun

    metrics = LayerRun(tracer, OUT_DIR, smoke=args.smoke).run()
    traced = [qps for qps, r in zip(rates, timed.rounds) if r.traced]
    untraced = [qps for qps, r in zip(rates, timed.rounds) if not r.traced]
    metrics["trace.overhead_share"] = (
        statistics.median(traced) / statistics.median(untraced), "count")
    for top, chain in LADDER_CHAINS.items():
        total = sum(metrics[name][0] for name in chain)
        print(
            f"ladder: {' + '.join(chain)} = {total:.3f} ms; "
            f"{top} = {metrics[top][0]:.3f} ms"
        )
    path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
    tracer.write(path)
    print(f"{len(tracer)} spans written to {path.relative_to(ROOT)}")
    return metrics


def report(metrics: dict, check: Checks, timed: Timed) -> int:
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for error in timed.errors:
        print(f"FAILED operation: {error}")
    for failure in check.failures:
        print(f"FAILED check: {failure}")
    attempted = timed.attempted + check.attempted
    failed = timed.failed + len(check.failures)
    print(
        f"operations: {attempted} attempted, {attempted - failed} succeeded, "
        f"{failed} failed ({timed.attempted} timed, {check.attempted} checks)"
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


def run_all(argv: list[str]) -> int:
    """Each workload in its own fresh interpreter, so neither allocator
    state nor ``ru_maxrss`` carries over from one to the next."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in SPECS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, *argv],
            stdout=subprocess.PIPE, text=True,
        )
        print(done.stdout, end="")
        status = status or done.returncode
        try:
            result = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):  # the workload died without a result
            merged["correct"] = False
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(merged))
    return status


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="scale-2 graphs and a tenth of the time; same code paths",
    )
    parser.add_argument(
        "--break-check", choices=("verify", "clean"),
        help="make one check fail, to show that the exit code follows it",
    )
    args = parser.parse_args(argv)
    if args.seconds is None:
        with open(ROOT / "BENCHMARK.json") as handle:
            args.seconds = json.load(handle)["run_seconds"] / (10 if args.smoke else 1)
    # A TERM from whoever runs us takes the same way out as an exception.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.workload is None:
        return run_all(argv)
    print("env " + json.dumps(environment(args.seed)))
    if (os.cpu_count() or 1) < 2:
        print("WARNING: nproc < 2; the CPU the benchmark pins itself to is shared with everything else")
    try:
        return report(*run_workload(args))
    finally:
        reap_children()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
