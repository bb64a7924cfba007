"""Benchmark SV — the concurrent serving layer vs serial queries.

A Zipfian read-heavy workload replays twice over the same R-MAT graph:
once through :class:`~repro.serving.server.EngineServer` (micro-batch
scheduler + versioned result cache, a closed-loop worker pool) and
once through a bare engine answering one query at a time.  The claims
under test:

* batched/cached throughput is at least ``MIN_SPEEDUP`` x serial,
* every served answer is byte-identical to the serial baseline's,
* the metrics land in ``results/BENCH_serving.json`` — throughput,
  p50/p99 latency, cache hit rate, batching factor — the first entries
  of the serving bench trajectory.

With ``--workers N`` the bench additionally runs the same workload
through the multi-process :class:`~repro.serving.sharded.ShardedDispatcher`
(N shard processes mapping one shared-memory graph image) and compares
it against the thread-based server.  Two gates then apply:

* both modes must stay byte-identical to the serial baseline (and
  therefore to each other — placement never changes a seeded answer),
  and
* the run must leave **zero** ``/dev/shm`` segments behind
  (checked against :data:`repro.serving.shm.SEGMENT_PREFIX` before
  exit).

The process-over-thread throughput ratio is measured and reported, not
gated: on the ~210-node smoke graph a solve costs less than its IPC, so
the ratio was 0.36-0.50x on a 2-vCPU box whatever the change under
test — a gate that is red before the change gates nothing.
``benchmarks/e2e`` is where serving throughput is compared.

With ``--chaos`` the sharded run happens under a seeded fault
schedule (worker kills, dropped/delayed replies — see
:mod:`repro.serving.faults`): the supervisor must respawn every
killed shard over the shared graph image, the retry machinery must
recover every request, and the gates assert zero hung futures,
byte-identical completed answers, full capacity restored, and bounded
recovery time.  A separate probe crashes a shard mid-update-barrier
and checks the barrier settles on the survivors.

Also runnable as a script (CI exercises this on every push)::

    PYTHONPATH=src python benchmarks/bench_serving.py --smoke
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke --workers 2
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke --chaos
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.durability.atomic import atomic_write_json
from repro.generators.rmat import rmat_digraph
from repro.serving import (
    FaultInjector,
    FaultSpec,
    WorkloadGenerator,
    run_loadtest,
)
from repro.serving.shm import SEGMENT_PREFIX

#: The scheduler+cache must beat one-query-at-a-time by at least this.
MIN_SPEEDUP = 2.0

#: Per-record WAL fsync may cost at most this fraction of update
#: throughput (vs the same durable path with fsync off).
MAX_FSYNC_LOSS = 0.25

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
DEFAULT_JSON = RESULTS_DIR / "BENCH_serving.json"


def _effective_cores(workers: int) -> int:
    """Cores the worker pool can actually spread over."""
    try:
        available = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        available = os.cpu_count() or 1
    return min(workers, available)


def leaked_segments() -> list[str]:
    """Shared-memory segments of ours still present in ``/dev/shm``."""
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():
        return []
    return sorted(
        entry.name
        for entry in shm_dir.iterdir()
        if entry.name.startswith(SEGMENT_PREFIX)
    )


def run_serving_bench(
    *,
    scale: int = 10,
    edges: int = 8_000,
    requests: int = 400,
    sources: int = 48,
    zipf: float = 1.2,
    concurrency: int = 8,
    window: float = 0.002,
    seed: int = 2021,
    workers: int = 0,
    l1_threshold: float = 1e-7,
    arrival: str = "closed",
    arrival_rate: float = 500.0,
    slo_ms: float | None = None,
    deadline_ms: float | None = None,
    max_inflight: int | None = None,
    degrade_l1: float | None = None,
    chaos: FaultInjector | None = None,
    max_restarts: int | None = None,
    request_timeout: float | None = None,
):
    """One measured loadtest run; returns the LoadtestReport."""

    # Read-only workload: both runs can share one immutable graph.
    base = rmat_digraph(
        scale, edges, rng=np.random.default_rng(seed), name="serving-rmat"
    )

    def make_graph():
        return base

    workload = WorkloadGenerator(
        base.num_nodes,
        num_sources=sources,
        zipf_exponent=zipf,
        read_fraction=1.0,  # the read-heavy contract the cache serves
        arrival=arrival,
        arrival_rate=arrival_rate,
        seed=seed,
    ).generate(requests)
    return run_loadtest(
        make_graph,
        workload,
        method="powerpush",
        params={"l1_threshold": l1_threshold},
        seed=seed,
        concurrency=concurrency,
        window=window,
        workers=workers,
        slo_ms=slo_ms,
        deadline_ms=deadline_ms,
        max_inflight=max_inflight,
        degrade_params=(
            {"l1_threshold": degrade_l1}
            if degrade_l1 is not None
            else None
        ),
        chaos=chaos,
        max_restarts=max_restarts,
        request_timeout=request_timeout,
    )


def test_serving_speedup_and_equivalence(benchmark, write_report):
    report = benchmark.pedantic(run_serving_bench, rounds=1, iterations=1)
    write_report("serving", report.render())
    report.write_json(DEFAULT_JSON)

    assert report.identical is True, (
        "served answers diverged from the serial baseline"
    )
    assert report.cache_hit_rate > 0.0, "Zipfian workload never hit cache"
    assert report.batching_factor >= 1.0
    assert report.speedup >= MIN_SPEEDUP, (
        f"serving layer at {report.speedup:.2f}x serial "
        f"(expected >= {MIN_SPEEDUP}x)"
    )


def _per_worker_hit_rates(stats: dict[str, Any]) -> dict[str, float]:
    return {
        worker_id: float(worker["cache"].get("hit_rate", 0.0))
        for worker_id, worker in stats.get("per_worker", {}).items()
    }


def _reply_encodings(stats: dict[str, Any]) -> dict[str, int]:
    """How the shards' answers came back: through reply slots or pickled."""
    return {
        name: int(stats[name])
        for name in (
            "replies_slot",
            "replies_inline",
            "reply_slots_free",
            "reply_slots_total",
        )
    }


def _run_process_comparison(args: argparse.Namespace, sizes) -> int:
    """``--workers N``: thread mode vs N shard processes, two gates."""
    scale, edges, requests, sources = sizes
    # Process parallelism pays off on solve-dominated traffic: spread
    # the Zipf over more distinct sources and tighten the threshold so
    # the comparison measures parallel solving, not shared cache hits,
    # and saturate both modes with an open-loop arrival burst so each
    # reaches its full micro-batch depth (closed-loop clients starve the
    # per-shard queues of burst depth and measure client count instead).
    sources = max(sources, requests // 2)
    common = dict(
        scale=scale,
        edges=edges,
        requests=requests,
        sources=sources,
        zipf=args.zipf,
        concurrency=args.concurrency,
        seed=args.seed,
        l1_threshold=1e-8,
        arrival="open",
        arrival_rate=50_000.0,
    )
    thread_report = run_serving_bench(**common)
    process_report = run_serving_bench(**common, workers=args.workers)

    print("--- thread mode ---")
    print(thread_report.render())
    print(f"--- process mode ({args.workers} workers) ---")
    print(process_report.render())

    thread_qps = thread_report.served.throughput_qps
    process_qps = process_report.served.throughput_qps
    process_speedup = process_qps / thread_qps if thread_qps else 0.0
    hit_rates = _per_worker_hit_rates(process_report.server_stats)
    replies = _reply_encodings(process_report.server_stats)
    leaks = leaked_segments()
    cores = _effective_cores(args.workers)

    payload = {
        "thread": thread_report.to_dict(),
        "process": process_report.to_dict(),
        "workers": args.workers,
        "effective_cores": cores,
        "process_speedup": process_speedup,
        "per_worker_hit_rate": hit_rates,
        "reply_encodings": replies,
        "leaked_segments": leaks,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_json(out, payload)
    print(f"metrics written to {out}")
    print(
        f"process vs thread: {process_speedup:.2f}x "
        f"({process_qps:.0f} vs {thread_qps:.0f} q/s, "
        f"{cores} effective cores)"
    )
    print(
        "per-worker cache hit rates: "
        + ", ".join(f"w{k}={v:.1%}" for k, v in sorted(hit_rates.items()))
    )
    print(
        f"reply encodings: {replies['replies_slot']} through slots, "
        f"{replies['replies_inline']} inline; "
        f"{replies['reply_slots_free']} of {replies['reply_slots_total']} "
        "slots free at the end"
    )

    failed = False
    for label, report in (("thread", thread_report), ("process", process_report)):
        if report.identical is not True:
            print(f"FAIL: {label}-mode answers diverged from serial baseline")
            failed = True
    if leaks:
        print(f"FAIL: leaked shared-memory segments: {leaks}")
        failed = True
    if failed:
        return 1
    print(
        f"OK: byte-identical across serial/thread/process, zero leaked "
        f"segments; process mode at {process_speedup:.2f}x thread mode "
        f"(reported, not gated)"
    )
    return 0


def _run_overload(args: argparse.Namespace, sizes) -> int:
    """``--overload``: open-loop flood through the async front door.

    A short closed-loop run calibrates the server's sustainable
    service rate; the measured run then arrives at
    ``--overload-factor`` (default 3) times that rate, with deadlines,
    admission shedding, and a degraded tier.  Five gates:

    * every request is accounted (completed/shed/expired/failed — a
      hung future would leave ``accounted < queries``),
    * goodput under the SLO is strictly positive (the front door keeps
      answering within SLO *while* overloaded),
    * the run actually overloaded (something shed/degraded/expired),
    * p99 of admitted requests stays bounded by the deadline (plus
      scheduling slack) — overload degrades admission, not the tail,
    * every served answer is byte-identical to the serial baseline
      (full fidelity against the caller's request, degraded against
      the degraded request), and no shm segments leak.
    """
    scale, edges, requests, sources = sizes
    # Solve-dominated traffic (many distinct sources, tight threshold):
    # overload must saturate the solver, not the result cache.
    sources = max(sources, requests // 2)
    common = dict(
        scale=scale,
        edges=edges,
        sources=sources,
        zipf=args.zipf,
        concurrency=args.concurrency,
        seed=args.seed,
        l1_threshold=1e-8,
    )
    calibration = run_serving_bench(
        **common, requests=max(80, requests // 4)
    )
    service_rate = calibration.served.throughput_qps
    arrival_rate = max(args.overload_factor * service_rate, 200.0)
    print(
        f"calibrated service rate {service_rate:.0f} q/s -> open-loop "
        f"arrivals at {arrival_rate:.0f} q/s "
        f"({args.overload_factor:.1f}x)"
    )
    report = run_serving_bench(
        **common,
        requests=requests,
        arrival="open",
        arrival_rate=arrival_rate,
        slo_ms=args.slo_ms,
        deadline_ms=args.deadline_ms,
        max_inflight=args.max_inflight,
        degrade_l1=args.degrade_l1,
    )
    print(report.render())

    served = report.served
    leaks = leaked_segments()
    payload = {
        "service_rate_qps": service_rate,
        "arrival_rate_qps": arrival_rate,
        "overload_factor": args.overload_factor,
        "slo_ms": args.slo_ms,
        "deadline_ms": args.deadline_ms,
        "max_inflight": args.max_inflight,
        "degrade_l1": args.degrade_l1,
        "goodput_qps": served.goodput_qps,
        "report": report.to_dict(),
        "leaked_segments": leaks,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    # Merge alongside the baseline serving metrics rather than
    # clobbering them: both runs feed one BENCH_serving.json.
    existing: dict[str, Any] = {}
    if out.exists():
        existing = json.loads(out.read_text())
    existing["overload"] = payload
    atomic_write_json(out, existing)
    print(f"metrics written to {out}")
    print(
        f"overload: goodput={served.goodput_qps:.0f} q/s "
        f"shed={served.shed} degraded={served.degraded} "
        f"deadline_expired={served.deadline_expired} "
        f"failed={served.failed} accounted={served.accounted}/"
        f"{served.queries}"
    )

    failed = False
    if served.accounted != served.queries:
        print(
            f"FAIL: {served.queries - served.accounted} request(s) "
            f"unaccounted — a future hung or vanished"
        )
        failed = True
    if served.failed:
        print(f"FAIL: {served.failed} unexpected request failure(s)")
        failed = True
    if served.within_slo <= 0:
        print("FAIL: zero requests completed within the SLO under load")
        failed = True
    if not (served.shed + served.degraded + served.deadline_expired):
        print(
            "FAIL: nothing shed/degraded/expired — the run never "
            "actually overloaded the server; raise --overload-factor"
        )
        failed = True
    p99_bound_ms = args.deadline_ms * 1.5
    if served.p99_ms > p99_bound_ms:
        print(
            f"FAIL: admitted p99 {served.p99_ms:.1f}ms above "
            f"{p99_bound_ms:.0f}ms (deadline x1.5) — deadlines are "
            f"not bounding the tail"
        )
        failed = True
    if report.identical is not True:
        print("FAIL: a served answer diverged from the serial baseline")
        failed = True
    if leaks:
        print(f"FAIL: leaked shared-memory segments: {leaks}")
        failed = True
    if failed:
        return 1
    print(
        f"OK: goodput {served.goodput_qps:.0f} q/s under a "
        f"{args.slo_ms:.0f}ms SLO at {args.overload_factor:.1f}x "
        f"overload; p99 {served.p99_ms:.1f}ms bounded; every request "
        f"accounted; byte-identical answers"
    )
    return 0


def _chaos_barrier_probe(seed: int) -> dict[str, Any]:
    """Crash a shard mid-``apply_updates`` and verify self-healing.

    The read-only workload in the main chaos run never broadcasts
    updates, so the ``crash_update`` fault gets a dedicated probe:
    worker 0 is armed to die *after* applying the first update
    broadcast but *before* acking it.  Checks (returned for gating):
    the barrier settles on the survivor's version instead of hanging,
    the respawn replays the update journal to that version, and
    post-crash answers are byte-identical to a serial engine at the
    same version.
    """
    from repro.api.engine import PPREngine
    from repro.graph.dynamic import DynamicGraph
    from repro.serving import ShardedDispatcher

    base = rmat_digraph(
        8, 1200, rng=np.random.default_rng(seed), name="chaos-barrier"
    )
    updates = []
    for u in (1, 2):
        v = next(
            v
            for v in range(base.num_nodes)
            if v != u and not base.has_edge(u, v)
        )
        updates.append(("add", u, v))
    injector = FaultInjector([FaultSpec("crash_update", worker=0, at=0)])
    began = time.monotonic()
    with ShardedDispatcher(
        DynamicGraph(base),
        workers=2,
        alpha=0.2,
        seed=seed,
        fault_injector=injector,
    ) as disp:
        version = disp.apply_updates(updates)
        barrier_settled = version == len(updates)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            supervisor = disp.stats(timeout=0.5)["supervisor"]
            if supervisor["respawns"] >= 1 and disp.num_workers == 2:
                break
            time.sleep(0.05)
        supervisor = disp.stats()["supervisor"]
        respawned = supervisor["respawns"] >= 1 and disp.num_workers == 2
        reference = PPREngine(DynamicGraph(base), alpha=0.2, seed=seed)
        reference.apply_updates(updates)
        identical = True
        for source in range(0, base.num_nodes, 47):
            served = disp.query(source, "powerpush", l1_threshold=1e-7)
            expected = reference.query(
                source, "powerpush", l1_threshold=1e-7
            )
            identical = identical and (
                served.version == version
                and served.result.estimate.tobytes()
                == expected.estimate.tobytes()
            )
        recovery = dict(supervisor["recovery_s"])
    return {
        "barrier_settled": barrier_settled,
        "version": version,
        "respawned": respawned,
        "identical": identical,
        "recovery_s": recovery,
        "elapsed_s": time.monotonic() - began,
    }


def _run_chaos(args: argparse.Namespace, sizes) -> int:
    """``--chaos``: the sharded run under a seeded fault schedule.

    A Zipfian closed-loop workload replays against ``--workers`` (or
    2) shard processes while :class:`FaultInjector` kills workers and
    drops/delays replies at seed-deterministic points.  Gates:

    * every request is accounted and none failed (retry + respawn
      recovered all of them — zero hung futures),
    * completed answers stay byte-identical to the serial baseline,
    * every killed worker is respawned (capacity fully restored: no
      worker removed, no degraded-capacity flag) with bounded
      recovery time,
    * the mid-barrier crash probe settles and heals,
    * zero leaked shared-memory segments.
    """
    scale, edges, requests, sources = sizes
    workers = args.workers or 2
    injector = FaultInjector.random_schedule(
        workers=workers,
        requests=requests,
        kills=args.chaos_kills,
        stops=args.chaos_stops,
        drops=args.chaos_drops,
        delays=args.chaos_delays,
        seed=args.chaos_seed,
    )
    schedule = [dataclasses.asdict(spec) for spec in injector.schedule]
    print(f"chaos schedule (seed {args.chaos_seed}): {schedule}")
    report = run_serving_bench(
        scale=scale,
        edges=edges,
        requests=requests,
        sources=sources,
        zipf=args.zipf,
        concurrency=args.concurrency,
        seed=args.seed,
        workers=workers,
        chaos=injector,
        max_restarts=args.max_restarts,
        request_timeout=args.request_timeout,
    )
    print(report.render())
    barrier = _chaos_barrier_probe(args.seed)
    print(
        f"barrier-crash probe: settled={barrier['barrier_settled']} "
        f"respawned={barrier['respawned']} "
        f"identical={barrier['identical']}"
    )

    served = report.served
    supervisor = report.chaos.get("supervisor", {})
    kills_fired = sum(
        1 for spec in report.chaos.get("fired", []) if spec["kind"] == "kill"
    )
    recovery = supervisor.get("recovery_s", {}) or {}
    leaks = leaked_segments()

    payload = {
        "workers": workers,
        "chaos_seed": args.chaos_seed,
        "max_restarts": args.max_restarts,
        "request_timeout": args.request_timeout,
        "schedule": schedule,
        "report": report.to_dict(),
        "barrier_probe": barrier,
        "leaked_segments": leaks,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    # Merge alongside the baseline serving metrics rather than
    # clobbering them: every serving run feeds one BENCH_serving.json.
    existing: dict[str, Any] = {}
    if out.exists():
        existing = json.loads(out.read_text())
    existing["chaos"] = payload
    atomic_write_json(out, existing)
    print(f"metrics written to {out}")
    recovery_max = recovery.get("max")
    print(
        f"chaos: kills_fired={kills_fired} "
        f"respawns={supervisor.get('respawns', 0)} "
        f"retries={supervisor.get('retries', 0)} "
        f"request_timeouts={supervisor.get('request_timeouts', 0)} "
        f"recovery_max="
        + (f"{recovery_max * 1e3:.0f}ms" if recovery_max else "n/a")
        + f" accounted={served.accounted}/{served.queries}"
    )

    failed = False
    if served.accounted != served.queries:
        print(
            f"FAIL: {served.queries - served.accounted} request(s) "
            f"unaccounted — a future hung or vanished under chaos"
        )
        failed = True
    if served.failed:
        print(
            f"FAIL: {served.failed} request(s) failed — retry + respawn "
            f"did not recover them"
        )
        failed = True
    if report.identical is not True:
        print("FAIL: a completed answer diverged from the serial baseline")
        failed = True
    if kills_fired and supervisor.get("respawns", 0) < 1:
        print("FAIL: a worker was killed but never respawned")
        failed = True
    if supervisor.get("removed"):
        print(
            f"FAIL: workers {supervisor['removed']} permanently removed "
            f"— restart budget exhausted instead of recovering"
        )
        failed = True
    if supervisor.get("degraded_capacity"):
        print("FAIL: dispatcher finished with degraded capacity")
        failed = True
    if kills_fired and (recovery_max is None or recovery_max > 15.0):
        print(
            f"FAIL: recovery time {recovery_max} not recorded or "
            f"unbounded (> 15s)"
        )
        failed = True
    for key in ("barrier_settled", "respawned", "identical"):
        if not barrier[key]:
            print(f"FAIL: barrier-crash probe: {key} is False")
            failed = True
    if leaks:
        print(f"FAIL: leaked shared-memory segments: {leaks}")
        failed = True
    if failed:
        return 1
    print(
        f"OK: {served.queries} requests all accounted under "
        f"{len(schedule)} scheduled faults; "
        f"{supervisor.get('respawns', 0)} respawn(s), max recovery "
        + (f"{recovery_max * 1e3:.0f}ms" if recovery_max else "n/a")
        + "; byte-identical answers; barrier crash healed; zero leaks"
    )
    return 0


def _durable_update_qps(
    scale: int, edges: int, seed: int, *, fsync: bool,
    batches: int = 32, batch_size: int = 64, trials: int = 3,
) -> float:
    """Update throughput (updates/s) through a durable graph.

    Applies a scripted stream batch-by-batch with a WAL flush after
    every batch — the exact group commit the serving ack path does, at
    the server's default ``max_batch`` of 64 — so the fsync on/off
    ratio isolates the durability tax.  Best-of-``trials`` throughput
    keeps the gate stable against fsync tail latency (p50 is ~100µs on
    an idle ext4 volume; the p99 stretches into milliseconds).
    """
    import tempfile

    from repro.durability import open_durable_graph
    from repro.graph.dynamic import DynamicGraph, sample_edge_update

    base = rmat_digraph(
        scale, edges, rng=np.random.default_rng(seed), name="fsync-probe"
    )
    scratch = DynamicGraph(base)
    rng = np.random.default_rng(seed + 1)
    updates = []
    for _ in range(batches * batch_size):
        update = sample_edge_update(scratch, rng)
        scratch.apply_updates([update])
        updates.append(update)
    best = 0.0
    for _ in range(trials):
        with tempfile.TemporaryDirectory(prefix="fsync-probe-") as tmp:
            manager, graph = open_durable_graph(
                Path(tmp) / "durable", DynamicGraph(base), fsync=fsync
            )
            started = time.perf_counter()
            for start in range(0, len(updates), batch_size):
                graph.apply_updates(updates[start : start + batch_size])
                manager.flush()
            elapsed = time.perf_counter() - started
            manager.close()
        best = max(best, len(updates) / elapsed)
    return best


def _serving_mix_qps(
    scale: int, edges: int, seed: int, *, fsync: bool,
    requests: int = 96, update_every: int = 4, batch_size: int = 8,
    trials: int = 2,
) -> float:
    """Request throughput of the smoke serving mix over a durable graph.

    Queries with an update batch every ``update_every`` requests — the
    soak-mode mix — through an :class:`EngineServer` whose WAL is the
    real ack path.  This is the number the ≤``MAX_FSYNC_LOSS`` gate
    reads: group commit must amortise the per-record fsync into the
    serving workload, not just survive a microbenchmark.
    """
    import tempfile

    from repro.graph.dynamic import DynamicGraph, sample_edge_update
    from repro.serving import EngineServer

    base = rmat_digraph(
        scale, edges, rng=np.random.default_rng(seed), name="fsync-mix"
    )
    scratch = DynamicGraph(base)
    rng = np.random.default_rng(seed + 2)
    n_batches = requests // update_every + 1
    updates = []
    for _ in range(n_batches * batch_size):
        update = sample_edge_update(scratch, rng)
        scratch.apply_updates([update])
        updates.append(update)
    sources = list(
        np.random.default_rng(seed + 3).integers(0, base.num_nodes, 16)
    )
    best = 0.0
    for _ in range(trials):
        with tempfile.TemporaryDirectory(prefix="fsync-mix-") as tmp:
            server = EngineServer(
                DynamicGraph(base),
                alpha=0.2,
                seed=7,
                cache_capacity=0,
                wal_dir=Path(tmp) / "durable",
                wal_fsync=fsync,
            )
            with server:
                batch = 0
                started = time.perf_counter()
                for i in range(requests):
                    server.query(
                        int(sources[i % len(sources)]),
                        "powerpush",
                        l1_threshold=1e-5,
                    )
                    if i % update_every == 0:
                        start = batch * batch_size
                        server.apply_updates(
                            updates[start : start + batch_size]
                        )
                        batch += 1
                elapsed = time.perf_counter() - started
        best = max(best, requests / elapsed)
    return best


def _run_crash_restart(args: argparse.Namespace, sizes) -> int:
    """``--crash-restart``: the durability layer's acceptance gates.

    Three sub-suites, all blocking:

    * the whole-process crash harness — SIGKILL-equivalent death at
      every WAL/checkpoint protocol point, recovery to the logged
      version with byte-identical answers;
    * the exhaustive torn-tail sweep — the WAL's final record truncated
      at every byte offset must heal and stay appendable;
    * the fsync tax — durable update throughput with per-record fsync
      must stay within ``MAX_FSYNC_LOSS`` of the fsync-off run.

    Metrics (recovery latency, WAL replay rate, fsync delta) merge into
    ``BENCH_serving.json`` under ``"crash_restart"``.
    """
    from repro.durability import run_crash_harness, torn_tail_sweep

    scale, edges, _requests, _sources = sizes

    print("crash harness: scheduled kills at every WAL/checkpoint point")
    harness = run_crash_harness()
    for case in harness["cases"]:
        print(
            f"  {case['point']}@{case['at']}: exit={case['exitcode']} "
            f"acked={case['acked_version']} "
            f"recovered={case['recovered_version']} "
            f"replayed={case['replayed_records']} "
            f"recovery={case['recovery_seconds'] * 1e3:.1f}ms "
            f"identical={case['byte_identical']} ok={case['ok']}"
        )
    total_recovery = sum(c["recovery_seconds"] for c in harness["cases"])
    replay_rate = (
        harness["total_replayed_records"] / total_recovery
        if total_recovery > 0
        else None
    )

    print("torn-tail sweep: truncating the final record at every offset")
    sweep = torn_tail_sweep()
    print(
        f"  frame={sweep['frame_bytes']}B offsets_ok="
        f"{sweep['offsets_ok']}/{sweep['offsets_tested']} ok={sweep['ok']}"
    )

    upd_off = _durable_update_qps(scale, edges, args.seed, fsync=False)
    upd_on = _durable_update_qps(scale, edges, args.seed, fsync=True)
    upd_loss = 1.0 - upd_on / upd_off if upd_off > 0 else 1.0
    print(
        f"fsync tax (update path): {upd_on:.0f} updates/s fsync-on vs "
        f"{upd_off:.0f} fsync-off ({upd_loss:+.1%}; informational)"
    )
    mix_off = _serving_mix_qps(scale, edges, args.seed, fsync=False)
    mix_on = _serving_mix_qps(scale, edges, args.seed, fsync=True)
    fsync_loss = 1.0 - mix_on / mix_off if mix_off > 0 else 1.0
    print(
        f"fsync tax (serving mix): {mix_on:.0f} req/s fsync-on vs "
        f"{mix_off:.0f} fsync-off ({fsync_loss:+.1%} loss, gate ≤ "
        f"{MAX_FSYNC_LOSS:.0%})"
    )
    leaks = leaked_segments()

    payload = {
        "harness": harness,
        "torn_tail": sweep,
        "recovery": {
            "max_seconds": harness["max_recovery_seconds"],
            "total_replayed_records": harness["total_replayed_records"],
            "replay_records_per_second": replay_rate,
        },
        "fsync": {
            "update_path": {
                "updates_per_second_on": upd_on,
                "updates_per_second_off": upd_off,
                "throughput_loss": upd_loss,
            },
            "serving_mix": {
                "requests_per_second_on": mix_on,
                "requests_per_second_off": mix_off,
                "throughput_loss": fsync_loss,
            },
            "gate": MAX_FSYNC_LOSS,
        },
        "leaked_segments": leaks,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    # Merge alongside the baseline serving metrics rather than
    # clobbering them: every serving run feeds one BENCH_serving.json.
    existing: dict[str, Any] = {}
    if out.exists():
        existing = json.loads(out.read_text())
    existing["crash_restart"] = payload
    atomic_write_json(out, existing)
    print(f"metrics written to {out}")

    failed = False
    for case in harness["cases"]:
        if not case["ok"]:
            print(
                f"FAIL: crash at {case['point']}@{case['at']} did not "
                f"recover cleanly (recovered="
                f"{case['recovered_version']} acked="
                f"{case['acked_version']} identical="
                f"{case['byte_identical']})"
            )
            failed = True
    if not sweep["ok"]:
        print(
            f"FAIL: torn-tail offsets {sweep['failed_offsets']} did not "
            f"heal to the pre-torn version"
        )
        failed = True
    if fsync_loss > MAX_FSYNC_LOSS:
        print(
            f"FAIL: fsync costs {fsync_loss:.1%} of serving throughput "
            f"(gate {MAX_FSYNC_LOSS:.0%})"
        )
        failed = True
    if leaks:
        print(f"FAIL: leaked shared-memory segments: {leaks}")
        failed = True
    if failed:
        return 1
    print(
        f"OK: {len(harness['cases'])} kill points recovered "
        f"byte-identically (max recovery "
        f"{harness['max_recovery_seconds'] * 1e3:.0f}ms, "
        f"{harness['total_replayed_records']} records replayed); "
        f"{sweep['offsets_ok']}/{sweep['offsets_tested']} torn offsets "
        f"healed; fsync tax {fsync_loss:.1%}; zero leaks"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """Script entry point; ``--smoke`` runs a seconds-scale CI check."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small deterministic run asserting the serving win",
    )
    # Default to None so --smoke only shrinks sizes the user left unset.
    parser.add_argument("--scale", type=int, default=None)
    parser.add_argument("--edges", type=int, default=None)
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--sources", type=int, default=None)
    parser.add_argument("--zipf", type=float, default=1.2)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="also run N shard processes over a shared-memory graph "
        "image: gates byte-identity and zero leaked segments, reports "
        "the process-vs-thread speedup",
    )
    parser.add_argument(
        "--overload",
        action="store_true",
        help="open-loop overload run through the SLO-aware async front "
        "door: gates goodput-under-SLO, full request accounting, "
        "bounded p99, and byte-identity",
    )
    parser.add_argument(
        "--overload-factor",
        type=float,
        default=3.0,
        help="arrival rate as a multiple of the calibrated service rate",
    )
    parser.add_argument("--slo-ms", type=float, default=50.0)
    parser.add_argument("--deadline-ms", type=float, default=150.0)
    parser.add_argument("--max-inflight", type=int, default=64)
    parser.add_argument("--degrade-l1", type=float, default=1e-4)
    parser.add_argument(
        "--crash-restart",
        action="store_true",
        help="run the durability acceptance gates: scheduled process "
        "kills at every WAL/checkpoint point, exhaustive torn-tail "
        "sweep, and the fsync throughput tax",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="run the sharded workload under a seeded fault schedule "
        "and gate full recovery (respawns, retries, byte-identity, "
        "zero hung futures)",
    )
    parser.add_argument(
        "--chaos-kills",
        type=int,
        default=1,
        help="SIGKILLed workers in the schedule",
    )
    parser.add_argument(
        "--chaos-stops",
        type=int,
        default=0,
        help="SIGSTOP/SIGCONT pairs in the schedule",
    )
    parser.add_argument(
        "--chaos-drops",
        type=int,
        default=1,
        help="worker replies swallowed (request timeout must recover)",
    )
    parser.add_argument(
        "--chaos-delays",
        type=int,
        default=1,
        help="worker replies delayed in the schedule",
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        help="fault-schedule seed (defaults to --seed); replays the "
        "whole chaos run bit for bit",
    )
    parser.add_argument(
        "--max-restarts",
        type=int,
        default=3,
        help="per-worker respawn budget before permanent removal",
    )
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=2.0,
        help="per-request hang detector driving bounded retries (s)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_JSON,
        help=f"metrics JSON path (default {DEFAULT_JSON})",
    )
    args = parser.parse_args(argv)

    defaults = (9, 4_000, 240, 32) if args.smoke else (10, 8_000, 400, 48)
    scale, edges, requests, sources = (
        given if given is not None else fallback
        for given, fallback in zip(
            (args.scale, args.edges, args.requests, args.sources), defaults
        )
    )

    if args.chaos_seed is None:
        args.chaos_seed = args.seed

    if args.crash_restart:
        return _run_crash_restart(args, (scale, edges, requests, sources))

    if args.chaos:
        return _run_chaos(args, (scale, edges, requests, sources))

    if args.overload:
        return _run_overload(args, (scale, edges, requests, sources))

    if args.workers:
        return _run_process_comparison(
            args, (scale, edges, requests, sources)
        )

    report = run_serving_bench(
        scale=scale,
        edges=edges,
        requests=requests,
        sources=sources,
        zipf=args.zipf,
        concurrency=args.concurrency,
        seed=args.seed,
    )
    print(report.render())
    path = report.write_json(args.out)
    print(f"metrics written to {path}")

    if report.identical is not True:
        print("FAIL: served answers diverged from the serial baseline")
        return 1
    if report.speedup < MIN_SPEEDUP:
        print(
            f"FAIL: speedup {report.speedup:.2f}x below {MIN_SPEEDUP}x"
        )
        return 1
    print(
        f"OK: serving layer at {report.speedup:.2f}x serial throughput, "
        f"byte-identical answers, cache hit rate "
        f"{report.cache_hit_rate:.1%}, batching factor "
        f"{report.batching_factor:.2f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
