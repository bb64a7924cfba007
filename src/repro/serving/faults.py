"""Deterministic fault injection for the sharded serving tier.

Chaos testing is only useful when a failing run can be replayed
exactly, so faults here are *scheduled*, not sampled at runtime: a
:class:`FaultInjector` carries an explicit list of
:class:`FaultSpec` entries ("kill worker 1 when the 40th request is
submitted", "drop worker 0's 3rd reply") and both sides of the process
boundary trigger them off deterministic counters — the dispatcher's
submit count for process-level faults, the worker's own reply/barrier
ordinals for in-worker faults.  :meth:`FaultInjector.random_schedule`
builds a randomized schedule from a seed, so a chaos test (or
``repro-ppr loadtest --chaos --chaos-seed``) replays its faults
exactly.

Fault kinds
-----------

Parent-side (triggered by the dispatcher at submit count ``at``):

* ``kill``  — SIGKILL worker ``worker`` (hard crash; supervision must
  respawn it on the current graph generation).
* ``stop``  — SIGSTOP worker ``worker`` (a stalled-but-alive shard:
  supervision must *not* respawn it, but timeouts/breakers must route
  around it).
* ``cont``  — SIGCONT worker ``worker`` (recovery from ``stop``).

Worker-side (shipped to the worker inside its ``WorkerConfig`` and
triggered by worker-local ordinals, so they survive respawns and queue
reordering deterministically):

* ``delay_reply`` — sleep ``delay`` seconds before sending reply
  number ``at`` (0-based count of result/error replies).
* ``drop_reply``  — swallow reply number ``at`` entirely (the
  dispatcher's request timeout + bounded retry must recover it).
* ``crash_update`` — ``os._exit`` mid-hand-over, *after* attaching
  the graph generation of update number ``at`` but *before* acking it
  (the hand-over must settle on the survivors, the generation before
  it must still be retired, and the respawn must be handed the new
  one).  The hand-over that boots a worker is not an update and is
  not counted.

Worker-side plans arm a worker's *first* incarnation only: the
trigger ordinals are worker-local, so a respawn would count from zero
and re-fire the same faults (a ``crash_update`` would kill every
incarnation at its first update, straight through the restart budget,
which is the opposite of what a recovery test wants to measure).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ParameterError

__all__ = ["FaultInjector", "FaultSpec", "WorkerFaultPlan"]

#: Kinds the dispatcher triggers by submit count (process signals).
PARENT_KINDS = frozenset({"kill", "stop", "cont"})
#: Kinds the worker triggers by its own local ordinals.
WORKER_KINDS = frozenset({"delay_reply", "drop_reply", "crash_update"})


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``at`` is the trigger ordinal: the dispatcher-wide submit count
    for parent kinds, the worker-local reply/barrier ordinal
    (0-based) for worker kinds.  ``delay`` is only meaningful for
    ``delay_reply``.
    """

    kind: str
    worker: int
    at: int
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in PARENT_KINDS | WORKER_KINDS:
            raise ParameterError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(PARENT_KINDS | WORKER_KINDS)}"
            )
        if self.worker < 0:
            raise ParameterError(f"worker must be >= 0, got {self.worker}")
        if self.at < 0:
            raise ParameterError(f"at must be >= 0, got {self.at}")
        if self.delay < 0:
            raise ParameterError(f"delay must be >= 0, got {self.delay}")


class FaultInjector:
    """A replayable fault schedule threaded through the dispatcher.

    The dispatcher calls :meth:`parent_faults_at` once per submitted
    request (with its running submit count) and fires whatever comes
    back; worker-side specs are extracted once per worker with
    :meth:`worker_plan` and shipped in the worker's config.  The
    injector never acts on its own — it is a pure schedule plus fired
    counters, safe to share across dispatcher threads.
    """

    def __init__(self, schedule: Iterable[FaultSpec]) -> None:
        specs = list(schedule)
        for spec in specs:
            if not isinstance(spec, FaultSpec):
                raise ParameterError(
                    "FaultInjector schedule entries must be FaultSpec, "
                    f"got {type(spec).__name__}"
                )
        self._schedule = tuple(specs)
        self._lock = threading.Lock()
        self._parent_due: dict[int, list[FaultSpec]] = {}
        for spec in specs:
            if spec.kind in PARENT_KINDS:
                self._parent_due.setdefault(spec.at, []).append(spec)
        self._fired: list[FaultSpec] = []

    @classmethod
    def random_schedule(
        cls,
        *,
        workers: int,
        requests: int,
        kills: int = 1,
        stops: int = 0,
        drops: int = 0,
        delays: int = 0,
        delay_s: float = 0.05,
        seed: int = 0,
    ) -> "FaultInjector":
        """Build a seed-deterministic schedule over a known workload.

        Kill/stop points are drawn from the middle 80% of the request
        range so the workload is warm when the fault lands and has
        time to recover before the run drains.  Every ``stop`` gets a
        matching ``cont`` a short slice of requests later.
        """
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        if requests < 10:
            raise ParameterError(
                f"requests must be >= 10 for a schedule, got {requests}"
            )
        rng = np.random.default_rng(seed)
        lo, hi = max(1, requests // 10), max(2, (9 * requests) // 10)
        schedule: list[FaultSpec] = []

        def draw_at() -> int:
            return int(rng.integers(lo, hi))

        def draw_worker() -> int:
            return int(rng.integers(0, workers))

        for _ in range(kills):
            schedule.append(FaultSpec("kill", draw_worker(), draw_at()))
        for _ in range(stops):
            worker = draw_worker()
            at = draw_at()
            resume = min(requests - 1, at + max(2, requests // 10))
            schedule.append(FaultSpec("stop", worker, at))
            schedule.append(FaultSpec("cont", worker, resume))
        for _ in range(drops):
            schedule.append(
                FaultSpec("drop_reply", draw_worker(), int(rng.integers(0, 8)))
            )
        for _ in range(delays):
            schedule.append(
                FaultSpec(
                    "delay_reply",
                    draw_worker(),
                    int(rng.integers(0, 16)),
                    delay=delay_s,
                )
            )
        return cls(schedule)

    @property
    def schedule(self) -> tuple[FaultSpec, ...]:
        return self._schedule

    def parent_faults_at(self, submit_count: int) -> list[FaultSpec]:
        """Parent-side faults due at this submit count (fired once)."""
        with self._lock:
            due = self._parent_due.pop(submit_count, [])
            self._fired.extend(due)
            return due

    def worker_plan(self, worker_id: int) -> tuple[FaultSpec, ...]:
        """Worker-side specs for ``worker_id`` (shipped in its config)."""
        return tuple(
            spec
            for spec in self._schedule
            if spec.kind in WORKER_KINDS and spec.worker == worker_id
        )

    def fired(self) -> list[FaultSpec]:
        """Parent-side faults actually injected so far."""
        with self._lock:
            return list(self._fired)

    def summary(self) -> dict[str, int]:
        """Scheduled fault counts by kind (for reports and gating)."""
        counts: dict[str, int] = {}
        for spec in self._schedule:
            counts[spec.kind] = counts.get(spec.kind, 0) + 1
        return counts


class WorkerFaultPlan:
    """Worker-local trigger state built from that worker's specs.

    Lives inside the worker process; consulted on every reply and
    every update hand-over with monotonically increasing local
    ordinals, so the same schedule always fires at the same points.
    """

    def __init__(self, specs: Sequence[FaultSpec]) -> None:
        self._delay: dict[int, float] = {}
        self._drop: set[int] = set()
        self._crash_updates: set[int] = set()
        for spec in specs:
            if spec.kind == "delay_reply":
                self._delay[spec.at] = spec.delay
            elif spec.kind == "drop_reply":
                self._drop.add(spec.at)
            elif spec.kind == "crash_update":
                self._crash_updates.add(spec.at)
        self._replies = 0
        self._updates = 0

    def __bool__(self) -> bool:
        return bool(self._delay or self._drop or self._crash_updates)

    def on_reply(self) -> tuple[str, float] | None:
        """Action for the next reply: ``("drop"|"delay", seconds)``."""
        ordinal = self._replies
        self._replies += 1
        if ordinal in self._drop:
            return ("drop", 0.0)
        if ordinal in self._delay:
            return ("delay", self._delay[ordinal])
        return None

    def on_update_applied(self) -> bool:
        """Whether to crash after attaching this update's generation."""
        ordinal = self._updates
        self._updates += 1
        return ordinal in self._crash_updates
