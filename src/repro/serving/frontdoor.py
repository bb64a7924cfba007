"""Async SLO-aware front door over the thread/process serving tiers.

Both serving tiers are concurrent but *thread-shaped*: every
``query`` parks a client thread on a future, and nothing in the tiers
themselves judges whether the system is overloaded.  This module is
the admission tier in front of either, built on stdlib ``asyncio``
only:

* :meth:`AsyncFrontDoor.submit` is a coroutine: it enqueues through
  the wrapped :class:`~repro.serving.server.EngineServer` (or
  :class:`~repro.serving.sharded.ShardedDispatcher`) and **awaits the
  future without holding a thread** — ten thousand in-flight requests
  cost one event loop, not ten thousand parked stacks.  The enqueue
  runs on the loop (``try_submit`` never waits on the backend's read
  lock), so a cache hit is answered without leaving it; only a
  request that meets a writer on that lock is handed to the default
  executor to wait there.
* Every request carries a **deadline**.  A spent budget fails fast
  with :class:`~repro.errors.DeadlineExceeded` — at admission, when
  the backend reaches a request whose deadline has passed (it is
  failed instead of solved), or while awaiting the solve.
* **Admission control** watches the p99 of recently completed
  full-fidelity requests.  When that prediction blows the SLO the
  front door *degrades* — re-issues the request with the degrade
  parameters (e.g. a looser ``l1_threshold``) merged over its own —
  and when that cannot help (the method does not take every degrade
  parameter, or the in-flight bound is hit) it *sheds* with
  :class:`~repro.errors.ServerOverloadedError`.  Shedding protects
  the answered requests' tail: an open-loop overload run keeps
  bounded p99 for everything it admits.  With no SLO, no default
  deadline and no in-flight bound the door only admits.
* **Every request is counted once.**  Each ``submit`` past its
  argument checks adds one to ``submitted`` and then exactly one to
  ``completed``, ``shed``, ``deadline_rejected`` (no budget left on
  arrival), ``deadline_expired`` (budget spent after admission) or
  ``failed`` (any other exception, cancellation included), so
  ``submitted`` is always their sum once nothing is in flight.
  ``degraded`` counts the completions that were degraded.  The door
  is the one place a request's fate is recorded; a load driver reads
  :meth:`AsyncFrontDoor.snapshot` instead of keeping its own tally.

The door stores no answers of its own: a degraded request is an
ordinary request to the backend, so the backend's version-stamped
result cache keys it on its full signature like any other.

Degradation never changes *what* a served answer is, only *whether and
how* a request is served: every answer — full fidelity or degraded —
is still the byte-exact ``per_source_rng(seed, source)`` answer for
the (possibly degraded) request that produced it, so the sync path
with the same method and parameters reproduces it bit for bit.

The front door is deliberately loop-agnostic: state lives on the
object, each ``submit`` binds to the loop it runs under, so both a
long-lived service loop and one-shot ``asyncio.run`` callers (the CLI)
work.

>>> server = EngineServer(graph, seed=7)
>>> door = AsyncFrontDoor(server, slo_ms=50.0, deadline_ms=200.0,
...                       degrade_params={"l1_threshold": 1e-4})
>>> async def client(s):
...     try:
...         served = await door.submit(s, "powerpush", l1_threshold=1e-8)
...     except DeadlineExceeded:
...         ...   # budget spent: fail fast, tell the caller
...     except ServerOverloadedError:
...         ...   # shed: retry later
"""

from __future__ import annotations

import asyncio
import functools
import math
import numbers
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, replace
from typing import Any

import numpy as np

from repro.api.registry import get_solver
from repro.errors import (
    DeadlineExceeded,
    ParameterError,
    ServerOverloadedError,
    UnknownMethodError,
)
from repro.serving.flights import ServedResult, ServingTier

__all__ = ["AsyncFrontDoor", "FrontDoorStats"]

#: Completed-latency window the p99 predictor looks at.  Small enough
#: to react within ~a hundred requests of a load shift, large enough
#: that the 99th percentile is not a single sample.
_LATENCY_WINDOW = 128

#: Minimum completed samples before the predictor votes at all —
#: admission control never degrades on startup noise.
_MIN_SAMPLES = 16

#: Under sustained overload every request would degrade and the
#: full-fidelity latency window would go stale; every Nth would-be
#: degraded request is admitted at full fidelity as a probe so the
#: predictor can observe recovery.
_PROBE_EVERY = 16


@dataclass
class FrontDoorStats:
    """Counters over one front-door lifetime (guarded by its mutex);
    ``submitted`` is partitioned as the module docstring says."""

    submitted: int = 0
    completed: int = 0
    degraded: int = 0
    shed: int = 0
    deadline_rejected: int = 0
    deadline_expired: int = 0
    failed: int = 0
    probes: int = 0
    #: submits that met a writer on the backend's lock and took the
    #: executor instead of enqueueing on the loop
    writer_waits: int = 0
    #: Latest p99 prediction (milliseconds); 0.0 until enough samples.
    predicted_p99_ms: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


class AsyncFrontDoor:
    """SLO-aware ``asyncio`` admission tier over a serving backend.

    Parameters
    ----------
    backend:
        The serving tier that actually answers queries — an
        :class:`~repro.serving.server.EngineServer` or a
        :class:`~repro.serving.sharded.ShardedDispatcher`, or anything
        with their ``try_submit`` / ``submit`` / ``apply_updates``.
        The front door never closes it — lifecycles stay with whoever
        constructed the backend (use both as context managers,
        innermost first).
    slo_ms:
        Service-level objective on end-to-end latency, milliseconds.
        ``None`` disables admission control (requests are only subject
        to their deadlines).
    deadline_ms:
        Default per-request budget; individual submits may override.
        ``None`` means best-effort (no deadline) unless the submit
        provides one.
    degrade_params:
        The parameters merged over the caller's when predicted p99
        blows the SLO (the classic use is a looser ``l1_threshold``);
        the method and every other parameter stay the request's own.
        A method that does not accept every degrade parameter has no
        degraded tier, and neither does any method when this is
        ``None``: overload then sheds it outright.
    max_inflight:
        Hard bound on concurrently admitted requests; beyond it every
        arrival is shed.  ``None`` disables the bound.
    """

    def __init__(
        self,
        backend: ServingTier,
        *,
        slo_ms: float | None = None,
        deadline_ms: float | None = None,
        degrade_params: dict[str, Any] | None = None,
        max_inflight: int | None = None,
    ) -> None:
        # ``not x > 0``: a NaN budget is refused, not compared false
        for name, budget in (("slo_ms", slo_ms), ("deadline_ms", deadline_ms)):
            if budget is not None and not budget > 0:
                raise ParameterError(f"{name} must be positive, got {budget}")
        if max_inflight is not None and (
            isinstance(max_inflight, bool)
            or not isinstance(max_inflight, numbers.Integral)
            or max_inflight < 1
        ):
            raise ParameterError(
                f"max_inflight must be an integer >= 1, got {max_inflight!r}"
            )
        self._backend = backend
        self._slo_ms = slo_ms
        self._deadline_ms = deadline_ms
        self._degrade_params = (
            dict(degrade_params) if degrade_params is not None else None
        )
        self._max_inflight = max_inflight
        #: guards counters and the latency window — submit() runs on
        #: the event loop but completions land from backend threads
        #: via the wrapped futures
        self._mutex = threading.Lock()
        self.stats = FrontDoorStats()
        self._inflight = 0
        self._latencies: deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self._degrade_decisions = 0

    # -- properties ------------------------------------------------------
    @property
    def backend(self) -> ServingTier:
        return self._backend

    @property
    def slo_ms(self) -> float | None:
        return self._slo_ms

    @property
    def inflight(self) -> int:
        """Requests admitted but not yet completed/failed."""
        with self._mutex:
            return self._inflight

    # -- read path -------------------------------------------------------
    async def submit(
        self,
        source: int,
        method: str = "powerpush",
        *,
        deadline_ms: float | None = None,
        fresh: bool = False,
        **params: Any,
    ) -> ServedResult:
        """Answer one query under admission control; awaitable.

        Raises :class:`~repro.errors.DeadlineExceeded` when the budget
        is spent (before or during the solve) and
        :class:`~repro.errors.ServerOverloadedError` when the request
        is shed.  A served answer may be *degraded* (solved with
        ``degrade_params`` merged over ``params``) — check
        :attr:`ServedResult.degraded`; it is still byte-identical to
        the sync path for the degraded request.
        """
        if deadline_ms is not None and math.isnan(deadline_ms):
            # (a spent budget, <= 0, is a DeadlineExceeded below)
            raise ParameterError("deadline_ms must be a number, got nan")
        now = time.monotonic()
        budget_ms = deadline_ms if deadline_ms is not None else self._deadline_ms
        deadline = None if budget_ms is None else now + budget_ms / 1e3
        decision = self._admit(deadline, self._degradable(method))
        if decision == "late":
            raise DeadlineExceeded(
                f"request for source {source} arrived with no budget left"
            )
        if decision == "shed":
            raise ServerOverloadedError(
                f"shed request for source {source}: predicted p99 "
                f"{self.stats.predicted_p99_ms:.1f}ms vs SLO "
                f"{self._slo_ms}ms with no degraded tier left"
            )
        degraded = decision == "degrade"
        if degraded:
            params = {**params, **(self._degrade_params or {})}
        outcome = "failed"
        try:
            served = await self._await_backend(
                source,
                method,
                params,
                fresh=fresh,
                deadline=deadline,
            )
            outcome = "completed"
        except DeadlineExceeded:
            # Covers every expiry past admission: backend fail-fast at
            # enqueue, at solve time, and the await outliving the
            # remaining budget.
            outcome = "deadline_expired"
            raise
        finally:
            self._settle(outcome, time.monotonic() - now, degraded)
        if degraded:
            served = replace(served, degraded=True)
        return served

    async def _await_backend(
        self,
        source: int,
        method: str,
        params: dict[str, Any],
        *,
        fresh: bool,
        deadline: float | None,
    ) -> ServedResult:
        """Enqueue on the backend and await the answer, thread-free.

        The enqueue runs on the loop through ``backend.try_submit``,
        which never waits on the backend's read lock.  Only when a
        writer holds or awaits that lock does it return ``None``; then
        the blocking ``submit`` runs in the default executor, so the
        loop never waits on a lock, and the answer is post-update as
        the lock guarantees (counted in ``stats.writer_waits``).  A
        cache hit comes back as the :class:`ServedResult` itself and is
        returned as it comes, without suspending.  A joined flight or a
        miss comes back as a future, awaited via ``wrap_future`` — no
        thread parks on it.
        """
        loop = asyncio.get_running_loop()
        answer = self._backend.try_submit(
            source, method, fresh=fresh, deadline=deadline, **params
        )
        if isinstance(answer, ServedResult):
            return answer
        future = answer
        if future is None:
            with self._mutex:
                self.stats.writer_waits += 1
            enqueue = functools.partial(
                self._backend.submit,
                source,
                method,
                fresh=fresh,
                deadline=deadline,
                **params,
            )
            future = await loop.run_in_executor(None, enqueue)
        wrapped = asyncio.wrap_future(future, loop=loop)
        if deadline is None:
            return await wrapped
        remaining = deadline - time.monotonic()
        try:
            return await asyncio.wait_for(wrapped, max(0.0, remaining))
        except asyncio.TimeoutError:
            future.cancel()
            raise DeadlineExceeded(
                f"deadline passed awaiting answer for source {source}"
            ) from None

    # -- write path / stats / lifecycle ---------------------------------
    async def apply_updates(
        self, updates: list[tuple[str, int, int]]
    ) -> int:
        """Apply edge updates through the backend's exclusive path.

        Runs in the executor — the writer lock waits for in-flight
        reads, and the event loop must stay responsive meanwhile.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, self._backend.apply_updates, list(updates)
        )

    def snapshot(self) -> dict[str, Any]:
        """Front-door counters and the requests in flight."""
        with self._mutex:
            doc = self.stats.as_dict()
            doc["inflight"] = self._inflight
        return doc

    # -- admission control ----------------------------------------------
    def _degradable(self, method: str) -> bool:
        """Whether the door can degrade ``method``: it takes every
        degrade parameter (an unknown method has nothing to degrade to)."""
        if self._slo_ms is None or self._degrade_params is None:
            return False
        try:
            spec = get_solver(method)
        except UnknownMethodError:
            return False
        return all(map(spec.accepts, self._degrade_params))

    def _admit(self, deadline: float | None, degradable: bool) -> str:
        """``"late"`` | ``"shed"`` | ``"full"`` | ``"degrade"`` for one
        arrival, counted; the last two are in flight until
        :meth:`_settle`."""
        with self._mutex:
            self.stats.submitted += 1
            # Fresh clock read: a budget below the clock's resolution is
            # already spent by now.
            if deadline is not None and time.monotonic() >= deadline:
                self.stats.deadline_rejected += 1
                return "late"
            decision = "full"
            if (
                self._max_inflight is not None
                and self._inflight >= self._max_inflight
            ):
                decision = "shed"
            elif self._slo_ms is not None:
                predicted = self._predicted_p99_ms_locked()
                self.stats.predicted_p99_ms = predicted
                # Overloaded: degrade when a cheaper tier exists, sending
                # a periodic probe through at full fidelity so the
                # predictor keeps seeing the tier it predicts; shed
                # outright when there is nothing to degrade to.
                if predicted > self._slo_ms and not degradable:
                    decision = "shed"
                elif predicted > self._slo_ms:
                    self._degrade_decisions += 1
                    if self._degrade_decisions % _PROBE_EVERY:
                        decision = "degrade"
                    else:
                        self.stats.probes += 1
            if decision == "shed":
                self.stats.shed += 1
            else:
                self._inflight += 1
            return decision

    def _predicted_p99_ms_locked(self) -> float:
        if len(self._latencies) < _MIN_SAMPLES:
            return 0.0
        return float(
            np.percentile(np.asarray(self._latencies), 99) * 1e3
        )

    def _settle(self, outcome: str, latency: float, degraded: bool) -> None:
        """Count how an admitted request ended: ``"completed"``,
        ``"deadline_expired"`` or ``"failed"``."""
        with self._mutex:
            self._inflight -= 1
            if outcome == "completed":
                self.stats.completed += 1
                if degraded:
                    self.stats.degraded += 1
                else:
                    # Only full-fidelity completions feed the
                    # predictor: degraded latencies would mask the
                    # overload that forced the degradation.
                    self._latencies.append(latency)
            elif outcome == "deadline_expired":
                self.stats.deadline_expired += 1
            else:
                self.stats.failed += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AsyncFrontDoor(slo_ms={self._slo_ms}, "
            f"deadline_ms={self._deadline_ms}, "
            f"inflight={self.inflight})"
        )
