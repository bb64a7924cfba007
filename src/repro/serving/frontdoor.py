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
  runs on the loop (``hit`` and ``try_submit`` never wait for a
  writer).  A cache hit is asked for first and comes back as the
  answer itself, counted in one section of the door's mutex and
  returned without awaiting anything: no admission, no second
  coroutine, no loop lookup.  Only a join or a miss (a future) and a
  request that meets a writer on the backend's lock (handed to the
  default executor to wait there) go on to be awaited.
* Every request carries a **deadline**.  A spent budget fails fast
  with :class:`~repro.errors.DeadlineExceeded` — at admission, when
  the backend reaches a request whose deadline has passed (it is
  failed instead of solved), or while awaiting the solve.
* **Admission control** watches the p99 of recently completed
  full-fidelity requests, recomputed only when a completion has
  changed that window, from a copy of the window kept sorted: two
  reads and NumPy's ``linear`` interpolation, the bits of
  ``np.percentile(window, 99)``.  When that prediction blows the SLO the
  front door *degrades* — re-issues the request with the degrade
  parameters (e.g. a looser ``l1_threshold``) merged over its own —
  and when that cannot help (the method does not take every degrade
  parameter, or the in-flight bound is hit) it *sheds* with
  :class:`~repro.errors.ServerOverloadedError`.  Shedding protects
  the answered requests' tail: an open-loop overload run keeps
  bounded p99 for everything it admits.  With no SLO, no default
  deadline and no in-flight bound the door only admits.  A cache hit
  is never shed or degraded: it takes no solver capacity, which is
  what admission protects, and its full-fidelity latency feeds the
  predictor like any other.
* **Every request is counted once.**  Each ``submit`` past its
  argument checks adds one to ``submitted`` and then exactly one to
  ``completed``, ``shed``, ``deadline_rejected`` (no budget left on
  arrival), ``deadline_expired`` (budget spent after admission) or
  ``failed`` (any other exception, cancellation included), so
  ``submitted`` is always their sum once nothing is in flight (a
  cache hit adds to ``submitted`` and ``completed`` together).
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
from bisect import bisect_left, insort
from collections import deque
from collections.abc import Mapping
from concurrent.futures import Future
from dataclasses import asdict, dataclass, replace
from typing import Any

from repro.api.registry import get_solver
from repro.core.validation import check_real
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
        with their ``hit`` / ``try_submit`` / ``submit`` /
        ``apply_updates``.
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
        for name, budget in (("slo_ms", slo_ms), ("deadline_ms", deadline_ms)):
            if budget is not None and not check_real(budget, name) > 0:
                raise ParameterError(f"{name} must be positive, got {budget}")
        if degrade_params is not None and (
            not isinstance(degrade_params, Mapping)
            or not all(isinstance(name, str) for name in degrade_params)
        ):
            raise ParameterError(
                "degrade_params must map parameter names to values, got "
                f"{degrade_params!r}"
            )
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
        #: the same latencies in ascending order
        self._ordered_latencies: list[float] = []
        #: whether ``_latencies`` changed since ``predicted_p99_ms``
        #: was computed from it
        self._window_changed = False
        self._degrade_decisions = 0
        #: method spelling -> whether it takes every degrade parameter
        #: (a registered method stays registered)
        self._degradable_methods: dict[str, bool] = {}

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
        """Answer one query: a cache hit at once, anything else under
        admission control; awaitable.

        A spent budget is rejected first.  Then the backend is asked
        for a cached answer (:meth:`ServingTier.hit`, never for
        ``fresh=True``): a hit is served as it is, never shed and never
        degraded — admission control protects solver capacity, a hit
        uses none, and a cached full-fidelity answer beats a degraded
        re-solve.  Only a join or a miss goes through admission.

        Raises :class:`~repro.errors.DeadlineExceeded` when the budget
        is spent (before or during the solve) and
        :class:`~repro.errors.ServerOverloadedError` when the request
        is shed.  A served answer may be *degraded* (solved with
        ``degrade_params`` merged over ``params``) — check
        :attr:`ServedResult.degraded`; it is still byte-identical to
        the sync path for the degraded request.
        """
        budget_ms = self._deadline_ms
        if deadline_ms is not None:
            # (a spent budget, <= 0, is a DeadlineExceeded below)
            budget_ms = check_real(deadline_ms, "deadline_ms")
        now: float | None = None
        deadline: float | None = None
        if budget_ms is not None or self._slo_ms is not None:
            now = time.monotonic()
            if budget_ms is not None:
                deadline = now + budget_ms / 1e3
                # Fresh clock read: a budget below the clock's
                # resolution is already spent by now.
                if time.monotonic() >= deadline:
                    self._count_unadmitted(late=True)
                    raise DeadlineExceeded(
                        f"request for source {source} arrived with no "
                        "budget left"
                    )
        if not fresh:
            try:
                hit = self._backend.hit(
                    source, method, deadline=deadline, **params
                )
            except DeadlineExceeded:
                self._count_unadmitted(late=True)
                raise
            except BaseException:
                self._count_unadmitted(late=False)
                raise
            if hit is not None:
                with self._mutex:
                    self.stats.submitted += 1
                    self.stats.completed += 1
                    if now is not None and self._slo_ms is not None:
                        self._record_latency_locked(time.monotonic() - now)
                        # No admission follows to predict from it.
                        self._refresh_prediction_locked()
                return hit
        decision = self._admit(self._degradable(method))
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
            served = self._backend.try_submit(
                source, method, fresh=fresh, deadline=deadline, **params
            )
            # A hit is the answer itself: nothing to await.
            if not isinstance(served, ServedResult):
                served = await self._await_backend(
                    served, source, method, params, fresh=fresh, deadline=deadline
                )
            outcome = "completed"
        except DeadlineExceeded:
            # Covers every expiry past admission: backend fail-fast at
            # enqueue, at solve time, and the await outliving the
            # remaining budget.
            outcome = "deadline_expired"
            raise
        finally:
            self._settle(
                outcome,
                None if now is None else time.monotonic() - now,
                degraded,
            )
        if degraded:
            served = replace(served, degraded=True)
        return served

    async def _await_backend(
        self,
        future: Future | None,
        source: int,
        method: str,
        params: dict[str, Any],
        *,
        fresh: bool,
        deadline: float | None,
    ) -> ServedResult:
        """Await what ``backend.try_submit`` returned other than a hit,
        thread-free.

        ``try_submit`` never waits for a writer.  Only when a writer
        holds or awaits the backend's lock does it return ``None``;
        then the blocking ``submit`` runs in the default executor, so
        the loop never waits on a lock, and the answer is post-update
        as the lock guarantees (counted in ``stats.writer_waits``).  A
        joined flight or a miss is a future, awaited via
        ``wrap_future`` — no thread parks on it.
        """
        loop = asyncio.get_running_loop()
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
        degradable = self._degradable_methods.get(method)
        if degradable is None:
            try:
                spec = get_solver(method)
            except UnknownMethodError:
                return False  # not remembered: it may be registered later
            degradable = all(map(spec.accepts, self._degrade_params))
            self._degradable_methods[method] = degradable
        return degradable

    def _count_unadmitted(self, late: bool) -> None:
        """Count an arrival that ended before admission: with no budget
        left (``late``), or failed by the backend's checks."""
        with self._mutex:
            self.stats.submitted += 1
            if late:
                self.stats.deadline_rejected += 1
            else:
                self.stats.failed += 1

    def _admit(self, degradable: bool) -> str:
        """``"shed"`` | ``"full"`` | ``"degrade"`` for one arrival that
        was not a hit, counted; the last two are in flight until
        :meth:`_settle`."""
        with self._mutex:
            self.stats.submitted += 1
            decision = "full"
            if (
                self._max_inflight is not None
                and self._inflight >= self._max_inflight
            ):
                decision = "shed"
            elif self._slo_ms is not None:
                self._refresh_prediction_locked()
                predicted = self.stats.predicted_p99_ms
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

    def _record_latency_locked(self, latency: float) -> None:
        """Add a full-fidelity completion's latency to the window."""
        if len(self._latencies) == _LATENCY_WINDOW:
            # The append below drops the oldest latency.
            ordered = self._ordered_latencies
            del ordered[bisect_left(ordered, self._latencies[0])]
        self._latencies.append(latency)
        insort(self._ordered_latencies, latency)
        self._window_changed = True

    def _refresh_prediction_locked(self) -> None:
        """Recompute ``predicted_p99_ms`` if the window changed."""
        if self._window_changed:
            self._window_changed = False
            self.stats.predicted_p99_ms = self._predicted_p99_ms_locked()

    def _predicted_p99_ms_locked(self) -> float:
        if len(self._latencies) < _MIN_SAMPLES:
            return 0.0
        return _p99(self._ordered_latencies) * 1e3

    def _settle(
        self, outcome: str, latency: float | None, degraded: bool
    ) -> None:
        """Count how an admitted request ended: ``"completed"``,
        ``"deadline_expired"`` or ``"failed"``; ``latency`` is ``None``
        only without an SLO."""
        with self._mutex:
            self._inflight -= 1
            if outcome == "completed":
                self.stats.completed += 1
                if degraded:
                    self.stats.degraded += 1
                elif self._slo_ms is not None:
                    # Only full-fidelity completions feed the
                    # predictor: degraded latencies would mask the
                    # overload that forced the degradation.  Without
                    # an SLO nothing reads it.
                    assert latency is not None
                    self._record_latency_locked(latency)
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


def _p99(ordered: list[float]) -> float:
    """``np.percentile(ordered, 99)`` of an ascending list of two or more
    values, bit for bit: NumPy's default ``linear`` method reads the two
    values around index ``(n - 1) * 0.99`` and interpolates from the
    nearer one."""
    index = (len(ordered) - 1) * 0.99
    below = math.floor(index)
    gamma = index - below
    low, high = ordered[below], ordered[below + 1]
    step = high - low
    if gamma >= 0.5:
        return high - step * (1 - gamma)
    return low + step * gamma
