"""Micro-batching query scheduler: concurrent submits, coalesced solves.

"Accelerating Personalized PageRank Vector Computation" (Chen et al.)
motivates amortising work across many simultaneous sources; this
module is the serving-side half of that idea.  Callers from any thread
``submit(source, method, params)`` and get a
:class:`concurrent.futures.Future` back; a single worker thread
collects everything that arrives within a **micro-batch window**,
groups compatible requests — same canonical method, same merged
parameters — and answers each group with one
:meth:`~repro.api.engine.PPREngine.batch_query` call.  A coalesced
window shares index injection, parameter resolution and the dispatch
itself; whether it is also one multi-source solve is the method's own
declaration — plain Monte-Carlo windows are one vectorised walk
simulation, PowerPush windows are one solve per distinct source (the
fastest measured path; README, "Why PowerPush has no block path").

Identical requests coalesce harder: two submits for the same
``(source, method, params)`` resolve from a *single* solve (opt out
per request with ``fresh=True``, e.g. to draw independent unseeded
Monte-Carlo samples).  Because seeded batches derive per-source RNG
streams (:func:`~repro.api.engine.per_source_rng`), coalescing never
changes an answer: every future resolves to exactly what a sequential
``engine.query`` would have returned.

The scheduler alone does not serialise graph updates against queries —
:class:`~repro.serving.server.EngineServer` composes it with a
readers-writer lock and the versioned result cache for the full
consistency story.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Sequence

from repro.api.engine import PPREngine
from repro.core.result import PPRResult
from repro.core.validation import check_source
from repro.errors import DeadlineExceeded, ParameterError
from repro.serving.cache import resolve_request

__all__ = ["QueryScheduler", "SchedulerStats", "ServedResult"]

#: An executor answers one coalesced group: ``(method, params, sources,
#: cache_keys) -> (results, graph_version, cache_hits)`` where
#: ``cache_hits[i]`` says position ``i`` was served from a result cache
#: rather than solved (the scheduler reports provenance accordingly and
#: only counts an engine call when something was actually solved).
Executor = Callable[
    [str, dict, list, list],
    tuple[Sequence[PPRResult], int, Sequence[bool]],
]


@dataclass(frozen=True)
class ServedResult:
    """One answered request, annotated with its serving provenance.

    Attributes
    ----------
    result:
        The :class:`~repro.core.result.PPRResult` itself.
    version:
        Graph version the answer was computed at.  Under
        :class:`~repro.serving.server.EngineServer` this version was
        current for the whole computation (reads exclude writers).
    cache_hit:
        Whether the answer came from the result cache.
    batch_size:
        How many requests the dispatch that produced this answer
        coalesced (1 for cache hits).
    worker:
        Shard id of the worker process that served the answer under a
        :class:`~repro.serving.sharded.ShardedDispatcher`; ``None``
        when served in-process (thread mode, or the dispatcher's own
        cache: no shard served a hit).
    deadline:
        The ``time.monotonic()`` deadline the request carried, or
        ``None`` for best-effort requests.  Carried through so callers
        (and the async front door) can see the remaining budget an
        answer was produced under.
    degraded:
        Whether admission control served this answer from the degraded
        tier (a cheaper registered solver or a version-valid cached
        lower-precision answer) instead of the requested fidelity.
    """

    result: PPRResult
    version: int
    cache_hit: bool
    batch_size: int
    worker: int | None = None
    deadline: float | None = None
    degraded: bool = False


@dataclass
class SchedulerStats:
    """Counters over one scheduler lifetime (guarded by the queue mutex).

    ``answered`` counts requests resolved by engine solves;
    ``cache_answered`` counts requests the executor served from a
    result cache at dispatch time — kept apart so ``batching_factor``
    measures genuine coalescing, not memoisation.
    """

    submitted: int = 0
    answered: int = 0
    cache_answered: int = 0
    batches: int = 0
    engine_calls: int = 0
    engine_sources: int = 0
    failures: int = 0
    #: requests whose deadline passed while queued — failed fast with
    #: :class:`~repro.errors.DeadlineExceeded`, never given a batch slot
    expired: int = 0
    max_group: int = 0

    @property
    def batching_factor(self) -> float:
        """Solved requests per engine call (1.0 = no coalescing win)."""
        return self.answered / self.engine_calls if self.engine_calls else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "submitted": self.submitted,
            "answered": self.answered,
            "cache_answered": self.cache_answered,
            "batches": self.batches,
            "engine_calls": self.engine_calls,
            "engine_sources": self.engine_sources,
            "failures": self.failures,
            "expired": self.expired,
            "max_group": self.max_group,
            "batching_factor": self.batching_factor,
        }


@dataclass
class _Pending:
    source: int
    method: str  # canonical method name
    params: dict[str, Any]  # merged (alias-implied folded in)
    group_key: Any  # hashable grouping token
    cache_key: tuple | None
    fresh: bool
    deadline: float | None = None  # time.monotonic() expiry, if any
    future: Future = field(default_factory=Future)


def _freeze(params: Mapping[str, Any]) -> tuple | None:
    """Hashable view of ``params`` for grouping, or ``None`` if not."""
    try:
        frozen = tuple(sorted(params.items()))
        hash(frozen)  # unhashable values (rng, trace, ...) opt out
        return frozen
    except TypeError:
        return None


class QueryScheduler:
    """Coalesce concurrent query submissions into batched engine calls.

    Parameters
    ----------
    engine:
        The engine the default executor answers through.
    window:
        Micro-batch window in seconds: after the first request of a
        round arrives, the worker waits this long for company before
        dispatching.  ``0`` dispatches whatever is queued immediately.
    max_batch:
        Cap on requests taken per dispatch round (back-pressure bound).
    executor:
        Override how a coalesced group is answered — the
        :class:`~repro.serving.server.EngineServer` injects a
        lock-and-cache-aware one.  Default: ``engine.batch_query`` and
        the engine's current graph version.
    start:
        ``False`` leaves the worker thread unstarted; tests then drive
        dispatch deterministically with :meth:`run_pending`.
    """

    def __init__(
        self,
        engine: PPREngine,
        *,
        window: float = 0.002,
        max_batch: int = 64,
        executor: Executor | None = None,
        start: bool = True,
    ) -> None:
        if window < 0:
            raise ParameterError(f"window must be >= 0, got {window}")
        if max_batch < 1:
            raise ParameterError(f"max_batch must be >= 1, got {max_batch}")
        self._engine = engine
        self._window = float(window)
        self._max_batch = int(max_batch)
        self._execute: Executor = executor or self._default_executor
        self._queue: list[_Pending] = []
        self._cond = threading.Condition()
        self._closed = False
        self.stats = SchedulerStats()
        self._worker: threading.Thread | None = None
        if start:
            self._worker = threading.Thread(
                target=self._run, name="repro-query-scheduler", daemon=True
            )
            self._worker.start()

    # -- submission ------------------------------------------------------
    def submit(
        self,
        source: int,
        method: str = "powerpush",
        params: Mapping[str, Any] | None = None,
        *,
        fresh: bool = False,
        deadline: float | None = None,
        cache_key: tuple | None = None,
        _resolved: tuple[str, dict[str, Any]] | None = None,
    ) -> Future:
        """Enqueue one query; returns a future of :class:`ServedResult`.

        Validates the method name, the parameter schema, and the source
        id synchronously, so typos raise here instead of poisoning a
        worker batch.  ``fresh=True`` exempts the request from
        same-request coalescing (and, under the server, from the result
        cache).  ``deadline`` is a ``time.monotonic()`` timestamp: a
        request already expired raises
        :class:`~repro.errors.DeadlineExceeded` here, and one that
        expires while queued is failed at dispatch time instead of
        occupying a batch slot.  ``_resolved=(canonical, merged)`` is
        the server's fast path: it already resolved the request once
        via :func:`~repro.serving.cache.resolve_request` (together
        with ``cache_key``), so resolution and validation are not
        repeated.
        """
        source = int(source)
        if deadline is not None and time.monotonic() >= deadline:
            raise DeadlineExceeded(
                f"deadline passed before submit of source {source}"
            )
        if _resolved is not None:
            canonical, merged = _resolved
        else:
            canonical, merged, key = resolve_request(
                source, method, dict(params or {})
            )
            cache_key = None if fresh else key
        check_source(self._engine.graph, source)
        frozen = _freeze(merged)
        # Unhashable parameters (rng, trace, prebuilt index) cannot be
        # compared for compatibility; such requests dispatch alone.
        group_key = (canonical, frozen) if frozen is not None else object()
        pending = _Pending(
            source=source,
            method=canonical,
            params=merged,
            group_key=group_key,
            cache_key=cache_key,
            fresh=fresh,
            deadline=deadline,
        )
        with self._cond:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            self._queue.append(pending)
            self.stats.submitted += 1
            self._cond.notify_all()
        return pending.future

    # -- dispatch --------------------------------------------------------
    def _default_executor(
        self,
        method: str,
        params: dict,
        sources: list,
        keys: list,
    ) -> tuple[Sequence[PPRResult], int, Sequence[bool]]:
        version = self._engine.graph_version
        results = self._engine.batch_query(sources, method, **params)
        return results, version, [False] * len(sources)

    @staticmethod
    def _resolve(future: Future, served: ServedResult) -> None:
        """Deliver a result unless the client already cancelled."""
        if future.set_running_or_notify_cancel():
            future.set_result(served)

    @staticmethod
    def _stamp(served: ServedResult, pending: _Pending) -> ServedResult:
        """Carry the request's deadline onto its (possibly shared) answer."""
        if pending.deadline is None:
            return served
        return replace(served, deadline=pending.deadline)

    @staticmethod
    def _fail(future: Future, exc: BaseException) -> None:
        """Deliver an exception; tolerate cancelled/already-settled."""
        try:
            if future.set_running_or_notify_cancel():
                future.set_exception(exc)
        except Exception:  # repro: allow[lock-discipline] -- best-effort error delivery: the future was already settled by a racing cancel, so the client has its outcome and there is nothing left to notify
            pass

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if self._closed and not self._queue:
                    return
                # Let the micro-batch fill; latency cost is bounded by
                # the window, throughput win is the coalescing below.
                # The wait is a Condition.wait with a deadline, not a
                # sleep: it wakes immediately when close() is called or
                # when the queue fills to a whole dispatch round (more
                # waiting could add no company, only cap backlogged
                # throughput at max_batch/window), and it never
                # outlives the earliest per-request deadline in the
                # queue — an expiring request is dispatched (and failed
                # fast) at its deadline, not a full window later.
                if self._window > 0.0:
                    round_start = time.monotonic()
                    while (
                        not self._closed
                        and len(self._queue) < self._max_batch
                    ):
                        # Re-read the window each pass: set_window()
                        # notifies, and a shrunken window applies to
                        # the round already in flight.
                        wake = round_start + self._window
                        for pending in self._queue:
                            if pending.deadline is not None:
                                wake = min(wake, pending.deadline)
                        remaining = wake - time.monotonic()
                        if remaining <= 0.0:
                            break
                        self._cond.wait(remaining)
                batch = self._queue[: self._max_batch]
                del self._queue[: len(batch)]
            if batch:
                try:
                    self._dispatch(batch)
                except Exception as exc:  # noqa: BLE001 - worker must live
                    # A dispatch bug (or a client-cancelled future) must
                    # never kill the worker thread: fail the batch's
                    # futures and keep serving.
                    with self._cond:
                        self.stats.failures += len(batch)
                    for pending in batch:
                        self._fail(pending.future, exc)

    def run_pending(self) -> int:
        """Dispatch everything currently queued, in the calling thread.

        Deterministic alternative to the worker thread (``start=False``)
        used by tests; returns the number of requests answered.
        """
        if self._worker is not None:
            raise RuntimeError(
                "run_pending is for schedulers constructed with start=False"
            )
        answered = 0
        while True:
            with self._cond:
                batch = self._queue[: self._max_batch]
                del self._queue[: len(batch)]
            if not batch:
                return answered
            self._dispatch(batch)
            answered += len(batch)

    def _dispatch(self, batch: list[_Pending]) -> None:
        # Expired requests fail fast with a typed error instead of
        # occupying a batch slot: they cannot be answered in time, so
        # solving them would only delay every live groupmate.
        now = time.monotonic()
        live: list[_Pending] = []
        expired: list[_Pending] = []
        for pending in batch:
            if pending.deadline is not None and now >= pending.deadline:
                expired.append(pending)
            else:
                live.append(pending)
        if expired:
            with self._cond:
                self.stats.expired += len(expired)
            for pending in expired:
                self._fail(
                    pending.future,
                    DeadlineExceeded(
                        f"deadline passed while queued "
                        f"(source {pending.source})"
                    ),
                )
        if not live:
            return
        with self._cond:
            self.stats.batches += 1
        groups: dict[Any, list[_Pending]] = {}
        for pending in live:
            groups.setdefault(pending.group_key, []).append(pending)
        for group in groups.values():  # dict preserves insertion order
            self._dispatch_group(group)

    def _dispatch_group(self, group: list[_Pending]) -> None:
        """Answer one compatible group with a single ``batch_query``."""
        # One engine slot per distinct request; identical requests
        # (same cache key, not fresh) share a slot and hence a solve.
        slots: list[list[_Pending]] = []
        slot_of: dict[tuple, int] = {}
        for pending in group:
            if pending.cache_key is not None and not pending.fresh:
                index = slot_of.get(pending.cache_key)
                if index is not None:
                    slots[index].append(pending)
                    continue
                slot_of[pending.cache_key] = len(slots)
            slots.append([pending])
        sources = [slot[0].source for slot in slots]
        keys = [slot[0].cache_key for slot in slots]
        first = group[0]
        try:
            results, version, hits = self._execute(
                first.method, dict(first.params), sources, keys
            )
        except Exception:
            self._retry_individually(slots)
            return
        solved = sum(
            len(slot) for slot, hit in zip(slots, hits) if not hit
        )
        cached = len(group) - solved
        with self._cond:
            if solved:
                self.stats.engine_calls += 1
                self.stats.engine_sources += sum(
                    1 for hit in hits if not hit
                )
                self.stats.answered += solved
                self.stats.max_group = max(self.stats.max_group, solved)
            self.stats.cache_answered += cached
        for slot, result, hit in zip(slots, results, hits):
            served = ServedResult(
                result=result,
                version=version,
                cache_hit=bool(hit),
                batch_size=1 if hit else solved,
            )
            for pending in slot:
                self._resolve(pending.future, self._stamp(served, pending))

    def _retry_individually(  # repro: allow[retry-discipline] -- one-shot de-batching fallback: each slot is re-executed exactly once, in-process, with errors forwarded to the future
        self, slots: list[list[_Pending]]
    ) -> None:
        """Batch failed: answer each slot alone so one bad request
        cannot poison its groupmates."""
        for slot in slots:
            head = slot[0]
            try:
                results, version, hits = self._execute(
                    head.method,
                    dict(head.params),
                    [head.source],
                    [head.cache_key],
                )
            except Exception as exc:  # noqa: BLE001 - forwarded to caller
                with self._cond:
                    self.stats.failures += len(slot)
                for pending in slot:
                    self._fail(pending.future, exc)
                continue
            hit = bool(hits[0])
            with self._cond:
                if hit:
                    self.stats.cache_answered += len(slot)
                else:
                    self.stats.engine_calls += 1
                    self.stats.engine_sources += 1
                    self.stats.answered += len(slot)
            served = ServedResult(
                result=results[0],
                version=version,
                cache_hit=hit,
                batch_size=1 if hit else len(slot),
            )
            for pending in slot:
                self._resolve(pending.future, self._stamp(served, pending))

    # -- adaptive window -------------------------------------------------
    @property
    def window(self) -> float:
        """Current micro-batch window in seconds."""
        with self._cond:
            return self._window

    def set_window(self, window: float) -> None:
        """Resize the micro-batch window (thread-safe, immediate: a
        worker mid-wait re-reads the window when notified, so a shrink
        applies to the round already in flight).

        The async front door calls this with a window derived from the
        observed arrival rate (EWMA), so the batch fill adapts to load
        instead of charging a fixed latency tax at low traffic.
        """
        if window < 0:
            raise ParameterError(f"window must be >= 0, got {window}")
        with self._cond:
            self._window = float(window)
            self._cond.notify_all()

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Drain the queue, stop the worker, reject new submissions."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        if self._worker is not None:
            self._worker.join()
            self._worker = None
        else:
            # Manual mode: drain synchronously so no future is left
            # forever pending.
            while True:
                with self._cond:
                    batch = self._queue[: self._max_batch]
                    del self._queue[: len(batch)]
                if not batch:
                    break
                self._dispatch(batch)

    def __enter__(self) -> "QueryScheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (submissions are rejected)."""
        with self._cond:
            return self._closed

    @property
    def pending(self) -> int:
        """Requests queued but not yet taken by a dispatch round."""
        with self._cond:
            return len(self._queue)
