"""The read side both serving tiers share: cache, flights and admit.

:class:`~repro.serving.server.EngineServer` (threads) and
:class:`~repro.serving.sharded.ShardedDispatcher` (processes) differ
only in *where* a miss is solved — the server's one worker thread, or
a shard process.  Every answer is a pure function of ``(seed,
source)``, so that choice cannot change what is answered, and
everything else about a read is written once, here:
:class:`ServingTier` holds ``submit`` / ``try_submit`` / ``query`` /
``batch``, the one admit body behind them, and the lock, mutex, flight
table and counters it works on.  A tier subclass says where its graph
version lives (:meth:`ServingTier._read_version`) and what a led flight
does (:meth:`ServingTier._send`).

Everything a caller can observe about duplicates and repeats is
decided by one :class:`FlightTable` per tier, asked under the tier's
mutex at the graph version its read section pins:

* **hit** — the answer is in the version-stamped
  :class:`~repro.serving.cache.ResultCache` at this version: the
  caller gets the :class:`ServedResult` itself, and no future is
  built;
* **join** — the same request is already being solved at this version
  (a *flight*): the caller's future rides along and gets exactly what
  the flight's leader gets, answer or exception.  Only a flight whose
  deadline is ``None`` or not earlier than the caller's may carry it —
  a tier drops a flight whose leader's deadline has passed;
* **lead** — otherwise the request becomes a new flight, which the tier
  solves and then *lands* here: the flight ends, and its answer enters
  the cache only if the graph is still at the version it was computed
  at, so a duplicate arriving meanwhile finds the flight or the entry,
  never neither, and never a pre-update vector.

A request without a cache key — ``fresh=True``, or parameters that are
live objects — never hits, never joins and is never joined.  Every
caller that joins or leads holds a future of its own, so a cancel
drops one caller and never the solve others wait on.  Futures are
settled by :func:`settle` / :func:`fail` after the owner's mutex is
released: their done-callbacks are the caller's code.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Iterable, TypeVar

from repro.core.result import PPRResult
from repro.core.validation import check_node_id
from repro.errors import DeadlineExceeded, ParameterError
from repro.serving.cache import ResultCache, freeze_result, resolve_request
from repro.serving.locks import RWLock

__all__ = [
    "Flight",
    "FlightTable",
    "ServedResult",
    "ServingTier",
    "fail",
    "settle",
]


@dataclass(frozen=True)
class ServedResult:
    """One answered request, annotated with its serving provenance.

    Attributes
    ----------
    result:
        The :class:`~repro.core.result.PPRResult` itself.
    version:
        Graph version the answer was computed at.
    cache_hit:
        Whether the answer came from the result cache.
    worker:
        Shard id of the worker process that served the answer under a
        :class:`~repro.serving.sharded.ShardedDispatcher`; ``None``
        when served in-process (thread mode, or the dispatcher's own
        cache: no shard served a hit).
    deadline:
        The ``time.monotonic()`` deadline of the request that was
        solved — for a caller that joined a flight, its leader's, which
        is never earlier than the caller's own — or ``None`` for
        best-effort requests.  Carried through so callers (and the
        async front door) can see the budget an answer was produced
        under.
    degraded:
        Whether admission control served this answer from the degraded
        tier — the request with the front door's ``degrade_params``
        merged over its own — instead of the requested fidelity.
    """

    result: PPRResult
    version: int
    cache_hit: bool
    worker: int | None = None
    deadline: float | None = None
    degraded: bool = False


@dataclass(eq=False)
class Flight:
    """One request on its way to be solved, and everyone waiting on it."""

    #: the caller this was sent for, then each caller that joined
    waiters: list[Future]
    source: int
    #: canonical method name, with the parameters it implies in ``params``
    method: str
    params: dict[str, Any]
    deadline: float | None = None
    #: ``(cache key, version at submit)`` of a cacheable read: where its
    #: answer is cached and, while it is open, what a duplicate joins
    key: tuple[tuple, int] | None = None


class FlightTable:
    """One tier's result cache and its open flights.

    Not thread-safe on purpose: every method runs under the owning
    tier's mutex, next to whatever else that mutex guards.
    ``cache_capacity=0`` disables the cache; flights stay.
    """

    def __init__(self, cache_capacity: int) -> None:
        if cache_capacity < 0:
            raise ParameterError(
                f"cache_capacity must be >= 0, got {cache_capacity}"
            )
        self.cache = ResultCache(cache_capacity) if cache_capacity else None
        self._open: dict[tuple[tuple, int], Flight] = {}
        self.led = 0
        self.joined = 0

    def __len__(self) -> int:
        """Flights open to joiners."""
        return len(self._open)

    def hit(
        self, key: tuple | None, version: int, deadline: float | None
    ) -> ServedResult | None:
        """The cached answer at ``version``, or ``None``.

        The one cache lookup a request makes; on ``None`` the caller
        joins a flight (:meth:`join`) or leads one (:meth:`lead`).
        """
        if key is None or self.cache is None:
            return None
        result = self.cache.get(key, version)
        if result is None:
            return None
        return ServedResult(
            result=result, version=version, cache_hit=True, deadline=deadline
        )

    def join(
        self,
        key: tuple | None,
        version: int,
        future: Future,
        deadline: float | None,
    ) -> bool:
        """Attach ``future`` to the open flight for ``key`` at ``version``.

        ``False`` when there is none that can carry it: the caller then
        leads a flight of its own (:meth:`lead`).
        """
        if key is None:
            return False
        flight = self._open.get((key, version))
        if flight is None or (
            flight.deadline is not None
            and (deadline is None or flight.deadline < deadline)
        ):
            return False
        flight.waiters.append(future)
        self.joined += 1
        return True

    def lead(self, flight: Flight, key: tuple | None, version: int) -> None:
        """Count ``flight`` and, when it has a key, open it to joiners.

        A flight already open for the key stays the one joined (this
        one could not be carried by it, so it flies alone).
        """
        self.led += 1
        if key is not None:
            flight.key = (key, version)
            self._open.setdefault(flight.key, flight)

    def land(
        self,
        flight: Flight,
        answer: ServedResult | None = None,
        current: int | None = None,
    ) -> list[Future]:
        """End ``flight``; return everyone waiting on it.

        ``answer`` enters the cache when it was computed at the
        ``current`` graph version; an answer that outlived its version
        is only delivered.
        """
        key = flight.key
        if key is not None:
            if self._open.get(key) is flight:
                del self._open[key]
            if (
                answer is not None
                and self.cache is not None
                and answer.version == current
            ):
                self.cache.put(key[0], answer.result, answer.version)
        return flight.waiters

    def stats(self) -> dict[str, int]:
        return {"led": self.led, "joined": self.joined}


_Tier = TypeVar("_Tier", bound="ServingTier")


class ServingTier(ABC):
    """The read side of a serving tier, written once for both.

    A subclass sets ``_num_nodes`` (what a source is checked against)
    and ``_defaults`` (the engine-level parameters folded into every
    request, so spelling out ``alpha=engine.alpha`` keys — and flies —
    identically to omitting it), and says where its version lives
    (:meth:`_read_version`) and what a led flight does (:meth:`_send`).
    """

    #: the flight class a led request is recorded as
    _Flight: ClassVar[type[Flight]] = Flight
    #: refuse parameters without a cache key: live objects (``rng``,
    #: trace sinks, indexes) that cannot reach where misses are solved
    _SCALAR_PARAMS_ONLY: ClassVar[bool] = False
    #: called with each admitted request's submit count, after the read
    #: section; ``None``: nothing to call
    _after_admit: Callable[[int], None] | None = None
    #: the DurabilityManager a ``wal_dir`` opened; ``None``: volatile
    _durability: Any = None
    _num_nodes: int
    _defaults: dict[str, Any]

    def __init__(self, cache_capacity: int) -> None:
        # First, so a rejected size rejects the tier before it
        # touches anything (a WAL directory among them).
        self._flight_table = FlightTable(cache_capacity)
        self._rwlock = RWLock()
        #: guards the flight table, ``_submitted``, ``_closed`` and
        #: whatever else the tier puts under it
        self._mutex = threading.Lock()
        self._submitted = 0
        self._closed = False

    @abstractmethod
    def _read_version(self) -> int:
        """The graph version answers are stamped at now; under
        ``_mutex``.  Only a writer moves it, so a read section pins it."""

    @abstractmethod
    def _send(self, flight: Flight) -> Callable[[], object] | None:
        """Hand a new flight to whatever solves it, under ``_mutex``.

        Runs before the flight is opened to joiners, so raising leaves
        no trace.  What it returns is called once the mutex is
        released, still inside the read section.
        """

    @abstractmethod
    def apply_updates(self, updates: Iterable[tuple[str, int, int]]) -> int:
        """Apply edge updates exclusively; returns the new version."""

    @abstractmethod
    def close(self) -> None:
        """Stop serving; idempotent."""

    @property
    def cache(self) -> ResultCache | None:
        return self._flight_table.cache

    @property
    def durability(self) -> Any | None:
        """The DurabilityManager updates are logged to, or ``None``."""
        return self._durability

    @property
    def graph_version(self) -> int:
        """The graph version reads are answered at now."""
        with self._mutex:
            return self._read_version()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (submissions are rejected)."""
        with self._mutex:
            return self._closed

    # -- read path -------------------------------------------------------
    def submit(
        self,
        source: int,
        method: str = "powerpush",
        *,
        fresh: bool = False,
        deadline: float | None = None,
        **params: Any,
    ) -> Future:
        """Answer one query from the cache, a flight or a new solve.

        Returns a future of :class:`ServedResult`.  An answer cached at
        the current graph version comes back in a done future
        (``cache_hit=True``, ``worker=None``); a request whose key is
        already in flight at this version joins that flight and gets
        exactly what its leader does (answer or exception), if the
        flight's deadline is ``None`` or not earlier than its own;
        anything else leads a flight the tier solves.  ``fresh=True``
        bypasses cache and flights for this request — use it to draw
        independent samples from unseeded stochastic methods, whose
        answers are otherwise memoised by request signature.  Every
        answer's ``estimate`` / ``residue`` are **read-only** arrays:
        cached answers and joined flights hand one object to many
        callers, so a write raises instead of corrupting theirs.

        The source, the method and its parameters are validated here,
        so typos raise at the call site, not where the miss is solved.
        ``deadline`` is a ``time.monotonic()`` timestamp: an
        already-expired request raises
        :class:`~repro.errors.DeadlineExceeded` here, and one that
        expires before its solve starts is failed with it then.
        """
        answer = self._admit(
            source, method, params, fresh=fresh, deadline=deadline, wait=True
        )
        if isinstance(answer, Future):
            return answer
        future: Future = Future()
        future.set_result(answer)
        return future

    def try_submit(
        self,
        source: int,
        method: str = "powerpush",
        *,
        fresh: bool = False,
        deadline: float | None = None,
        **params: Any,
    ) -> ServedResult | Future | None:
        """:meth:`submit` that never waits on the read lock.

        ``None`` when a writer holds the lock or waits for it — nothing
        was admitted, and :meth:`submit` (which waits) is the retry.
        A cache hit is the :class:`ServedResult` itself, with no future
        built; a join or a miss is the future :meth:`submit` returns.
        """
        return self._admit(
            source, method, params, fresh=fresh, deadline=deadline, wait=False
        )

    def _admit(
        self,
        source: int,
        method: str,
        params: dict[str, Any],
        *,
        fresh: bool,
        deadline: float | None,
        wait: bool,
    ) -> ServedResult | Future | None:
        """The one admit body behind :meth:`submit` and :meth:`try_submit`."""
        source = check_node_id(source, self._num_nodes)
        if deadline is not None and time.monotonic() >= deadline:
            raise DeadlineExceeded(
                f"deadline passed before submit of source {source}"
            )
        canonical, merged, key = resolve_request(
            source, method, params, defaults=self._defaults
        )
        if key is None and params and self._SCALAR_PARAMS_ONLY:
            raise ParameterError(
                f"{type(self).__name__} requires scalar parameters; live "
                "objects (rng, trace, indexes) cannot cross the process "
                "boundary"
            )
        if fresh:
            key = None
        post: Callable[[], object] | None = None
        # The read section pins the version a hit is checked against
        # and a miss is sent at.
        if not self._rwlock.try_acquire_read():
            if not wait:
                return None
            self._rwlock.acquire_read()
        try:
            with self._mutex:
                if self._closed:
                    raise RuntimeError(f"{type(self).__name__} is closed")
                self._submitted += 1
                submitted = self._submitted
                version = self._read_version()
                answer: ServedResult | Future | None = self._flight_table.hit(
                    key, version, deadline
                )
                if answer is None:
                    future: Future = Future()
                    if not self._flight_table.join(
                        key, version, future, deadline
                    ):
                        # ``merged``, not the caller's raw params: the
                        # solver is sent the canonical method name, so
                        # the overrides an alias implies (``fora+`` =>
                        # ``use_index=True``) must travel with it.
                        flight = self._Flight(
                            [future], source, canonical, merged, deadline
                        )
                        post = self._send(flight)
                        self._flight_table.lead(flight, key, version)
                    answer = future
            if post is not None:
                post()
        finally:
            self._rwlock.release_read()
        if self._after_admit is not None:
            self._after_admit(submitted)
        return answer

    def query(
        self,
        source: int,
        method: str = "powerpush",
        *,
        fresh: bool = False,
        timeout: float | None = None,
        **params: Any,
    ) -> ServedResult:
        """Blocking convenience: ``submit(...).result(timeout)``."""
        return self.submit(source, method, fresh=fresh, **params).result(
            timeout
        )

    def batch(
        self,
        sources: Iterable[int],
        method: str = "powerpush",
        **params: Any,
    ) -> list[ServedResult]:
        """Submit many queries and wait for all, in source order."""
        futures = [self.submit(s, method, **params) for s in sources]
        return [f.result() for f in futures]

    def _fail(self, flight: Flight, exc: BaseException) -> None:
        """Land ``flight`` with ``exc`` for all its waiters."""
        with self._mutex:
            waiters = self._flight_table.land(flight)
        fail(waiters, exc)

    def _stats_head(self) -> dict[str, Any]:
        """The ``stats()`` keys both tiers report; under ``_mutex``."""
        cache = self._flight_table.cache
        return {
            "requests": self._submitted,
            "graph_version": self._read_version(),
            "flights": self._flight_table.stats(),
            "cache": cache.stats.as_dict() if cache is not None else {},
        }

    def __enter__(self: _Tier) -> _Tier:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def settle(waiters: list[Future], served: ServedResult) -> None:
    """Deliver ``served`` to every waiter that has not cancelled.

    They all get one object — the one later hits get — so its vectors
    are read-only from here on.
    """
    freeze_result(served.result)
    for future in waiters:
        if future.set_running_or_notify_cancel():
            future.set_result(served)


def fail(waiters: list[Future], exc: BaseException) -> None:
    """Deliver ``exc`` to every waiter that has not cancelled."""
    for future in waiters:
        try:
            if future.set_running_or_notify_cancel():
                future.set_exception(exc)
        except Exception:  # repro: allow[lock-discipline] -- best-effort error delivery: a racing cancel already settled the future, the client has its outcome
            pass
