"""The result cache and the single-flight table both serving tiers share.

:class:`~repro.serving.server.EngineServer` (threads) and
:class:`~repro.serving.sharded.ShardedDispatcher` (processes) differ
only in *where* a miss is solved — the server's one worker thread, or
a shard process.  Everything a caller can observe about duplicates and
repeats is decided here, by one :class:`FlightTable` per tier, asked
under the tier's own mutex at the graph version its read section pins:

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

from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any

from repro.core.result import PPRResult
from repro.errors import ParameterError
from repro.serving.cache import ResultCache, freeze_result

__all__ = [
    "Flight",
    "FlightTable",
    "ServedResult",
    "as_future",
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
        tier (a cheaper registered solver or a version-valid cached
        lower-precision answer) instead of the requested fidelity.
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

    def __init__(self, cache_capacity: int, cache_ttl: float | None) -> None:
        if cache_capacity < 0:
            raise ParameterError(
                f"cache_capacity must be >= 0, got {cache_capacity}"
            )
        self.cache = (
            ResultCache(cache_capacity, ttl=cache_ttl)
            if cache_capacity
            else None
        )
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


def as_future(answer: ServedResult | Future) -> Future:
    """``answer`` as a future: a hit comes back in a done one."""
    if isinstance(answer, Future):
        return answer
    future: Future = Future()
    future.set_result(answer)
    return future


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
