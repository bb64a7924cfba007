"""Tests for the versioned result cache (:mod:`repro.serving.cache`).

The invariant the randomized suite drills: under *any* interleaving of
fills, lookups, version bumps, invalidations, and evictions, a lookup
presented with the current graph version never returns a result stored
at a different version.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.result import PPRResult
from repro.errors import ParameterError, UnknownMethodError
from repro.serving import cache as cache_module
from repro.serving.cache import ResultCache, make_cache_key, resolve_request

# Dependency floor: the versioned result cache whose answers the front door's hits
# return.
pytestmark = pytest.mark.floor


def result_for(source: int, version: int) -> PPRResult:
    """A distinguishable dummy result (estimate encodes its version)."""
    estimate = np.zeros(4)
    estimate[0] = version
    return PPRResult(
        estimate=estimate,
        residue=None,
        source=source,
        alpha=0.2,
        method="dummy",
    )


class TestMakeCacheKey:
    def test_canonicalises_aliases_and_param_order(self):
        a = make_cache_key(3, "powerpush", {"alpha": 0.2, "l1_threshold": 1e-8})
        b = make_cache_key(3, "PP", {"l1_threshold": 1e-8, "alpha": 0.2})
        assert a == b

    def test_alias_implied_params_fold_in(self):
        plus = make_cache_key(0, "fora+", {"epsilon": 0.5})
        explicit = make_cache_key(0, "fora", {"epsilon": 0.5, "use_index": True})
        assert plus == explicit
        assert plus != make_cache_key(0, "fora", {"epsilon": 0.5})

    def test_distinct_sources_and_params_get_distinct_keys(self):
        base = make_cache_key(0, "powerpush", {"l1_threshold": 1e-8})
        assert base != make_cache_key(1, "powerpush", {"l1_threshold": 1e-8})
        assert base != make_cache_key(0, "powerpush", {"l1_threshold": 1e-6})

    def test_incremental_method_is_cacheable(self):
        key = make_cache_key(2, "incremental", {"l1_threshold": 1e-8})
        assert key[0] == "incremental"

    def test_live_objects_are_uncacheable(self):
        rng = np.random.default_rng(0)
        assert make_cache_key(0, "montecarlo", {"rng": rng}) is None

    def test_unknown_method_raises(self):
        with pytest.raises(UnknownMethodError):
            make_cache_key(0, "no-such-method", {})


#: the defaults a serving tier passes: built once, at construction
DEFAULTS = {"alpha": 0.2, "dead_end_policy": "redirect-to-source"}


class TestResolveMemo:
    """:func:`resolve_request` is the pure resolver each serving tier's
    request-shape memo must agree with; the memo's own cases run
    against both tiers in ``tests/test_serving_flights.py``."""

    @pytest.mark.parametrize(
        "method, params, same_as",
        [
            ("PP", {"l1_threshold": 1e-8}, ("powerpush", {"l1_threshold": 1e-8})),
            (
                "fora+",
                {"epsilon": 0.5},
                ("fora", {"epsilon": 0.5, "use_index": True}),
            ),
            (
                "powerpush",
                {"l1_threshold": 1e-8, "alpha": 0.2},
                ("powerpush", {"alpha": 0.2, "l1_threshold": 1e-8}),
            ),
            (
                "powerpush",
                {"alpha": 0.2, "dead_end_policy": "redirect-to-source"},
                ("powerpush", {}),
            ),
        ],
    )
    def test_spellings_resolve_as_without_the_memo(self, method, params, same_as):
        for spelling, given in ((method, params), same_as):
            canonical, merged, items = cache_module._resolve_shape(
                spelling, given, DEFAULTS
            )
            unmemoised = (canonical, merged, (canonical, 4, items))
            for _ in range(2):  # cold, then from the memo
                assert resolve_request(4, spelling, given, defaults=DEFAULTS) == (
                    unmemoised
                )
        first = resolve_request(4, method, params, defaults=DEFAULTS)
        assert first == resolve_request(4, *same_as, defaults=DEFAULTS)


class TestResultCacheBasics:
    def test_roundtrip_and_lru_eviction(self):
        cache = ResultCache(2)
        keys = [make_cache_key(s, "powerpush", {}) for s in (0, 1, 2)]
        cache.put(keys[0], result_for(0, 0), 0)
        cache.put(keys[1], result_for(1, 0), 0)
        assert cache.get(keys[0], 0) is not None  # refresh 0's recency
        cache.put(keys[2], result_for(2, 0), 0)  # evicts 1, not 0
        assert cache.get(keys[1], 0) is None
        assert cache.get(keys[0], 0) is not None
        assert cache.stats.evictions == 1

    def test_stale_version_never_served(self):
        cache = ResultCache(8)
        key = make_cache_key(0, "powerpush", {})
        cache.put(key, result_for(0, 3), 3)
        assert cache.get(key, 4) is None
        assert cache.stats.stale_drops == 1
        # the stale entry is gone for good, even for version 3 again
        assert cache.get(key, 3) is None

    def test_invalidate_with_version_drops_only_stale(self):
        cache = ResultCache(8)
        old = make_cache_key(0, "powerpush", {})
        new = make_cache_key(1, "powerpush", {})
        cache.put(old, result_for(0, 1), 1)
        cache.put(new, result_for(1, 2), 2)
        assert cache.invalidate(2) == 1
        assert cache.get(new, 2) is not None
        assert len(cache) == 1

    def test_invalidate_none_clears(self):
        cache = ResultCache(8)
        cache.put(make_cache_key(0, "powerpush", {}), result_for(0, 0), 0)
        assert cache.invalidate() == 1
        assert len(cache) == 0

    def test_hit_rate(self):
        cache = ResultCache(8)
        key = make_cache_key(0, "powerpush", {})
        assert cache.stats.hit_rate == 0.0
        cache.put(key, result_for(0, 0), 0)
        cache.get(key, 0)
        cache.get(make_cache_key(1, "powerpush", {}), 0)
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            ResultCache(0)

    @pytest.mark.parametrize("option", ["ttl", "clock"])
    def test_has_no_time_to_live(self, option):
        # Capacity is the cache's only setting: an answer at a given
        # version never changes, so there is nothing to expire.
        with pytest.raises(TypeError, match=option):
            ResultCache(4, **{option: 5.0})

    def test_an_entry_leaves_only_when_stale_or_evicted(self):
        cache = ResultCache(2)
        keys = [make_cache_key(s, "powerpush", {}) for s in range(4)]
        cache.put(keys[0], result_for(0, 0), 0)
        cache.put(keys[1], result_for(1, 0), 0)
        for _ in range(1000):  # however often or late it is read
            assert cache.get(keys[0], 0) is not None
        cache.put(keys[2], result_for(2, 0), 0)  # evicts 1
        assert cache.get(keys[1], 0) is None
        assert cache.get(keys[2], 1) is None  # stale at version 1
        cache.put(keys[3], result_for(3, 1), 1)
        assert cache.invalidate(1) == 1  # 0 is stamped with version 0
        assert len(cache) == 1
        stats = cache.stats
        assert (stats.evictions, stats.stale_drops, stats.invalidations) == (
            1,
            1,
            1,
        )
        assert stats.insertions == (
            len(cache)
            + stats.evictions
            + stats.stale_drops
            + stats.invalidations
        )


class TestVersionRaces:
    """Fills and lookups racing version invalidation: no interleaving of
    concurrent get/put/invalidate may serve an entry stamped with a
    version other than the one the lookup presents."""

    def test_concurrent_get_put_with_racing_invalidation(self):
        cache = ResultCache(16)
        keys = [make_cache_key(s, "powerpush", {}) for s in range(6)]
        version = [0]
        stop = threading.Event()
        errors: list[BaseException] = []

        def putter() -> None:
            try:
                while not stop.is_set():
                    v = version[0]
                    for s, key in enumerate(keys):
                        cache.put(key, result_for(s, v), v)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def getter() -> None:
            try:
                while not stop.is_set():
                    v = version[0]
                    for key in keys:
                        hit = cache.get(key, v)
                        # The one invariant every interleaving must
                        # keep: a hit is stamped exactly the version
                        # the lookup asked for.
                        if hit is not None and hit.estimate[0] != v:
                            raise AssertionError(
                                f"version {hit.estimate[0]} served "
                                f"for version {v}"
                            )
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def churner() -> None:
            # The writer path (bump + invalidate) racing the fills.
            try:
                while not stop.is_set():
                    version[0] += 1
                    cache.invalidate(version[0])
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=target)
            for target in (putter, putter, getter, getter, churner)
        ]
        for thread in threads:
            thread.start()
        stop_timer = threading.Timer(0.3, stop.set)
        stop_timer.start()
        for thread in threads:
            thread.join()
        stop_timer.cancel()
        assert not errors, errors[0]
        assert len(cache) <= 16
        # The stale-drop path was actually exercised by the race.
        assert cache.stats.stale_drops > 0


# ---------------------------------------------------------------------------
# Randomized interleavings (satellite: property tests)
# ---------------------------------------------------------------------------

#: One abstract cache action: (op, source, ...) drawn by hypothesis.
_actions = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 5)),
        st.tuples(st.just("get"), st.integers(0, 5)),
        st.tuples(st.just("bump"), st.just(0)),
        st.tuples(st.just("invalidate"), st.just(0)),
    ),
    min_size=1,
    max_size=60,
)


class TestRandomizedInterleavings:
    """No interleaving may serve a result stored at another version."""

    @settings(max_examples=200, deadline=None)
    @given(actions=_actions, capacity=st.integers(1, 4))
    def test_version_consistency_under_any_interleaving(
        self, actions, capacity
    ):
        cache = ResultCache(capacity)
        version = 0
        for op, source in actions:
            key = make_cache_key(source, "powerpush", {})
            if op == "put":
                cache.put(key, result_for(source, version), version)
            elif op == "get":
                hit = cache.get(key, version)
                if hit is not None:
                    # the estimate encodes the version it was stored at
                    assert hit.estimate[0] == version
            elif op == "bump":
                version += 1
            elif op == "invalidate":
                cache.invalidate(version)
        # capacity is an invariant, not a hint
        assert len(cache) <= capacity

    @settings(max_examples=100, deadline=None)
    @given(actions=_actions)
    def test_invalidate_after_bump_leaves_no_pre_bump_entry(self, actions):
        cache = ResultCache(8)
        version = 0
        for op, source in actions:
            key = make_cache_key(source, "powerpush", {})
            if op == "put":
                cache.put(key, result_for(source, version), version)
            elif op == "bump":
                version += 1
                cache.invalidate(version)  # the server's writer path
            elif op == "get":
                cache.get(key, version)
        # After the loop, every surviving entry is at the final version.
        for source in range(6):
            key = make_cache_key(source, "powerpush", {})
            stamped = cache.version_of(key)
            assert stamped is None or stamped == version
