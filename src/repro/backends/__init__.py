"""Pluggable compute backends for the push kernels.

Every vectorised solver in :mod:`repro.core` runs its inner loops
through one :class:`~repro.backends.base.KernelBackend` — the kernel
contract (:func:`global_sweep`, :func:`frontier_push`,
:func:`async_sweep`, :func:`sweep_active`) that used to be hard-coded
as the NumPy bodies of :mod:`repro.core.kernels`.  Two
backends ship built in:

``numpy``
    The always-available reference.  Selecting it explicitly is
    byte-identical to selecting nothing — golden traces are pinned to
    this path.
``numba``
    ``@njit(cache=True)`` compiled loops over the CSR arrays.  Requires
    the optional extra ``pip install repro-ppr[numba]``; when numba is not
    importable the registry *falls back* to ``numpy`` with a one-time
    :class:`RuntimeWarning` instead of failing.

Selection precedence (first match wins):

1. an explicit ``backend=`` argument — a name or a
   :class:`KernelBackend` instance — on :class:`~repro.api.PPREngine`,
   a solver function, or ``--backend`` on the CLI;
2. the ``REPRO_PPR_BACKEND`` environment variable;
3. the default, ``numpy``.

Third-party backends plug in through :func:`register_backend`; an
unknown name raises :class:`~repro.errors.ParameterError` listing
every registered choice.
"""

from __future__ import annotations

import os
import threading
import warnings
from typing import Callable

from repro.backends.base import KernelBackend
from repro.backends.numba_backend import numba_available
from repro.backends.numpy_backend import NumpyBackend
from repro.errors import ParameterError

__all__ = [
    "KernelBackend",
    "NumpyBackend",
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "register_backend",
    "registered_backends",
    "available_backends",
    "get_backend",
    "default_backend_name",
    "resolve_backend",
    "active_backend",
    "numba_available",
]

#: Environment variable consulted when no explicit backend is given.
BACKEND_ENV_VAR = "REPRO_PPR_BACKEND"

#: The reference backend every installation has.
DEFAULT_BACKEND = "numpy"


def _make_numba_backend() -> KernelBackend:
    from repro.backends.numba_backend import NumbaBackend

    assert NumbaBackend is not None  # guarded by the availability probe
    return NumbaBackend()


#: name -> (factory, availability probe).  The probe runs on every
#: lookup (cheap attribute reads) so tests can simulate numba's absence.
_FACTORIES: dict[
    str, tuple[Callable[[], KernelBackend], Callable[[], bool]]
] = {}
_INSTANCES: dict[str, KernelBackend] = {}
_FALLBACKS_WARNED: set[str] = set()
_LOCK = threading.Lock()


def _normalize(name: str) -> str:
    return name.strip().lower()


def register_backend(
    name: str,
    factory: Callable[[], KernelBackend],
    *,
    available: Callable[[], bool] | None = None,
) -> None:
    """Register a backend ``factory`` under ``name``.

    ``available`` is an optional probe; when it returns False the
    registry serves the ``numpy`` reference in this backend's place
    (with a one-time warning) instead of erroring — the pattern the
    built-in ``numba`` backend uses for its optional dependency.
    Re-registering a taken name raises.
    """
    key = _normalize(name)
    with _LOCK:
        if key in _FACTORIES:
            raise ParameterError(f"backend {name!r} is already registered")
        _FACTORIES[key] = (factory, available or (lambda: True))


def registered_backends() -> list[str]:
    """Every registered backend name, sorted (availability ignored)."""
    return sorted(_FACTORIES)


def available_backends() -> list[str]:
    """Backend names whose availability probe passes, sorted."""
    return sorted(
        name for name, (_, probe) in _FACTORIES.items() if probe()
    )


def get_backend(name: str) -> KernelBackend:
    """The backend registered under ``name`` (case-insensitive).

    An unknown name raises :class:`~repro.errors.ParameterError`
    listing every registered backend.  A known-but-unavailable backend
    (``numba`` without the optional extra installed) degrades to the
    ``numpy`` reference, warning once per process.
    """
    key = _normalize(name)
    entry = _FACTORIES.get(key)
    if entry is None:
        raise ParameterError(
            f"unknown backend {name!r}; available backends: "
            f"{', '.join(registered_backends())}"
        )
    factory, probe = entry
    if not probe():
        # Check-and-set the once-per-process flag under the lock, but
        # emit outside it: warnings.warn takes the warnings-registry
        # lock and may run arbitrary user filters/hooks, and holding
        # our registry lock across that invites lock-order inversions.
        with _LOCK:
            should_warn = key not in _FALLBACKS_WARNED
            if should_warn:
                _FALLBACKS_WARNED.add(key)
        if should_warn:
            warnings.warn(
                f"backend {key!r} is not available in this environment "
                f"(install the optional extra, e.g. "
                f"'pip install repro-ppr[{key}]'); falling back to the "
                f"{DEFAULT_BACKEND!r} reference backend",
                RuntimeWarning,
                stacklevel=2,
            )
        return get_backend(DEFAULT_BACKEND)
    with _LOCK:
        instance = _INSTANCES.get(key)
        if instance is None:
            instance = factory()
            _INSTANCES[key] = instance
    return instance


def default_backend_name() -> str:
    """The name the environment selects: ``$REPRO_PPR_BACKEND`` or numpy."""
    return os.environ.get(BACKEND_ENV_VAR, "").strip() or DEFAULT_BACKEND


def resolve_backend(
    backend: str | KernelBackend | None = None,
) -> KernelBackend:
    """Resolve an explicit choice, the env var, or the default — in order.

    Accepts ``None`` (consult :data:`BACKEND_ENV_VAR`, default
    ``numpy``), a registered name, or an already-constructed
    :class:`KernelBackend` (returned as-is, enabling ad-hoc custom
    backends without registration).
    """
    if isinstance(backend, KernelBackend):
        return backend
    if backend is not None:
        return get_backend(backend)
    name = default_backend_name()
    try:
        return get_backend(name)
    except ParameterError as exc:
        raise ParameterError(
            f"{exc} (selected via the {BACKEND_ENV_VAR} environment variable)"
        ) from None


def active_backend(
    backend: str | KernelBackend | None = None,
) -> KernelBackend | None:
    """Like :func:`resolve_backend`, but ``None`` for the reference.

    The kernel entry points in :mod:`repro.core.kernels` treat
    ``backend=None`` as "run the reference NumPy body directly" — the
    zero-indirection path golden traces are pinned to — so solvers
    resolve their ``backend`` parameter through this helper and only
    pay per-call dispatch when a non-reference backend actually won.
    """
    resolved = resolve_backend(backend)
    return None if resolved.name == DEFAULT_BACKEND else resolved


def _reset_backend_state() -> None:
    """Drop cached instances and warning flags (test isolation hook)."""
    with _LOCK:
        _INSTANCES.clear()
        _FALLBACKS_WARNED.clear()


register_backend("numpy", NumpyBackend)
register_backend(
    "numba", _make_numba_backend, available=numba_available
)
