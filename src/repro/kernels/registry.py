"""Backend registry + resolution order for the dense-kernel layer.

Resolution order for :func:`resolve_backend`:

1. an explicit :class:`~repro.kernels.base.KernelBackend` instance is
   used as-is (tests and experiments can inject custom backends);
2. an explicit name selects from the registry;
3. ``None`` falls back to the ``REPRO_KERNEL_BACKEND`` environment
   variable, and finally to ``"reference"`` — the default must stay the
   bit-for-bit reference so the numerical contracts (tier-1 tests,
   ``SAME_PATTERN`` bit-identity) hold with no configuration.

Unknown names raise the structured
:class:`~repro.kernels.base.UnknownBackendError` listing every
registered name.
"""

from __future__ import annotations

import os

from repro.kernels.base import KernelBackend, UnknownBackendError
from repro.kernels.reference import ReferenceBackend
from repro.kernels.vectorized import VectorizedBackend

__all__ = [
    "register_backend",
    "get_backend",
    "available_backends",
    "resolve_backend",
    "resolve_backend_name",
    "DEFAULT_BACKEND",
    "ENV_VAR",
]

ENV_VAR = "REPRO_KERNEL_BACKEND"
DEFAULT_BACKEND = "reference"

_REGISTRY: dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Register (or replace) a backend instance under ``backend.name``."""
    if not isinstance(backend, KernelBackend):
        raise TypeError("register_backend expects a KernelBackend instance")
    _REGISTRY[backend.name] = backend
    return backend


def available_backends() -> tuple:
    """Registered backend names, registration order."""
    return tuple(_REGISTRY)


def get_backend(name: str) -> KernelBackend:
    """The registered backend called ``name``.

    Raises
    ------
    UnknownBackendError
        When no backend is registered under ``name`` (the message lists
        the registered names).
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownBackendError(name, available_backends()) from None


def resolve_backend(selector=None) -> KernelBackend:
    """Resolve a backend selector (instance, name, or ``None``).

    ``None`` consults the ``REPRO_KERNEL_BACKEND`` environment variable
    and defaults to ``"reference"``.
    """
    if isinstance(selector, KernelBackend):
        return selector
    if selector is None:
        # an unset, empty, or whitespace-only variable means "default" —
        # mirrors the REPRO_SERVICE_WORKERS parsing in service/api.py
        env = os.environ.get(ENV_VAR, "").strip()
        selector = env if env else DEFAULT_BACKEND
    return get_backend(selector)


def resolve_backend_name(selector=None) -> str:
    """The name :func:`resolve_backend` would pick — for cache keys and
    span annotations without touching backend state."""
    return resolve_backend(selector).name


# the two built-ins are always registered; VectorizedBackend degrades to
# numpy sweeps internally when scipy is absent, so registration is
# unconditional
register_backend(ReferenceBackend())
register_backend(VectorizedBackend())
