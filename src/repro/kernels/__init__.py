"""``repro.kernels`` — the pluggable dense-kernel layer.

One backend registry behind every dense block operation of the pipeline
(diagonal-block LU, panel triangular solves, rank-b GEMM + scatter, SPA
column updates, diagonal-block substitutions), with centralized flop
accounting.  See docs/KERNELS.md for the protocol and the guide to
adding a backend.

Quick use::

    from repro.kernels import resolve_backend

    kernel = resolve_backend("vectorized")   # or None -> env/default
    replaced = kernel.lu_nopivot(d, thresh)

Selection threads through the drivers as ``GESPOptions.kernel_backend``,
the CLI as ``--kernel-backend``, and the environment as
``REPRO_KERNEL_BACKEND``.
"""

from contextlib import contextmanager

from repro.kernels.base import (
    KernelBackend,
    KernelStats,
    UnknownBackendError,
    gemm_flops,
    lu_flops,
    trsm_flops,
)
from repro.kernels.reference import ReferenceBackend
from repro.kernels.registry import (
    DEFAULT_BACKEND,
    ENV_VAR,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
    resolve_backend_name,
)
from repro.kernels.vectorized import HAVE_SCIPY, VectorizedBackend

__all__ = [
    "KernelBackend",
    "KernelStats",
    "UnknownBackendError",
    "ReferenceBackend",
    "VectorizedBackend",
    "HAVE_SCIPY",
    "register_backend",
    "get_backend",
    "available_backends",
    "resolve_backend",
    "resolve_backend_name",
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "lu_flops",
    "trsm_flops",
    "gemm_flops",
    "kernel_counters",
]


@contextmanager
def kernel_counters(backend: KernelBackend):
    """Publish the backend's ``kernel.*`` counter deltas for one region.

    Snapshots ``backend.stats`` on entry and, on exit, emits the
    increments through the ambient tracer (:func:`repro.obs.add`) —
    zero-cost when tracing is disabled, one add per nonzero counter
    otherwise.  Factorization wrappers use this so per-op accounting
    stays inside the kernel layer.
    """
    from repro.obs import add

    snap = backend.stats.snapshot()
    try:
        yield snap
    finally:
        for name, val in backend.stats.counter_delta(snap).items():
            if val:
                add(name, val)
