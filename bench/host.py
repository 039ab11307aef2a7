"""Host hygiene for the runner: thread pins, the exclusive-run lock, the
idle-machine reference kernel, the host fingerprint and the shared-memory
leak check."""

from __future__ import annotations

import fcntl
import os
import platform
import time
from pathlib import Path
from statistics import median

# Set before numpy is imported anywhere (runner and workers), so BLAS
# never spawns threads that fight the workload's own two clients.
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}

# names python's shared_memory and repro.dmem.procexec give segments
_SHM_PREFIXES = ("psm_", "reprox")
_SHM_DIR = Path("/dev/shm")


class AnotherRunAlive(RuntimeError):
    pass


def exclusive_lock(out_dir: Path):
    """Hold ``out_dir/run.lock`` for the life of the returned file.  The
    kernel drops a flock when its holder dies, so a crashed run never
    blocks the next one."""
    out_dir.mkdir(parents=True, exist_ok=True)
    handle = open(out_dir / "run.lock", "a+")
    try:
        fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        handle.seek(0)
        holder = handle.read().strip() or "unknown pid"
        handle.close()
        raise AnotherRunAlive(
            f"another bench.run is alive ({holder}); two benchmarks on one "
            "host measure each other — wait for it to finish") from None
    handle.truncate(0)
    handle.write(f"pid {os.getpid()}")
    handle.flush()
    return handle


def reference_kernel() -> float:
    """Seconds for a fixed ~2 ms mix of small-array numpy calls and
    bytecode — what the repo's warm path is made of.  Tracks CPU-speed
    drift of the host; never part of a gated metric."""
    import numpy as np

    v = np.arange(64.0)
    acc = 0.0
    start = time.perf_counter()
    for i in range(1600):
        v = v * 1.0000001 + 0.5
        acc += float(v[i % 64])
    return time.perf_counter() - start


def ref_s(repeats: int = 15) -> float:
    """Median of ``repeats`` reference kernels on the (idle) machine."""
    return median(reference_kernel() for _ in range(repeats))


def fingerprint() -> dict:
    import importlib.util

    import numpy
    import scipy

    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
            "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS}}


def shm_segments() -> set[str]:
    """Names of the shared-memory segments of the kinds this repo makes."""
    if not _SHM_DIR.is_dir():
        return set()
    return {name for name in os.listdir(_SHM_DIR)
            if name.startswith(_SHM_PREFIXES)}
