"""repro — GESP: sparse Gaussian elimination with static pivoting.

A from-scratch reproduction of

    Xiaoye S. Li and James W. Demmel,
    "Making Sparse Gaussian Elimination Scalable by Static Pivoting",
    SC 1998.

Quick start::

    import numpy as np
    from repro import CSCMatrix, GESPSolver

    a = CSCMatrix.from_dense(dense_array)        # or read_matrix_market(...)
    solver = GESPSolver(a)                       # steps (1)-(3) of Fig. 1
    report = solver.solve(b)                     # step (4): refined solve
    x, berr = report.x, report.berr

Distributed (simulated P-processor machine)::

    from repro import DistributedGESPSolver
    ds = DistributedGESPSolver(a, nprocs=64)
    run = ds.factorize()           # paper Fig. 8 on a virtual 8x8 grid
    sol = ds.solve_distributed(b)  # paper Fig. 9

Package map (see DESIGN.md for the full inventory):

- :mod:`repro.sparse`    — CSC/CSR/COO formats, ops, HB/MM I/O
- :mod:`repro.ordering`  — minimum degree on AᵀA or Aᵀ+A, etrees
- :mod:`repro.scaling`   — equilibration, MC64 matchings & scaling
- :mod:`repro.symbolic`  — static fill, supernodes, elimination DAGs
- :mod:`repro.factor`    — GESP / GEPP / supernodal numeric kernels
- :mod:`repro.solve`     — triangular solves, refinement, error bounds
- :mod:`repro.driver`    — the Figure-1 pipeline (serial & distributed)
- :mod:`repro.recovery`  — failure diagnosis + the solve-recovery ladder
- :mod:`repro.dmem`      — virtual MPI: simulator, grid, distribution
- :mod:`repro.pdgstrf`   — distributed factorization (Figure 8)
- :mod:`repro.pdgstrs`   — distributed triangular solves (Figure 9)
- :mod:`repro.matrices`  — testbed generators and suites
- :mod:`repro.analysis`  — metrics and table rendering
- :mod:`repro.obs`       — tracing spans, counters, JSON run records
- :mod:`repro.service`   — concurrent solve service: bounded
  admission queue, same-pattern coalescing, one service thread

Tracing a solve (see docs/OBSERVABILITY.md)::

    from repro.obs import Tracer, use_tracer, print_report

    tracer = Tracer()
    with use_tracer(tracer):
        GESPSolver(a).solve(b)
    print_report(tracer.record(matrix="demo"))
"""

from repro.sparse import (
    COOMatrix,
    CSCMatrix,
    CSRMatrix,
    read_harwell_boeing,
    read_matrix_market,
    write_harwell_boeing,
    write_matrix_market,
)
from repro.driver import (
    FACTOR_CACHE,
    FactorizationCache,
    GESPOptions,
    GESPSolver,
    MultiSolveResult,
    SolveReport,
    gesp_solve,
)
from repro.driver.dist_driver import DistributedGESPSolver
from repro.factor import gepp_factor, gesp_factor, supernodal_factor
from repro.obs import RunRecord, Tracer, use_tracer
from repro.recovery import recover_solve
from repro.service import (
    ServiceClient,
    ServiceConfig,
    SolveRequest,
    SolveResponse,
    SolveService,
)
from repro.solve import componentwise_backward_error, iterative_refinement

__version__ = "1.0.0"

__all__ = [
    "COOMatrix",
    "CSCMatrix",
    "CSRMatrix",
    "read_harwell_boeing",
    "read_matrix_market",
    "write_harwell_boeing",
    "write_matrix_market",
    "GESPOptions",
    "GESPSolver",
    "MultiSolveResult",
    "SolveReport",
    "FactorizationCache",
    "FACTOR_CACHE",
    "gesp_solve",
    "recover_solve",
    "DistributedGESPSolver",
    "gesp_factor",
    "gepp_factor",
    "supernodal_factor",
    "componentwise_backward_error",
    "iterative_refinement",
    "RunRecord",
    "Tracer",
    "use_tracer",
    "ServiceClient",
    "ServiceConfig",
    "SolveRequest",
    "SolveResponse",
    "SolveService",
    "__version__",
]
