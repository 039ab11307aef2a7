"""Triangular solves, iterative refinement, and error estimation
(GESP step (4) and the error metrics of Figures 4 and 5).

- :mod:`~repro.solve.triangular` — serial sparse forward/back
  substitution on CSC factors;
- :mod:`~repro.solve.refine` — iterative refinement driven by the
  componentwise backward error, with the paper's exact stopping rule;
- :mod:`~repro.solve.errbound` — Hager-Higham 1-norm condition
  estimation and the componentwise forward error bound;
- :mod:`~repro.solve.sherman` — Sherman-Morrison-Woodbury recovery for
  the aggressive pivot-replacement extension (paper §5).
"""

from repro.solve.triangular import (
    solve_lower_csc,
    solve_upper_csc,
    solve_lower_t_csc,
    solve_upper_t_csc,
)
from repro.solve.refine import (
    RefinementResult,
    componentwise_backward_error,
    iterative_refinement,
)
from repro.solve.errbound import condest_1norm, forward_error_bound
from repro.solve.sherman import ShermanMorrisonSolver

__all__ = [
    "solve_lower_csc",
    "solve_upper_csc",
    "solve_lower_t_csc",
    "solve_upper_t_csc",
    "RefinementResult",
    "componentwise_backward_error",
    "iterative_refinement",
    "condest_1norm",
    "forward_error_bound",
    "ShermanMorrisonSolver",
]
