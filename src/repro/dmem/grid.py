"""The 2-D process grid (paper §3.1).

P processes are arranged as ``nprow × npcol``; block (I, J) lives on the
process at grid coordinate ``(I mod nprow, J mod npcol)``.  The paper's
grids are near-square with ``nprow <= npcol`` (2×2, 2×4, 4×4, ..., 16×32);
:func:`best_grid` reproduces that choice for any P.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ProcessGrid", "best_grid"]


@dataclass(frozen=True)
class ProcessGrid:
    """A ``nprow × npcol`` grid with row-major rank numbering."""

    nprow: int
    npcol: int

    def __post_init__(self):
        if self.nprow < 1 or self.npcol < 1:
            raise ValueError("grid dimensions must be positive")

    @property
    def size(self):
        return self.nprow * self.npcol

    def coords(self, rank: int):
        """(process-row, process-column) of ``rank``."""
        if not (0 <= rank < self.size):
            raise ValueError("rank out of range")
        return divmod(rank, self.npcol)

    def rank(self, prow: int, pcol: int):
        return (prow % self.nprow) * self.npcol + (pcol % self.npcol)

    def owner(self, i_block: int, j_block: int):
        """Rank owning block (I, J) under the cyclic mapping."""
        return self.rank(i_block % self.nprow, j_block % self.npcol)


def best_grid(p: int) -> ProcessGrid:
    """The most-square factorization of P with ``nprow <= npcol``.

    Matches the paper's grids: 4→2×2, 8→2×4, 16→4×4, 32→4×8, 64→8×8,
    128→8×16, 256→16×16, 512→16×32.  P need not be a power of two.
    """
    if p < 1:
        raise ValueError("P must be positive")
    best = (1, p)
    for r in range(1, int(p ** 0.5) + 1):
        if p % r == 0:
            best = (r, p // r)
    return ProcessGrid(nprow=best[0], npcol=best[1])
