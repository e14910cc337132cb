"""Frozen reference: the minima scan as ``latkit.minima`` ran it while its
result held ``Fraction`` witnesses, kept as test code only.

``ReferenceMinimaResult`` is the old ``MinimaResult``, a frozen dataclass
whose ``witnesses`` field holds a ``Fraction`` vector per minimum, and
``reference_successive_minima`` is the old ``successive_minima``, copied
unchanged but for the result class it builds.  The differential tests
require the same minima, witnesses, rank and flag from the library, whose
result keeps its witnesses as integer rows over a scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from latkit.core import GeneratingSet, Vector, _idot
from latkit.reduction import IncrementalLattice


@dataclass(frozen=True)
class ReferenceMinimaResult:
    minima_sq: tuple[Fraction, ...]
    witnesses: tuple[Vector, ...]
    rank: int
    partial: bool = False


def reference_successive_minima(
        s: GeneratingSet,
        expected_rank: Optional[int] = None) -> ReferenceMinimaResult:
    """Squared successive minima (and witnesses) of the lattice generated by
    the complete set ``s``.

    ``expected_rank`` (when known, e.g. from a basis) is where the scan
    stops, at that many minima (the dimension when not given), and flags
    results as partial if the bound was too small to reach every minimum.
    """
    if not s.rows:
        raise ValueError("generating set is empty")
    if not s.complete:
        raise ValueError("successive minima require a complete set")
    lattice = IncrementalLattice(len(s.rows[0]), scale=s.scale)
    minima: list[Fraction] = []
    witnesses: list[Vector] = []
    for row in s.rows:
        if lattice.insert(row) and lattice.rank > len(minima):
            witnesses.append(tuple(Fraction(c, s.scale) for c in row))
            minima.append(Fraction(_idot(row, row), s.scale ** 2))
            if lattice.rank == (expected_rank or lattice.dim):
                break
    partial = expected_rank is not None and len(minima) < expected_rank
    return ReferenceMinimaResult(tuple(minima), tuple(witnesses), len(minima),
                                 partial)
