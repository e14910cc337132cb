"""Successive minima from a complete generating system.

Vectors are inserted in nondecreasing norm, the order a ``GeneratingSet``
keeps them in, into the integral MLLL engine by the scan of
``latkit.reduction``; each one that raises the rank of the running lattice
contributes the next minimum, and a complete set guarantees the scan meets
a witness of every minimum in order.  The greedy oracle recomputes ranks
from a running Hermite normal form instead, on every row.  Both keep their
witnesses as the set's integer rows, over its scale, up to the result.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .core import (
    GeneratingSet,
    LatticeBasis,
    _column_hnf,
    _complete_rows,
    _idot,
    _set_rows,
    _Value,
    integerize,
)
from .reduction import _scan


class MinimaResult(_Value):
    """Squared successive minima, their witnesses, and the rank reached;
    ``partial`` when the bound was too small to reach every minimum.

    The witnesses are kept as integer rows over their least common
    denominator, ``witnesses[i] == rows[i] / scale``, formed as
    ``Fraction``s on each access.  That scale is unique, so equality and
    hashing on ``rows`` and ``scale`` are those on the witnesses.
    """

    __slots__ = ("minima_sq", "rows", "scale", "rank", "partial")
    minima_sq: tuple[Fraction, ...]
    rows: tuple[tuple[int, ...], ...]
    scale: int
    rank: int
    partial: bool

    def __init__(self, minima_sq, witnesses, rank, partial=False):
        _set_rows(self, *integerize(witnesses), minima_sq=tuple(minima_sq),
                  rank=rank, partial=partial)

    @classmethod
    def from_rows(cls, minima_sq, rows: Sequence[Sequence[int]], scale: int,
                  rank: int, partial: bool = False) -> "MinimaResult":
        """The result whose witnesses are ``row / scale``, for integer rows
        over one positive common denominator ``scale``."""
        result = object.__new__(cls)
        _set_rows(result, rows, scale, minima_sq=tuple(minima_sq), rank=rank,
                  partial=partial)
        return result

    witnesses = LatticeBasis.vectors    # rows / scale, on each access


def successive_minima(s: GeneratingSet,
                      expected_rank: int | None = None) -> MinimaResult:
    """Squared successive minima (and witnesses) of the lattice generated by
    the complete set ``s``.

    ``expected_rank`` (when known, e.g. from a basis) is where the scan
    stops, at that many minima (the dimension when not given), and flags
    results as partial if the bound was too small to reach every minimum.
    """
    witnesses: list[tuple[int, ...]] = []
    for row, rank in _scan(s, "successive minima require"):
        if rank > len(witnesses):
            witnesses.append(row)
            if rank == (expected_rank or len(row)):
                break
    n = len(witnesses)
    minima = [Fraction(_idot(r, r), s.scale ** 2) for r in witnesses]
    partial = expected_rank is not None and n < expected_rank
    return MinimaResult.from_rows(minima, witnesses, s.scale, n, partial)


def greedy_minima_oracle(s: GeneratingSet) -> MinimaResult:
    """Brute-force reference: scan every vector by norm and keep each one
    that is linearly independent of those kept so far, that is, each one
    that adds a row to the running Hermite normal form ``h`` of the kept
    rows (rank recomputation, no subspace shortcut, no early exit).  It
    reads ``s.rows``, which loses no independence: ``s.vectors`` is only
    those rows over ``s.scale > 0``, so ``(norm, row)`` orders as
    ``(norm_sq(v), v)``.  It sorts by norm itself rather than trust the
    order of ``s``, since that order is part of what it checks."""
    rows = _complete_rows(s, "successive minima require")
    h: tuple[tuple[int, ...], ...] = ()
    kept: list[tuple[int, ...]] = []
    minima: list[Fraction] = []
    for n, row in sorted((_idot(r, r), r) for r in rows):
        g = _column_hnf([*h, row])
        if len(g) > len(h):
            h = g
            kept.append(row)
            minima.append(Fraction(n, s.scale ** 2))
    return MinimaResult.from_rows(minima, kept, s.scale, len(kept))


def minkowski_check(basis: LatticeBasis, result: MinimaResult,
                    rel_tol: float = 1e-9) -> bool:
    """Minkowski's inequalities on the successive minima:

        2^d/d! vol L  <=  lambda_1 ... lambda_d vol B_d  <=  2^d vol L

    evaluated in floating point within ``rel_tol``, on logarithms so that
    no quantity overflows a float.  At rank 1 the two bounds meet (``vol
    B_1 = 2``), so the check is ``lambda_1^2 == vol^2 L``, exact.
    """
    d = basis.rank
    if result.rank != d:
        raise ValueError(
            f"rank mismatch: basis rank {d}, {result.rank} minima")
    if d == 1:
        return result.minima_sq[0] == basis.volume_sq

    def log_sqrt(x: Fraction) -> float:
        return (math.log(x.numerator) - math.log(x.denominator)) / 2

    log_vol = log_sqrt(basis.volume_sq)
    log_ball = d / 2 * math.log(math.pi) - math.lgamma(d / 2 + 1)
    mid = sum(map(log_sqrt, result.minima_sq)) + log_ball
    upper = d * math.log(2) + log_vol
    lower = upper - math.lgamma(d + 1)
    tol = math.log1p(rel_tol)
    return lower <= mid + tol and mid <= upper + tol
