"""Textbook bases of the root lattices ``A_n``, ``D_n`` and ``E8``, and
scrambled orthogonal sums of them, as test code only: answers known from
theory, which share no code path with the library (Conway & Sloane,
*Sphere Packings, Lattices and Groups*, ch. 4; Bourbaki, *Lie Groups and
Lie Algebras*, ch. VI, plates I, IV and VII).

Every root lattice has squared minimum 2.  Its minimal vectors, the roots,
number ``n(n+1)`` for ``A_n``, ``2n(n-1)`` for ``D_n`` and 240 for
``E8``, and its squared volume is ``n+1``, 4 and 1.  A vector of an
orthogonal sum with parts in two summands has squared norm at least 4, so
up to 2 the sum's vectors are those of its summands, and each summand is
indecomposable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple


class Summand(NamedTuple):
    """One root lattice: its name, basis rows, rank, number of minimal
    vectors and squared volume."""
    name: str
    rows: list[tuple[Fraction, ...]]
    rank: int
    kissing: int
    volume_sq: int


def _unit(n: int, *entries: tuple[int, Fraction]) -> tuple[Fraction, ...]:
    v = [Fraction(0)] * n
    for i, c in entries:
        v[i] = Fraction(c)
    return tuple(v)


def a_n(n: int) -> Summand:
    """``A_n``: the integer vectors of coordinate sum 0 in ``Z^(n+1)``,
    with basis ``e_i - e_(i+1)``."""
    rows = [_unit(n + 1, (i, 1), (i + 1, -1)) for i in range(n)]
    return Summand(f"A{n}", rows, n, n * (n + 1), n + 1)


def d_n(n: int) -> Summand:
    """``D_n`` (n >= 4): the integer vectors of even coordinate sum in
    ``Z^n``, with basis ``e_i - e_(i+1)`` (i < n-1) and ``e_(n-2) +
    e_(n-1)``."""
    if n < 4:
        raise ValueError("D_n needs n >= 4")
    rows = [_unit(n, (i, 1), (i + 1, -1)) for i in range(n - 1)]
    rows.append(_unit(n, (n - 2, 1), (n - 1, 1)))
    return Summand(f"D{n}", rows, n, 2 * n * (n - 1), 4)


def e8() -> Summand:
    """``E8 = D8 + Z (1/2)^8``, with Bourbaki's simple roots ``(1/2)(e_0 +
    e_7 - e_1 - ... - e_6)``, ``e_0 + e_1`` and ``e_i - e_(i-1)`` for i = 1
    to 6; its rows have half-integer entries, so it presents at scale 2."""
    half = Fraction(1, 2)
    rows = [tuple(half if i in (0, 7) else -half for i in range(8)),
            _unit(8, (0, 1), (1, 1))]
    rows += [_unit(8, (i, 1), (i - 1, -1)) for i in range(1, 7)]
    return Summand("E8", rows, 8, 240, 1)


def orthogonal_sum(summands: list[Summand]) -> list[list[tuple]]:
    """Each summand's rows placed in its own block of coordinates of the
    sum's ambient space, one list of rows per summand."""
    dim = sum(len(s.rows[0]) for s in summands)
    out, offset = [], 0
    for s in summands:
        width = len(s.rows[0])
        out.append([(Fraction(0),) * offset + r
                    + (Fraction(0),) * (dim - offset - width)
                    for r in s.rows])
        offset += width
    return out
