"""Exact rational linear algebra kernel for lattice computations.

Vectors are tuples of ``fractions.Fraction``; every operation here is exact.
Vectors handed in may hold ``int`` entries as well, as the lattice-file
parser returns them for integer literals.  Norms and volumes are carried as
squared quantities so all comparisons stay rational.  Where a whole family
of vectors is processed at once (the independence check of
``LatticeBasis``, the norm order of ``GeneratingSet``, the Hermite normal
form behind lattice equality and membership) it is first rescaled to
integer rows over one common denominator (``integerize``, which reads
``int`` and ``Fraction`` entries as they are), and the arithmetic runs on
those integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Iterable, Optional, Sequence

Vector = tuple[Fraction, ...]


def as_vector(coords: Iterable) -> Vector:
    """Coordinates as a tuple of Fractions; entries that already are
    Fractions (immutable) are kept as they are, not copied."""
    return tuple(c if type(c) is Fraction else Fraction(c) for c in coords)


def norm_sq(v: Vector) -> Fraction:
    return sum((c * c for c in v), Fraction(0))


def _idot(u, v) -> int:
    return sum(map(mul, u, v))


def _det_bareiss_int(m: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


class LatticeBasis:
    """Ordered linearly independent vectors with their squared volume (the
    Gram determinant), computed once: by the independence check, or by the
    MLLL engine that hands its output to ``_trusted``.

    The check runs in integers: the vectors are rescaled by the lcm ``s`` of
    their denominators, the Gram determinant ``D`` of the integer rows is
    taken fraction-free, and ``volume_sq = D / s^(2n)``."""

    __slots__ = ("vectors", "volume_sq", "dim")

    def __init__(self, vectors: Iterable, dim: Optional[int] = None):
        vs = tuple(as_vector(v) for v in vectors)
        if vs:
            d = len(vs[0])
            if any(len(v) != d for v in vs):
                raise ValueError("basis vectors have mixed dimensions")
            if dim is not None and dim != d:
                raise ValueError("dim does not match vector length")
            dim = d
            if len(vs) > d:
                raise ValueError("more basis vectors than the dimension")
        ints, scale = integerize(vs)
        det = _det_bareiss_int([[_idot(u, v) for v in ints] for u in ints])
        if det == 0:
            raise ValueError("basis vectors are linearly dependent")
        self.vectors = vs
        self.dim = dim if dim is not None else 0
        self.volume_sq = Fraction(det, scale ** (2 * len(vs)))

    @classmethod
    def _trusted(cls, vectors: tuple[Vector, ...], volume_sq: Fraction,
                 dim: int) -> "LatticeBasis":
        """A basis from vectors that are independent by construction (the
        output of a reduction), with its squared volume; skips the check."""
        basis = object.__new__(cls)
        basis.vectors = vectors
        basis.volume_sq = volume_sq
        basis.dim = dim
        return basis

    @property
    def rank(self) -> int:
        return len(self.vectors)

    def __repr__(self):
        return f"LatticeBasis({list(self.vectors)!r})"

    def __eq__(self, other):
        return (
            isinstance(other, LatticeBasis) and self.vectors == other.vectors
        )

    def __hash__(self):
        return hash(self.vectors)


@dataclass(frozen=True)
class GeneratingSet:
    """Multiset of nonzero lattice vectors with a squared norm bound, kept
    in nondecreasing squared norm with lexicographic ties, whatever the
    input order; zero vectors are dropped, and vectors of different lengths
    are rejected.

    ``complete`` means the producer asserts the set contains every nonzero
    lattice vector of squared norm at most ``bound_sq``.

    Both constructors run one integer core: the bound check and the sort
    work on integer rows over a positive common denominator, and each
    output ``Fraction`` is formed once, at the end.  ``__init__`` rescales
    its rational vectors to such rows (``integerize``); the enumerator hands
    its integer rows to ``from_rows`` directly.  The set keeps those rows
    for the MLLL engine, in the order of ``vectors``: ``rows[i] / scale ==
    vectors[i]``.
    """

    vectors: tuple[Vector, ...]
    bound_sq: Fraction
    complete: bool = False
    rows: tuple[tuple[int, ...], ...] = field(
        init=False, compare=False, repr=False)
    scale: int = field(init=False, compare=False, repr=False)

    def __init__(self, vectors, bound_sq, complete=False):
        rows, scale = integerize(vectors)
        self._init_rows(rows, scale, bound_sq, complete)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], scale: int, bound_sq,
                  complete: bool = False) -> "GeneratingSet":
        """The set of the vectors ``row / scale``, for integer rows over one
        positive common denominator ``scale``; zero rows are dropped."""
        s = object.__new__(cls)
        s._init_rows(rows, scale, bound_sq, complete)
        return s

    def _init_rows(self, rows, scale, bound_sq, complete) -> None:
        if scale < 1:
            raise ValueError(f"scale must be a positive integer, got {scale}")
        bound_sq = Fraction(bound_sq)
        # n <= bound_sq * scale^2 iff n <= its floor, n being an integer.
        limit = bound_sq.numerator * scale * scale // bound_sq.denominator
        rows = [tuple(r) for r in rows]
        if len({len(r) for r in rows}) > 1:
            raise ValueError("vectors have mixed dimensions")
        keyed = []
        for r in rows:
            n = _idot(r, r)
            if not n:
                continue
            if n > limit:
                v = tuple(Fraction(c, scale) for c in r)
                raise ValueError(
                    f"vector {v} exceeds the squared norm bound {bound_sq}")
            keyed.append((n, r))
        # With scale > 0, (n, r) orders as (norm_sq, r / scale) does.
        keyed.sort()
        rows = tuple(r for _, r in keyed)
        # One Fraction per distinct entry; Fractions are immutable, so the
        # vectors can share them.
        frac = {c: Fraction(c, scale) for c in {c for r in rows for c in r}}
        object.__setattr__(self, "vectors", tuple(
            tuple(map(frac.__getitem__, r)) for r in rows))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "bound_sq", bound_sq)
        object.__setattr__(self, "complete", bool(complete))


def _row_hnf(rows: list[list[int]], d: int) -> list[list[int]]:
    """Row-style HNF: pivots left to right, zeros below, entries above a
    pivot reduced into [0, pivot)."""
    rows = [r[:] for r in rows if any(r)]
    r0 = 0
    for col in range(d):
        while True:
            nz = [i for i in range(r0, len(rows)) if rows[i][col] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(rows[i][col]))
            rows[r0], rows[piv] = rows[piv], rows[r0]
            done = True
            for i in range(r0 + 1, len(rows)):
                if rows[i][col] != 0:
                    q = rows[i][col] // rows[r0][col]
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[r0])]
                    if rows[i][col] != 0:
                        done = False
            if done:
                if rows[r0][col] < 0:
                    rows[r0] = [-a for a in rows[r0]]
                for j in range(r0):
                    q = rows[j][col] // rows[r0][col]
                    if q:
                        rows[j] = [a - q * b
                                   for a, b in zip(rows[j], rows[r0])]
                r0 += 1
                break
        if r0 == len(rows):
            break
    return [r for r in rows if any(r)]


def integerize(vectors: Iterable) -> tuple[list[list[int]], int]:
    """Rescale rational vectors by the lcm of all denominators: integer rows
    and that common denominator.

    ``int`` and ``Fraction`` entries are read as they are, anything else
    through ``Fraction(c)``; at a common denominator of 1 the rows are the
    numerators."""
    vs = [[c if type(c) is int or type(c) is Fraction else Fraction(c)
           for c in v] for v in vectors]
    scale = math.lcm(*{c.denominator for v in vs for c in v})
    if scale == 1:
        return [[c.numerator for c in v] for v in vs], 1
    return [[c.numerator * (scale // c.denominator) for c in v]
            for v in vs], scale


def _column_hnf(rows: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """Column-style HNF of a nonempty list of integer rows of one length."""
    red = _row_hnf([r[::-1] for r in rows], len(rows[0]))
    return tuple(tuple(reversed(r)) for r in reversed(red))


def canonical_basis(vectors: Sequence) -> tuple[Vector, ...]:
    """Presentation-independent canonical basis of the generated lattice.

    Rational generators are rescaled to integers once, brought to HNF, and
    scaled back; hnf(s*L) = s*hnf(L), so the result does not depend on the
    chosen scale.
    """
    ints, scale = integerize(vectors)
    if not ints:
        return ()
    return tuple(tuple(Fraction(c, scale) for c in row)
                 for row in _column_hnf(ints))


def _vectors_of(obj) -> tuple[Vector, ...]:
    if isinstance(obj, (LatticeBasis, GeneratingSet)):
        return obj.vectors
    return tuple(as_vector(v) for v in obj)


def lattice_equal(a, b) -> bool:
    """Whether two bases / generator sets generate the same lattice."""
    va, vb = _vectors_of(a), _vectors_of(b)
    if va and vb and len(va[0]) != len(vb[0]):
        raise ValueError("ambient dimensions differ")
    return canonical_basis(va) == canonical_basis(vb)


def is_member(basis: LatticeBasis, v) -> bool:
    """Lattice membership: v lies in the lattice iff adding it leaves the
    canonical basis unchanged."""
    v = as_vector(v)
    if basis.rank and len(v) != basis.dim:
        raise ValueError("dimension mismatch")
    return canonical_basis(basis.vectors + (v,)) == \
        canonical_basis(basis.vectors)


def volume_sq(basis: LatticeBasis) -> Fraction:
    """Squared volume (Gram determinant); rank may be below the dimension."""
    return basis.volume_sq
