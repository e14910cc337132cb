"""Exact rational linear algebra kernel for lattice computations.

A family of rational vectors is carried as integer rows over one positive
common denominator, its ``scale``: ``integerize`` is the one normalizer of
vectors handed in (``int`` and ``Fraction`` entries, or anything
``Fraction()`` accepts), and ``LatticeBasis``, ``GeneratingSet`` and
``MinimaResult`` keep only rows over their least common denominator, which
``_set_rows`` takes rows and scale to.  ``Fraction`` vectors are formed
only where the API hands vectors out: their ``vectors``,
``MinimaResult.witnesses`` and ``canonical_basis``.  Norms and volumes
are carried as squared quantities, so every comparison stays rational; the
independence check of ``LatticeBasis``, the norm order of ``GeneratingSet``
and the Hermite normal form behind lattice equality and membership all run
on the integer rows.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import chain
from operator import attrgetter, mul, neg

Vector = tuple[Fraction, ...]


def norm_sq(v: Vector) -> Fraction:
    return sum((c * c for c in v), Fraction(0))


def _idot(u, v) -> int:
    return sum(map(mul, u, v))


def _det_bareiss_int(m: list[list[int]]) -> int:
    """Determinant of a Gram matrix of integer rows by fraction-free
    elimination.  The input must be a Gram matrix: each pivot is then the
    Gram determinant of the leading rows, so a zero pivot means those rows
    are dependent and the determinant is 0; no row exchange is needed."""
    n = len(m)
    if n == 0:
        return 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return m[n - 1][n - 1]


class _Value:
    """Base of the immutable value types, which name their fields in
    ``__slots__``.  It gives what ``@dataclass(frozen=True)`` gave them:
    equality within one class, hash and repr on the fields, and
    ``FrozenInstanceError``; copy and pickle set the fields back as the
    constructors set them, through ``object.__setattr__``."""

    __slots__ = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls.__slots__)    # a bare value for one field
        astuple = get if len(cls.__slots__) > 1 else lambda x: (get(x),)

        def __eq__(self, other):    # closures: no per-call lookup of get
            if other.__class__ is self.__class__:
                return get(self) == get(other)
            return NotImplemented
        cls.__eq__, cls.__hash__ = __eq__, lambda self: hash(astuple(self))
        cls.__getstate__ = lambda self: astuple(self)

    def __repr__(self):
        fields = map("{}={!r}".format, self.__slots__, self.__getstate__())
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value, verb="assign to"):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot {verb} field {name!r}")

    def __delattr__(self, name):
        self.__setattr__(name, None, "delete")

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


class LatticeBasis(_Value):
    """Ordered linearly independent vectors with their squared volume (the
    Gram determinant), computed once: by the independence check, or by the
    MLLL engine that hands its output to ``_trusted``.

    The vectors are kept as integer rows over their least common
    denominator, as for ``GeneratingSet``: ``vectors[i] == rows[i] /
    scale``, formed as ``Fraction``s on each access.  The check runs on the
    rows (``integerize`` of the input): the Gram determinant ``D`` of the
    rows is taken fraction-free, and ``volume_sq = D / scale^(2n)``."""

    __slots__ = ("rows", "scale", "volume_sq", "dim")
    rows: tuple[tuple[int, ...], ...]
    scale: int
    volume_sq: Fraction
    dim: int

    def __init__(self, vectors: Iterable, dim: int | None = None):
        rows, scale = integerize(vectors)
        if rows:
            if dim is not None and dim != len(rows[0]):
                raise ValueError("dim does not match vector length")
            dim = len(rows[0])
            if len(rows) > dim:
                raise ValueError("more basis vectors than the dimension")
        det = _det_bareiss_int([[_idot(u, v) for v in rows] for u in rows])
        if det == 0:
            raise ValueError("basis vectors are linearly dependent")
        _set_rows(self, rows, scale, dim=dim or 0,
                  volume_sq=Fraction(det, scale ** (2 * len(rows))))

    @classmethod
    def _trusted(cls, rows: Iterable[Sequence[int]], scale: int,
                 volume_sq: Fraction, dim: int) -> "LatticeBasis":
        """A basis from integer rows over ``scale``, independent by
        construction (the output of a reduction); skips the check."""
        basis = object.__new__(cls)
        _set_rows(basis, rows, scale, volume_sq=volume_sq, dim=dim)
        return basis

    @property
    def vectors(self) -> tuple[Vector, ...]:
        s = self.scale
        return tuple(tuple(Fraction(c, s) for c in r) for r in self.rows)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def __repr__(self):
        return f"LatticeBasis({list(self.vectors)!r})"


class GeneratingSet(_Value):
    """Multiset of nonzero lattice vectors with a squared norm bound, kept
    in nondecreasing squared norm with lexicographic ties, whatever the
    input order; zero vectors are dropped, and vectors of different lengths
    are rejected.

    ``complete`` means the producer asserts the set contains every nonzero
    lattice vector of squared norm at most ``bound_sq``; so it holds ``-v``
    with every ``v``, which the constructor checks and ``from_rows`` trusts.

    The vectors are kept as integer rows over their least common
    denominator, ``vectors[i] == rows[i] / scale``, formed as ``Fraction``s
    on each access.  That scale is unique, so equality and hashing on
    ``rows`` and ``scale`` are those on the vectors.
    """

    __slots__ = ("rows", "scale", "bound_sq", "complete")
    rows: tuple[tuple[int, ...], ...]
    scale: int
    bound_sq: Fraction
    complete: bool

    def __init__(self, vectors, bound_sq, complete=False):
        rows, scale = integerize(vectors)
        self._take(_norm_order(rows, scale, bound_sq), scale, bound_sq,
                   complete)
        rows = self.rows
        if complete and {*rows} != {tuple(map(neg, r)) for r in rows}:
            raise ValueError("a complete set must hold -v with every v")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], scale: int, bound_sq,
                  complete: bool = False) -> "GeneratingSet":
        """The set of the vectors ``row / scale``, for integer rows over one
        positive common denominator ``scale``; zero rows are dropped.  A
        ``complete`` set must hold ``-r`` with every ``r``, unchecked here:
        the caller vouches for it.  ``_norm_order`` checks the scale, the
        row lengths and the bound and sorts the rows; ``_sorted`` takes
        them then, as it takes the enumerator's rows."""
        return cls._sorted(_norm_order(rows, scale, bound_sq), scale,
                           bound_sq, complete)

    @classmethod
    def _sorted(cls, rows, scale: int, bound_sq,
                complete: bool = False) -> "GeneratingSet":
        """The set of nonzero integer rows of one length over ``scale``,
        already within the bound and in (norm, lex) order, as
        ``enumerate_up_to`` emits them: no check, no sort."""
        s = object.__new__(cls)
        s._take(rows, scale, bound_sq, complete)
        return s

    def _take(self, rows, scale, bound_sq, complete) -> None:
        _set_rows(self, rows, scale, bound_sq=Fraction(bound_sq),
                  complete=bool(complete))

    vectors = LatticeBasis.vectors      # rows / scale, on each access


def _norm_order(rows: Iterable[Sequence[int]], scale: int,
                bound_sq) -> list[tuple[int, ...]]:
    """The nonzero integer rows over ``scale`` in nondecreasing squared
    norm with lexicographic ties, which is the order of the vectors ``row /
    scale``.  Refuses a scale below 1, rows of mixed lengths and a row past
    the squared norm bound."""
    bound_sq = Fraction(bound_sq)
    if scale < 1:
        raise ValueError(f"scale must be a positive integer, got {scale}")
    rows = list(map(tuple, rows))
    if len({*map(len, rows)}) > 1:
        raise ValueError("vectors have mixed dimensions")
    # n <= bound_sq * scale^2 iff n <= its floor, n being an integer.
    limit = bound_sq.numerator * scale * scale // bound_sq.denominator
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
    keyed.sort()
    return [r for _, r in keyed]


def _complete_rows(s: GeneratingSet, requires: str) -> tuple:
    """``s.rows``, refused when empty or when ``s`` is not complete."""
    if not s.rows:
        raise ValueError("generating set is empty")
    if not s.complete:
        raise ValueError(f"{requires} a complete set")
    return s.rows


def integerize(vectors: Iterable) -> tuple[list[list[int]], int]:
    """Rescale rational vectors by the lcm of all denominators: integer rows
    and that common denominator.  All-``int`` rows come back as they are;
    otherwise ``int`` and ``Fraction`` entries are read as they are, anything
    else through ``Fraction(c)``.  Vectors of different lengths raise."""
    vs = list(map(list, vectors))
    scale = 1
    if not {*map(type, chain.from_iterable(vs))} <= {int}:
        vs = [[c if type(c) is int or type(c) is Fraction else Fraction(c)
               for c in v] for v in vs]
        scale = math.lcm(*{c.denominator for v in vs for c in v})
        vs = [[c.numerator * (scale // c.denominator) for c in v]
              for v in vs]
    if len({*map(len, vs)}) > 1:
        raise ValueError("vectors have mixed dimensions")
    return vs, scale


def _set_rows(obj, rows: Iterable, scale: int, **fields) -> None:
    """Set ``obj.rows`` and ``obj.scale`` from integer rows over a positive
    ``scale``, both divided by their gcd (the same vectors over their least
    common denominator, unique, so equality and hashing on them are those
    on the vectors), the rows as int tuples; then the other ``fields``."""
    if scale < 1:
        raise ValueError(f"scale must be a positive integer, got {scale}")
    rows = tuple(map(tuple, rows))
    g = math.gcd(scale, *chain.from_iterable(rows)) if scale > 1 else 1
    if g > 1:
        rows = tuple(tuple(c // g for c in r) for r in rows)
    for name, value in dict(fields, rows=rows, scale=scale // g).items():
        object.__setattr__(obj, name, value)


def _column_hnf(rows: Sequence) -> tuple[tuple[int, ...], ...]:
    """Column-style Hermite normal form of integer rows of one length, the
    library's one HNF routine: each row ends in a positive pivot, the
    pivots' columns increase down the rows, and later rows' entries in a
    pivot's column lie in [0, pivot).  Eliminates from the last column with
    one unimodular 2x2 step per row and pivot column (Kannan & Bachem
    1979): an exact division where the pivot divides the row's entry, else
    the extended gcd of the two, which leaves their gcd in the pivot row."""
    rows = [list(r) for r in rows if any(r)]
    n = len(rows)
    r0 = 0
    for col in range(len(rows[0]) - 1, -1, -1) if rows else ():
        piv = next((i for i in range(r0, n) if rows[i][col]), n)
        if piv == n:
            continue
        p = rows[piv]
        rows[piv] = rows[r0]
        a = p[col]
        for i in range(piv + 1, n):
            r = rows[i]
            b = r[col]
            if not b:
                continue
            q, rem = divmod(b, a)
            if not rem:
                rows[i] = [y - q * x for x, y in zip(p, r)]
                continue
            # s a + t b = g: the rows (s, t) and (-b/g, a/g) are unimodular.
            g = math.gcd(a, b)
            ag, bg = a // g, b // g
            s = pow(ag, -1, abs(bg))
            t = (1 - s * ag) // bg
            rows[i] = [ag * y - bg * x for x, y in zip(p, r)]
            p = [s * x + t * y for x, y in zip(p, r)]
            a = g
        if a < 0:
            p = [-x for x in p]
            a = -a
        for j in range(r0):
            q = rows[j][col] // a
            if q:
                rows[j] = [y - q * x for x, y in zip(p, rows[j])]
        rows[r0] = p
        r0 += 1
        if r0 == n:
            break
    return tuple(map(tuple, reversed(rows[:r0])))


def _hnf_basis(rows: Sequence, scale: int) -> tuple[Vector, ...]:
    """Canonical basis of the lattice of integer rows over ``scale``: their
    HNF, as ``Fraction`` vectors.  As hnf(kL) = k hnf(L), it depends only
    on the lattice, not on the rows or the scale that present it."""
    return tuple(tuple(Fraction(c, scale) for c in r)
                 for r in _column_hnf(rows))


def canonical_basis(vectors: Sequence) -> tuple[Vector, ...]:
    """Presentation-independent canonical basis of the generated lattice:
    ``_hnf_basis`` of the vectors rescaled to integer rows."""
    return _hnf_basis(*integerize(vectors))


def lattice_equal(a, b) -> bool:
    """Whether two bases / generator sets generate the same lattice: as
    hnf(s*L) = s*hnf(L), iff the HNFs of their integer rows agree once each
    is multiplied by the other side's scale."""
    (ra, sa), (rb, sb) = (
        (x.rows, x.scale) if isinstance(x, (LatticeBasis, GeneratingSet))
        else integerize(x) for x in (a, b))
    if ra and rb and len(ra[0]) != len(rb[0]):
        raise ValueError("ambient dimensions differ")
    return [[sb * c for c in r] for r in _column_hnf(ra)] == \
        [[sa * c for c in r] for r in _column_hnf(rb)]


def is_member(basis: LatticeBasis, v: Sequence) -> bool:
    """Lattice membership: v lies in the lattice iff adding it leaves the
    lattice unchanged."""
    if basis.rank and len(v) != basis.dim:
        raise ValueError("dimension mismatch")
    return lattice_equal(basis, (*basis.vectors, v))


def volume_sq(basis: LatticeBasis) -> Fraction:
    """Squared volume (Gram determinant); rank may be below the dimension."""
    return basis.volume_sq
