"""Basis computation from small generating sets: MLLL.

The reduction accepts linearly dependent (and duplicate) input vectors and
returns an LLL-reduced basis of the lattice they generate.  One engine,
``IncrementalLattice``, keeps the reduction state between insertions in
exact integers: the vectors as integer rows over a common denominator fixed
when the engine is built, the Gram determinants ``d_i`` and ``lambda_ij =
d_{j+1} mu_ij`` (de Weger 1987; Cohen, Alg. 2.6.7).  An independent vector
enters the integral LLL swap loop; a vector in the span rebuilds the engine
from the Hermite normal form of its rows and that vector, except where a
full-rank rebuild's new determinant comes out 1: the engine then takes the
state of ``Z^dim`` (unit rows, every ``d_i`` 1) directly.  All three
algorithms run on it: batch reduction (``mlll``) and the incremental basis
construction, the short-vector enumerator (which reads the reduced basis's
Gram-Schmidt form from ``d`` and ``lambda``), the scan of the minima and
the decomposition (``_scan``) and the decomposition's merge.

Once the engine holds ``dim`` rows with ``d_dim = 1``, localization takes no
arithmetic: ``d_dim`` is the squared determinant of the integer rows, so
they generate all of ``Z^dim`` and every integer row over the scale is a
member; the lattice only grows, so this stays true.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction

from .core import (LatticeBasis, _column_hnf, _complete_rows, _det_with,
                   _idot, _Value, integerize)


class ReductionParams(_Value):
    """Lovász parameter for the reduction; classical default 3/4."""

    __slots__ = ("delta",)
    delta: Fraction

    def __init__(self, delta=Fraction(3, 4)):
        object.__setattr__(self, "delta", Fraction(delta))
        if not Fraction(1, 4) < self.delta <= 1:
            raise ValueError("delta must satisfy 1/4 < delta <= 1")


DEFAULT_PARAMS = ReductionParams()


class IncrementalLattice:
    """LLL-reduced basis of the lattice spanned by the vectors inserted so
    far, with its integral Gram-Schmidt state.

    Between insertions ``rows`` holds ``n`` independent integer vectors
    ``b_0..b_{n-1}``; the lattice is ``rows / scale``.  The scale is fixed
    when the engine is built (Cohen's Alg. 2.6.7 works at one integer
    scale), and every vector inserted is an integer row over it.  ``d[i]``
    is the Gram determinant of ``b_0..b_{i-1}`` and ``lam[i][j] = d[j+1]
    mu_ij`` for ``j < i``; both are integers, so the loop needs no ``b*``
    vectors and no ``Fraction``.

    An independent vector is appended and the swap loop runs from its slot,
    with the decisions of Pohst's rational MLLL step for step.  A vector in
    the span would leave a zero ``b*``; instead the engine is rebuilt from
    the HNF of its rows and that vector, so every ``b*`` stays nonzero.  At
    rank ``dim`` the rebuild first works out the new determinant from the
    vector's lambda-row; when it is 1 the new lattice is ``Z^dim``, whose
    HNF is the identity, and the engine takes the state ``extend`` leaves
    over it (unit rows, ``d`` all 1, ``lam`` all 0, no swap) directly.

    At rank ``dim`` with ``d[dim] == 1`` the rows generate ``Z^dim``
    (``d[dim]`` is the squared determinant of the rows), so ``insert``
    answers every row a member at once; as the lattice only grows under
    ``insert`` and ``extend``, that stays true.
    """

    __slots__ = ("dim", "scale", "rows", "d", "lam", "swaps", "_p", "_q")

    def __init__(self, dim: int, params: ReductionParams = DEFAULT_PARAMS,
                 scale: int = 1):
        self.dim = dim
        self.scale = scale
        self.rows: list[Sequence[int]] = []
        self.d: list[int] = [1]
        self.lam: list[list[int]] = []
        self.swaps = 0
        self._p = params.delta.numerator
        self._q = params.delta.denominator

    @classmethod
    def over(cls, generators: Sequence,
             params: ReductionParams = DEFAULT_PARAMS
             ) -> tuple["IncrementalLattice", list[list[int]]]:
        """An empty engine at the common denominator of ``generators``, and
        their integer rows over it (zero rows included)."""
        rows, scale = integerize(generators)
        return cls(len(rows[0]) if rows else 0, params, scale), rows

    @classmethod
    def from_generators(cls, generators: Sequence,
                        params: ReductionParams = DEFAULT_PARAMS
                        ) -> "IncrementalLattice":
        """Batch MLLL of ``generators``: ``extend`` over their rows."""
        lat, rows = cls.over(generators, params)
        lat.extend(rows)
        return lat

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def volume_sq(self) -> Fraction:
        """Squared volume of the current lattice: d_n / scale^(2n)."""
        n = len(self.rows)
        return Fraction(self.d[n], self.scale ** (2 * n))

    def basis(self) -> LatticeBasis:
        """The current reduced basis: its rows over the engine's scale, in
        lowest terms, with ``volume_sq`` from ``d``."""
        return LatticeBasis._trusted(self.rows, self.scale, self.volume_sq,
                                     self.dim)

    def extend(self, rows: Iterable[Sequence[int]]) -> None:
        """Batch MLLL: every nonzero row, an integer row over the engine's
        scale, goes through the swap loop in order, with no membership
        test."""
        for row in rows:
            if any(row):
                self._add(row, *self._gram_schmidt_row(row))

    def insert(self, row: Sequence[int]) -> bool:
        """Localize the vector ``row / scale``, given as its integer row
        over the engine's scale; when it lies outside the lattice, add it.

        Returns whether the insertion was an update.  Once the rows span
        ``Z^dim`` (rank ``dim`` and ``d[dim] == 1``: the integer rows have
        determinant +-1, and the lattice only grows), every row is a member
        at once.  Otherwise membership is the nearest-plane reduction of
        the lambda-row: the vector is in the lattice iff it lies in the span
        (``d_{n+1} = 0``) and each coefficient, taken from the top, is an
        integer multiple of its ``d``.
        """
        if len(self.rows) == self.dim and self.d[-1] == 1:
            return False
        lam_row, dn = self._gram_schmidt_row(row)
        was_update = dn != 0 or not self._reduces_to_zero(lam_row)
        if was_update:
            self._add(row, lam_row, dn)
        return was_update

    # -- state ----------------------------------------------------------
    def _gram_schmidt_row(self, v: Sequence[int]) -> tuple[list[int], int]:
        """Integral Gram-Schmidt of v against the current basis: the row
        ``lam_vj = d_{j+1} mu_vj`` and the next Gram determinant
        ``d_{n+1}`` (zero iff v lies in the span)."""
        rows, d, lam = self.rows, self.d, self.lam
        out: list[int] = []
        for j, b in enumerate(rows):
            u = _idot(v, b)
            lj = lam[j]
            for i in range(j):
                u = (d[i + 1] * u - out[i] * lj[i]) // d[i]
            out.append(u)
        u = _idot(v, v)
        for i, x in enumerate(out):
            u = (d[i + 1] * u - x * x) // d[i]
        return out, u

    def _reduces_to_zero(self, lam_row: list[int]) -> bool:
        d, lam = self.d, self.lam
        r = lam_row[:]
        for l in range(len(r) - 1, -1, -1):
            x = r[l]
            if x:
                q, rem = divmod(x, d[l + 1])
                if rem:
                    return False
                ll = lam[l]
                for i in range(l):
                    r[i] -= q * ll[i]
        return True

    def _full_rank_update(self, row: Sequence[int], lam_row: list[int]
                          ) -> tuple[int, tuple | None]:
        """The lattice of the rows and ``row``, a row in their span, at rank
        ``dim``: its determinant, from the row's lambda-row by ``_det_with``,
        and its HNF; or ``(1, None)`` when it is ``Z^dim``, whose state
        (that of ``extend`` over the identity) the engine takes, no HNF."""
        rows, d = self.rows, self.d
        g = _det_with(math.isqrt(d[-1]), lam_row, self.lam, d[1:])
        if g > 1:
            return g, _column_hnf([*rows, row])
        self._take_z_dim()
        return 1, None

    def _take_z_dim(self) -> None:
        """Unit rows, every ``d_i`` 1 and ``lambda`` 0, with no swap."""
        n = self.dim
        self.rows[:] = [tuple(int(i == j) for i in range(n))
                        for j in range(n)]
        self.lam[:] = [[0] * j for j in range(n)]
        self.d[1:] = [1] * n

    def _rebuild(self, hnf: Iterable[Sequence[int]]) -> None:
        """``extend`` over the rows of ``hnf`` from empty."""
        del self.rows[:], self.lam[:], self.d[1:]
        self.extend(hnf)

    # -- the MLLL loop --------------------------------------------------
    def _add(self, row: Sequence[int], lam_row: list[int], dn: int) -> None:
        """Append b_n and run the swap loop from k = n until the basis is
        reduced again: size reduction by r = floor(mu_kl + 1/2) when |mu_kl|
        > 1/2, and the exchange of slots k-1 and k by SWAPI (Cohen, Alg.
        2.6.7).  A row in the span (``dn == 0``) rebuilds the engine instead:
        ``extend`` over the ``_column_hnf`` of its rows and that row, which
        are independent.  That HNF routine is the ``lattice_equal`` oracle's
        too, so the tests check every rebuild against ``reference_hnf``.
        At rank ``dim`` the rebuild is ``_full_rank_update``'s."""
        rows, d, lam = self.rows, self.d, self.lam
        n = len(rows)
        if dn == 0:
            hnf = (self._full_rank_update(row, lam_row)[1] if n == self.dim
                   else _column_hnf([*rows, row]))
            if hnf:
                self._rebuild(hnf)
            return
        rows.append(row)
        lam.append(lam_row)
        d.append(dn)
        p, q = self._p, self._q
        swaps = 0
        k = max(n, 1)
        while k <= n:
            k1 = k - 1
            lk = lam[k]
            x = lk[k1]
            dk = d[k]
            if 2 * abs(x) > dk:
                r = (2 * x + dk) // (2 * dk)
                rows[k] = [a - r * c for a, c in zip(rows[k], rows[k1])]
                x -= r * dk
                lk[k1] = x
                ll = lam[k1]
                for i in range(k1):
                    lk[i] -= r * ll[i]
            # Lovász condition met: size-reduce by the other slots, go on.
            if q * (d[k + 1] * d[k1] + x * x) >= p * dk * dk:
                for l in range(k1 - 1, -1, -1):
                    y = lk[l]
                    dl = d[l + 1]
                    if 2 * abs(y) > dl:
                        r = (2 * y + dl) // (2 * dl)
                        rows[k] = [a - r * c
                                   for a, c in zip(rows[k], rows[l])]
                        lk[l] = y - r * dl
                        ll = lam[l]
                        for i in range(l):
                            lk[i] -= r * ll[i]
                k += 1
                continue
            # Exchange b_{k-1} and b_k by SWAPI; the new lambda_{k,k-1} is x.
            swaps += 1
            rows[k1], rows[k] = rows[k], rows[k1]
            lam[k] = lam[k1] + [x]
            lam[k1] = lk[:k1]
            dk1 = d[k + 1]
            b = (d[k1] * dk1 + x * x) // dk
            for i in range(k + 1, n + 1):
                li = lam[i]
                t = li[k]
                li[k] = (dk1 * li[k1] - x * t) // dk
                li[k1] = (b * t + x * li[k]) // dk1
            d[k] = b
            k = k1 or 1
        self.swaps += swaps


def _scan(s, requires: str, target: tuple[int, int] | None = None
          ) -> Iterator[tuple[tuple[int, ...], int]]:
    """The norm-ordered scan of the minima and the decomposition: the rows
    of the complete set ``s`` go in its order into one engine over
    ``s.scale``, and each update yields the row and the rank reached.  The
    engine is the scan's own, at the default delta: membership depends on
    the lattice alone.  Of ``v`` and ``-v``, both in a complete set, the row
    below zero (first nonzero entry negative) comes first, and only it is
    inserted: the other is then a member.  ``requires`` names the caller in
    the incomplete-set error.

    ``target``, a rank ``n`` and an integer ``D``, is a lattice ``L`` that
    holds ``s``: ``n`` its rank and ``D`` its squared volume times
    ``s.scale^(2n)``.  The scan then ends right after the update at which
    the engine has rank ``n`` and ``d[n] == D``: its lattice lies in ``L``
    with ``L``'s rank and volume, so it is ``L``, and no later row can be
    an update."""
    rows = _complete_rows(s, requires)
    engine = IncrementalLattice(len(rows[0]), scale=s.scale)
    zero = (0,) * engine.dim
    for row in rows:
        if row < zero and engine.insert(row):
            yield row, engine.rank
            if target and (engine.rank, engine.d[-1]) == target:
                return


def mlll(generators: Sequence, params: ReductionParams = DEFAULT_PARAMS
         ) -> LatticeBasis:
    """LLL-reduced basis of the lattice generated by arbitrary vectors.

    Input may be linearly dependent and contain duplicates or zeros; the
    output rank equals the rank of the input.
    """
    return IncrementalLattice.from_generators(generators, params).basis()


def basis_union(basis: LatticeBasis, v, params: ReductionParams =
                DEFAULT_PARAMS) -> LatticeBasis:
    """Basis of L + Zv: the update step of the incremental construction."""
    return mlll([*basis.vectors, v], params)
