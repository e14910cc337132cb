"""Basis computation from small generating sets: Pohst-style MLLL.

The reduction accepts linearly dependent (and duplicate) input vectors and
returns an LLL-reduced basis of the lattice they generate.  One engine,
``IncrementalLattice``, keeps the reduction state between insertions in
exact integers: the vectors as integer rows over a common denominator fixed
when the engine is built, the Gram determinants ``d_i`` and ``lambda_ij =
d_{j+1} mu_ij`` (de Weger 1987; Cohen, Alg. 2.6.7), with Pohst's handling
of a dependent vector.  All three algorithms run on it: batch reduction
(``mlll``) and the incremental basis construction, the successive-minima
scan and the short-vector enumerator (which reads the reduced basis's
Gram-Schmidt form from ``d`` and ``lambda``), and the decomposition's
membership scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import (
    LatticeBasis,
    _idot,
    as_vector,
    integerize,
)


@dataclass(frozen=True)
class ReductionParams:
    """Lovász parameter for the reduction; classical default 3/4."""

    delta: Fraction = Fraction(3, 4)

    def __post_init__(self):
        object.__setattr__(self, "delta", Fraction(self.delta))
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

    During an update at most one vector has ``b* = 0`` (the new vector, when
    it lies in the span).  Its slot ``z`` is tracked explicitly: ``d`` counts
    nonzero ``b*`` only, so ``d[z+1] = d[z]``, and ``lam[.][z] = 0``.  The
    swap rules are those of Pohst's rational MLLL, step for step, so every
    decision (and the output) is the same as there; the zero vector ends at
    position 0 and is dropped.
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
        dims = {len(r) for r in rows}
        if len(dims) > 1:
            raise ValueError("generators have mixed dimensions")
        return cls(dims.pop() if dims else 0, params, scale), rows

    @classmethod
    def from_generators(cls, generators: Sequence,
                        params: ReductionParams = DEFAULT_PARAMS
                        ) -> "IncrementalLattice":
        """Batch MLLL: every nonzero generator goes through the swap loop in
        order, with no membership shortcut."""
        lat, rows = cls.over(generators, params)
        for row in rows:
            if any(row):
                lat._add(row, *lat._gram_schmidt_row(row))
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
        """The current reduced basis, with ``volume_sq`` from ``d``."""
        s = self.scale
        vectors = tuple(tuple(Fraction(c, s) for c in row)
                        for row in self.rows)
        return LatticeBasis._trusted(vectors, self.volume_sq, self.dim)

    def insert(self, row: Sequence[int]) -> bool:
        """Localize the vector ``row / scale``, given as its integer row
        over the engine's scale; when it lies outside the lattice, add it.

        Returns whether the insertion was an update.  Membership is the
        nearest-plane reduction of the lambda-row: the vector is in the
        lattice iff it lies in the span (``d_{n+1} = 0``) and each
        coefficient, taken from the top, is an integer multiple of its ``d``.
        """
        lam_row, dn = self._gram_schmidt_row(row)
        if dn == 0 and self._reduces_to_zero(lam_row):
            return False
        self._add(row, lam_row, dn)
        return True

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

    # -- the MLLL loop --------------------------------------------------
    def _add(self, row: Sequence[int], lam_row: list[int], dn: int) -> None:
        """Append b_n and run the swap loop from k = n until the basis is
        reduced again."""
        rows, d, lam = self.rows, self.d, self.lam
        n = len(rows)
        rows.append(row)
        lam.append(lam_row)
        z: Optional[int] = None
        if dn == 0:
            z = n
            d.append(d[n])
        else:
            d.append(dn)
        p, q = self._p, self._q
        k = max(n, 1)
        while k < len(rows):
            lk = lam[k]
            if 2 * abs(lk[k - 1]) > d[k]:
                self._red(k, k - 1)
            if k == z:
                self.swaps += 1
                if lam[k][k - 1]:
                    self._swap_dependent(k)
                else:
                    self._exchange(k)
                    z = k - 1
                    if z == 0:
                        self._drop_front()
                        z = None
                        continue      # k = 1: the slot after the dropped one
                k = max(1, k - 1)
                continue
            x = lk[k - 1]
            if q * (d[k + 1] * d[k - 1] + x * x) < p * d[k] * d[k]:
                self.swaps += 1
                self._swap(k)
                k = max(1, k - 1)
            else:
                for l in range(k - 2, -1, -1):
                    if 2 * abs(lk[l]) > d[l + 1]:
                        self._red(k, l)
                k += 1

    def _red(self, k: int, l: int) -> None:
        """Size-reduce b_k by b_l, called when |mu_kl| > 1/2 (so slot l has
        b* != 0): subtract q b_l with q = floor(mu_kl + 1/2)."""
        lk = self.lam[k]
        x = lk[l]
        dl = self.d[l + 1]
        q = (2 * x + dl) // (2 * dl)
        rows = self.rows
        rows[k] = [a - q * c for a, c in zip(rows[k], rows[l])]
        lk[l] = x - q * dl
        ll = self.lam[l]
        for i in range(l):
            lk[i] -= q * ll[i]

    def _swap_rows(self, k: int, x: int) -> None:
        """Exchange b_{k-1} and b_k with their lambda entries below k-1;
        the new lambda_{k,k-1} is x."""
        rows, lam = self.rows, self.lam
        rows[k - 1], rows[k] = rows[k], rows[k - 1]
        old_k1 = lam[k - 1]
        lam[k - 1] = lam[k][:k - 1]
        lam[k] = old_k1 + [x]

    def _swap(self, k: int) -> None:
        """Swap two slots with b* != 0 (Cohen, Alg. 2.6.7, SWAPI)."""
        d, lam = self.d, self.lam
        x = lam[k][k - 1]
        self._swap_rows(k, x)
        dk, dk1 = d[k], d[k + 1]
        b = (d[k - 1] * dk1 + x * x) // dk
        for i in range(k + 1, len(lam)):
            li = lam[i]
            t = li[k]
            li[k] = (dk1 * li[k - 1] - x * t) // dk
            li[k - 1] = (b * t + x * li[k]) // dk1
        d[k] = b

    def _exchange(self, k: int) -> None:
        """Slot k has b* = 0 and mu_{k,k-1} = 0: the zero slot moves to
        k-1, the nonzero one up to k."""
        d, lam = self.d, self.lam
        self._swap_rows(k, 0)
        d[k] = d[k - 1]
        for i in range(k + 1, len(lam)):
            li = lam[i]
            li[k - 1], li[k] = li[k], li[k - 1]

    def _swap_dependent(self, k: int) -> None:
        """Slot k has b* = 0 and mu = mu_{k,k-1} != 0.  After the swap the
        new b*_{k-1} is mu times the old one and slot k still has b* = 0, so
        d_k and every later d_j and lambda_.j scale by mu^2 = x^2/d_k^2."""
        d, lam = self.d, self.lam
        x = lam[k][k - 1]
        self._swap_rows(k, x)
        dk = d[k]
        x2 = x * x
        dk2 = dk * dk
        d[k] = d[k + 1] = x2 // dk
        for j in range(k + 2, len(d)):
            d[j] = d[j] * x2 // dk2
        for i in range(k + 1, len(lam)):
            li = lam[i]
            li[k - 1] = x * li[k - 1] // dk
            for j in range(k + 1, i):
                li[j] = li[j] * x2 // dk2

    def _drop_front(self) -> None:
        """Remove the zero vector that reached position 0."""
        self.rows.pop(0)
        self.lam.pop(0)
        for li in self.lam:
            li.pop(0)
        self.d.pop(0)


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
    return mlll(list(basis.vectors) + [as_vector(v)], params)
