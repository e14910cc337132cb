"""Complete short-vector enumeration: all nonzero lattice vectors with
squared norm up to a bound.

The enumerator is Fincke-Pohst recursive coordinate bounding on the
LLL-reduced basis built by the integral MLLL engine of ``latkit.reduction``
(reduce first, then enumerate, as Fincke and Pohst do).  A caller that
already holds the engine passes it in, and the basis is not reduced again.
The engine holds that basis's Gram-Schmidt form as integers (the Gram
determinants ``d_i`` and ``lambda_ij``), so every coordinate range is one
integer square root and no boundary vector can be lost to rounding.

Each piece of work is done once.  While every higher coefficient is zero,
``x`` and ``-x`` at a level lead to vectors ``v`` and ``-v``, so the search
takes ``x >= 0`` there (``x > 0`` at level 0) and emits each vector found
with its negation.  The row ``sum_{j>=i} x_j b_j`` runs down the recursion
and steps by ``b_i`` as ``x_i`` advances, so a leaf costs one row addition;
the leaf already holds the row's squared norm in the search's integers, so
the rows are sorted on it once and the set takes them with no check and no
second norm (``GeneratingSet._sorted``).
Its independent check, a naive coefficient-box scan over the given basis,
and the enumerator as it ran before are test code
(``tests/reference_enumeration.py``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import add, neg

from .core import GeneratingSet, LatticeBasis, _idot
from .reduction import IncrementalLattice

DEFAULT_CAP = 10**6


class EnumerationCapExceeded(RuntimeError):
    """Raised instead of truncating when the vector count passes the cap."""

    def __init__(self, cap: int):
        super().__init__(f"enumeration exceeded the cap of {cap} vectors")


@dataclass(frozen=True)
class EnumerationRequest:
    """The lattice to search, as a ``LatticeBasis`` or as an engine that
    already holds its reduced basis (``IncrementalLattice``), and the
    squared norm bound; at most ``cap`` vectors may be found."""

    basis: LatticeBasis | IncrementalLattice
    bound_sq: Fraction
    cap: int = DEFAULT_CAP

    def __post_init__(self):
        object.__setattr__(self, "bound_sq", Fraction(self.bound_sq))
        if self.bound_sq <= 0:
            raise ValueError("bound_sq must be positive")
        if self.basis.rank < 1:
            raise ValueError("basis must have rank at least 1")


def enumerate_up_to(req: EnumerationRequest) -> GeneratingSet:
    """All nonzero lattice vectors v with norm_sq(v) <= bound_sq.

    Output is closed under negation and, as every ``GeneratingSet`` is,
    sorted by squared norm, then lexicographically; raises
    EnumerationCapExceeded rather than ever returning a truncated, silently
    incomplete set.  Neither the output nor the cap behaviour depends on the
    basis presented.  A ``LatticeBasis`` is reduced first, its integer rows
    in an engine built at its scale; an engine is searched as it stands.
    The search stays in the engine's integers up to the output: each vector
    found is kept as its integer row over the engine's ``scale`` with the
    row's squared norm, worked out at the leaf; the rows are sorted on
    (norm, row) once, and ``GeneratingSet._sorted`` brings them to their
    least common denominator.  The search itself guarantees what
    ``GeneratingSet.from_rows`` would check: the bound, one length and
    ``-v`` with every ``v``.
    """
    lat = req.basis
    if not isinstance(lat, IncrementalLattice):
        lat = IncrementalLattice(lat.dim, scale=lat.scale)
        lat.extend(req.basis.rows)
    rows, d, lam, scale = lat.rows, lat.d, lat.lam, lat.scale
    n = lat.rank
    cap = req.cap
    # With |b*_i|^2 = d_{i+1} / (d_i scale^2) and mu_ji = lam_ji / d_{i+1},
    # scale^2 |sum_i x_i b_i|^2 = sum_i u_i^2 / (d_i d_{i+1}), where
    # u_i = d_{i+1} x_i + sum_{j>i} lam_ji x_j.  Times lcm = lcm(d_i d_{i+1})
    # each term is the integer u_i^2 w_i, so the whole search is integral.
    dd = [d[i] * d[i + 1] for i in range(n)]
    lcm = math.lcm(*dd)
    w = [lcm // x for x in dd]
    bound = req.bound_sq    # top = floor(bound_sq scale^2 lcm), in ints
    top = bound.numerator * scale * scale * lcm // bound.denominator
    coeffs = [0] * n
    out: list[tuple[int, tuple[int, ...]]] = []  # (|v|^2 scale^2, v scale)

    def recurse(i: int, budget: int, above: tuple[int, ...],
                first: bool) -> None:
        # budget = floor(lcm scale^2 bound_sq) - (terms of levels > i);
        # above = sum_{j>i} x_j b_j; first: every x_j above i is zero, so
        # x and -x give v and -v, and only x >= 0 is searched (x > 0 at
        # level 0, where x = 0 would give the zero vector).
        di1, wi, b = d[i + 1], w[i], rows[i]
        s = sum(lam[j][i] * coeffs[j] for j in range(i + 1, n))
        r = math.isqrt(budget // wi)     # |u_i| <= r
        lo = (0 if i else 1) if first else -((r + s) // di1)
        v = tuple(a + lo * c for a, c in zip(above, b)) if lo else above
        for x in range(lo, (r - s) // di1 + 1):
            u = di1 * x + s
            if i:
                coeffs[i] = x
                recurse(i - 1, budget - u * u * wi, v, first and not x)
            else:
                # The count grows in pairs and so stays even: this raises
                # exactly when the total passes the cap.
                if len(out) + 2 > cap:
                    raise EnumerationCapExceeded(cap)
                # The levels above sum to top - budget, so the row's
                # squared norm is an exact division.
                norm = (top - budget + u * u * wi) // lcm
                out.append((norm, v))
                out.append((norm, tuple(map(neg, v))))
            v = tuple(map(add, v, b))

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + n)    # the search goes n levels deep
    try:
        recurse(n - 1, top, (0,) * lat.dim, True)
    finally:
        sys.setrecursionlimit(limit)
    # (norm, row) orders as (norm_sq, vector) does, scale being positive.
    out.sort()
    return GeneratingSet._sorted([r for _, r in out], scale, req.bound_sq,
                                 complete=True)


def first_minimum_sq(basis: LatticeBasis, cap: int = DEFAULT_CAP) -> Fraction:
    """Squared first minimum lambda_1^2 of the lattice.

    Enumerates up to the shortest vector of the basis given, a ball that
    holds a shortest lattice vector; the search reduces the basis first.
    Pass a reduced basis, such as any output of the MLLL engine: on one
    that is not, the ball, and so the vector count against ``cap``, can be
    far larger.
    """
    if basis.rank < 1:
        raise ValueError("lattice of rank zero has no first minimum")
    bound = Fraction(min(_idot(r, r) for r in basis.rows), basis.scale ** 2)
    s = enumerate_up_to(EnumerationRequest(basis, bound, cap))
    row = s.rows[0]
    return Fraction(_idot(row, row), s.scale ** 2)
