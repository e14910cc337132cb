"""Complete short-vector enumeration: all nonzero lattice vectors with
squared norm up to a bound.

The enumerator is Fincke-Pohst recursive coordinate bounding on the
LLL-reduced basis built by the integral MLLL engine of ``latkit.reduction``
(reduce first, then enumerate, as Fincke and Pohst do).  The engine holds
that basis's Gram-Schmidt form as integers (the Gram determinants ``d_i`` and
``lambda_ij``), so every coordinate range is one integer square root and no
boundary vector can be lost to rounding.  Its independent check, a naive
coefficient-box scan over the given basis, is test code
(``tests/reference_enumeration.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .core import GeneratingSet, LatticeBasis, norm_sq
from .reduction import (
    DEFAULT_PARAMS,
    IncrementalLattice,
    ReductionParams,
    mlll,
)

DEFAULT_CAP = 10**6


class EnumerationCapExceeded(RuntimeError):
    """Raised instead of truncating when the vector count passes the cap."""

    def __init__(self, cap: int):
        super().__init__(f"enumeration exceeded the cap of {cap} vectors")
        self.cap = cap


@dataclass(frozen=True)
class EnumerationRequest:
    basis: LatticeBasis
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
    basis presented.  The search stays in the engine's integers up to the
    output: each vector found is kept as its integer row over the engine's
    ``scale``, and ``GeneratingSet.from_rows`` checks, sorts and converts
    them.
    """
    lat = IncrementalLattice.from_generators(req.basis.vectors)
    rows, d, lam, scale = lat.rows, lat.d, lat.lam, lat.scale
    n = lat.rank
    # With |b*_i|^2 = d_{i+1} / (d_i scale^2) and mu_ji = lam_ji / d_{i+1},
    # scale^2 |sum_i x_i b_i|^2 = sum_i u_i^2 / (d_i d_{i+1}), where
    # u_i = d_{i+1} x_i + sum_{j>i} lam_ji x_j.  Times lcm = lcm(d_i d_{i+1})
    # each term is the integer u_i^2 w_i, so the whole search is integral.
    dd = [d[i] * d[i + 1] for i in range(n)]
    lcm = math.lcm(*dd)
    w = [lcm // x for x in dd]
    top = req.bound_sq * scale * scale * lcm
    cols = list(zip(*rows))
    coeffs = [0] * n
    out: list[tuple[int, ...]] = []     # vectors times scale

    def recurse(i: int, budget: int) -> None:
        # budget = floor(lcm scale^2 bound_sq) - (terms of levels > i)
        di1, wi = d[i + 1], w[i]
        s = sum(lam[j][i] * coeffs[j] for j in range(i + 1, n))
        r = math.isqrt(budget // wi)     # |u_i| <= r
        for x in range(-((r + s) // di1), (r - s) // di1 + 1):
            coeffs[i] = x
            if i:
                u = di1 * x + s
                recurse(i - 1, budget - u * u * wi)
            elif any(coeffs):
                if len(out) >= req.cap:
                    raise EnumerationCapExceeded(req.cap)
                out.append(tuple(sum(map(mul, coeffs, col))
                                 for col in cols))
        coeffs[i] = 0

    recurse(n - 1, top.numerator // top.denominator)
    return GeneratingSet.from_rows(out, scale, req.bound_sq, complete=True)


def first_minimum_sq(basis: LatticeBasis,
                     params: ReductionParams = DEFAULT_PARAMS,
                     cap: int = DEFAULT_CAP) -> Fraction:
    """Squared first minimum lambda_1^2 of the lattice.

    Reduces the basis, then enumerates up to the shortest reduced basis
    vector; that ball is guaranteed to contain a shortest lattice vector.
    """
    if basis.rank < 1:
        raise ValueError("lattice of rank zero has no first minimum")
    reduced = mlll(basis.vectors, params)
    bound = min(norm_sq(v) for v in reduced.vectors)
    found = enumerate_up_to(EnumerationRequest(reduced, bound, cap))
    return norm_sq(found.vectors[0])
