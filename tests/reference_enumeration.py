"""Reference short-vector enumeration, as test code only: the naive
coefficient-box scan that checks the Fincke-Pohst enumerator of
``latkit.enumeration``, and a frozen copy of that enumerator.

``box_oracle`` and ``_gram_inverse_diagonal`` are the functions
``latkit.enumeration`` held before they moved here, unchanged.  The scan
shares nothing with the enumerator: it works on the given basis, bounds each
coefficient through the inverse Gram matrix in ``Fraction`` arithmetic, and
never reduces.

``reference_enumerate_up_to`` is ``enumerate_up_to`` as it ran before it
took one sign per +- pair and carried running partial sums, unchanged: it
visits ``v`` and ``-v`` separately and forms every row from its
coefficients.  The differential tests require exactly its output from the
library.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul

from latkit.core import GeneratingSet, Vector, norm_sq
from latkit.enumeration import EnumerationCapExceeded, EnumerationRequest
from latkit.reduction import IncrementalLattice

from reference_linalg import gram_matrix


def box_oracle(req: EnumerationRequest) -> GeneratingSet:
    """Exhaustive coefficient-box scan; independent check of the enumerator.

    Coefficient bounds come from the inverse Gram diagonal:
    x_i^2 <= bound_sq * (G^-1)_ii by Cauchy-Schwarz.
    """
    basis = req.basis
    n = basis.rank
    if n > 5:
        raise ValueError("dimension too large for the box oracle")
    inv_diag = _gram_inverse_diagonal(gram_matrix(basis.vectors))
    limits = [math.isqrt(math.floor(req.bound_sq * inv_diag[i]))
              for i in range(n)]
    out: list[Vector] = []
    for coeffs in itertools.product(*(range(-l, l + 1) for l in limits)):
        if not any(coeffs):
            continue
        v = tuple(
            sum((coeffs[k] * basis.vectors[k][j] for k in range(n)),
                Fraction(0))
            for j in range(basis.dim)
        )
        if norm_sq(v) <= req.bound_sq:
            if len(out) >= req.cap:
                raise EnumerationCapExceeded(req.cap)
            out.append(v)
    return GeneratingSet(tuple(out), req.bound_sq, complete=True)


def _gram_inverse_diagonal(gram) -> list[Fraction]:
    n = len(gram)
    aug = [list(map(Fraction, gram[i])) +
           [Fraction(1 if j == i else 0) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [a * inv for a in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [aug[i][n + i] for i in range(n)]


def reference_enumerate_up_to(req: EnumerationRequest) -> GeneratingSet:
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
