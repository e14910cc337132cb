"""Reference short-vector enumeration: the naive coefficient-box scan that
checks the Fincke-Pohst enumerator of ``latkit.enumeration``, as test code
only.

``box_oracle`` and ``_gram_inverse_diagonal`` are the functions
``latkit.enumeration`` held before they moved here, unchanged.  The scan
shares nothing with the enumerator: it works on the given basis, bounds each
coefficient through the inverse Gram matrix in ``Fraction`` arithmetic, and
never reduces.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from latkit.core import GeneratingSet, Vector, gram_matrix, norm_sq
from latkit.enumeration import EnumerationCapExceeded, EnumerationRequest


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
