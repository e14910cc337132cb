"""Frozen reference: the rational MLLL that ``latkit.reduction`` used before
its integral engine, kept verbatim as test code only.

``_dot`` and ``_mlll_int`` are copied unchanged; ``reference_mlll``,
``reference_basis_union`` and ``reference_incremental_basis`` wrap them the
way ``mlll``, ``basis_union`` and ``incremental_basis`` did, so the
differential tests can require byte-identical results from the engine.
``gram_schmidt``, which checks the LLL conditions on reduction output, is
the function ``latkit.reduction`` held before it moved here, unchanged.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from latkit.core import (
    LatticeBasis,
    Vector,
    integerize,
    volume_sq,
)
from latkit.incremental import InsertionRecord
from latkit.reduction import DEFAULT_PARAMS

from reference_hnf import _as_vector as as_vector
from reference_linalg import inner_product, is_zero_vector, reference_is_member


def _dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _mlll_int(b: list[list[int]], delta: Fraction) -> list[list[int]]:
    """LLL for possibly dependent integer vectors (Pohst's MLLL).

    Dependent vectors are driven to zero by the swap/reduce loop and left in
    place; the caller strips them.  Gram-Schmidt data (mu, B, b*) is updated
    incrementally through the generalized swap, which distinguishes the
    degenerate cases B_k = 0.
    """
    m = len(b)
    if m == 0:
        return []
    zero = Fraction(0)
    half = Fraction(1, 2)
    bstar: list[tuple] = [()] * m
    B: list[Fraction] = [zero] * m
    mu = [[zero] * m for _ in range(m)]

    bstar[0] = tuple(Fraction(x) for x in b[0])
    B[0] = _dot(bstar[0], bstar[0])
    kmax = 0

    def red(k: int, l: int) -> None:
        if abs(mu[k][l]) > half:
            q = math.floor(mu[k][l] + half)
            b[k] = [a - q * c for a, c in zip(b[k], b[l])]
            mu[k][l] -= q
            for i in range(l):
                mu[k][i] -= q * mu[l][i]

    def swapg(k: int) -> None:
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            mu[k][j], mu[k - 1][j] = mu[k - 1][j], mu[k][j]
        m_ = mu[k][k - 1]
        Bt = B[k] + m_ * m_ * B[k - 1]
        if B[k] == 0 and m_ == 0:
            B[k], B[k - 1] = B[k - 1], B[k]
            bstar[k], bstar[k - 1] = bstar[k - 1], bstar[k]
            for i in range(k + 1, kmax + 1):
                mu[i][k], mu[i][k - 1] = mu[i][k - 1], mu[i][k]
        elif B[k] == 0:
            B[k - 1] = Bt
            bstar[k - 1] = tuple(m_ * x for x in bstar[k - 1])
            mu[k][k - 1] = 1 / m_
            for i in range(k + 1, kmax + 1):
                mu[i][k - 1] = mu[i][k - 1] / m_
        else:
            t = B[k - 1] / Bt
            mu[k][k - 1] = m_ * t
            bb = bstar[k - 1]
            ratio = B[k] / Bt
            bstar[k - 1] = tuple(x + m_ * y for x, y in zip(bstar[k], bb))
            bstar[k] = tuple(ratio * y - mu[k][k - 1] * x
                             for x, y in zip(bstar[k], bb))
            B[k] = B[k] * t
            B[k - 1] = Bt
            for i in range(k + 1, kmax + 1):
                t2 = mu[i][k]
                mu[i][k] = mu[i][k - 1] - m_ * t2
                mu[i][k - 1] = t2 + mu[k][k - 1] * mu[i][k]

    k = 1
    while k < m:
        if k > kmax:
            kmax = k
            w = [Fraction(x) for x in b[k]]
            for j in range(k):
                if B[j] != 0:
                    mu[k][j] = _dot(b[k], bstar[j]) / B[j]
                else:
                    mu[k][j] = zero
                if mu[k][j] != 0:
                    w = [a - mu[k][j] * c for a, c in zip(w, bstar[j])]
            bstar[k] = tuple(w)
            B[k] = _dot(w, w)
        while True:
            red(k, k - 1)
            if B[k] < (delta - mu[k][k - 1] ** 2) * B[k - 1]:
                swapg(k)
                k = max(1, k - 1)
            else:
                for l in range(k - 2, -1, -1):
                    red(k, l)
                k += 1
                break
    return [row for row in b if any(row)]


def reference_mlll(generators, params=DEFAULT_PARAMS) -> LatticeBasis:
    vs = [as_vector(v) for v in generators]
    dims = {len(v) for v in vs}
    if len(dims) > 1:
        raise ValueError("generators have mixed dimensions")
    dim = dims.pop() if dims else 0
    vs = [v for v in vs if not is_zero_vector(v)]
    if not vs:
        return LatticeBasis((), dim=dim or None)
    ints, scale = integerize(vs)
    reduced = _mlll_int(ints, params.delta)
    return LatticeBasis(
        [tuple(Fraction(c, scale) for c in row) for row in reduced]
    )


def reference_basis_union(basis, v, params=DEFAULT_PARAMS) -> LatticeBasis:
    return reference_mlll(list(basis.vectors) + [as_vector(v)], params)


def reference_incremental_basis(generators, params=DEFAULT_PARAMS):
    """Localize with ``reference_is_member``, update with
    ``reference_basis_union``."""
    vs = [as_vector(v) for v in generators]
    dims = {len(v) for v in vs}
    dim = dims.pop() if dims else None
    basis = LatticeBasis((), dim=dim)
    records = []
    for i, v in enumerate(vs):
        if is_zero_vector(v):
            continue
        if reference_is_member(basis, v):
            records.append(InsertionRecord(i, False, basis.rank,
                                           volume_sq(basis)))
        else:
            basis = reference_basis_union(basis, v, params)
            records.append(InsertionRecord(i, True, basis.rank,
                                           volume_sq(basis)))
    return basis, tuple(records)


def gram_schmidt(vectors: Sequence[Vector]
                 ) -> tuple[list[tuple], list[list[Fraction]]]:
    """Exact Gram-Schmidt orthogonalization (b*, mu) of independent input.

    Used by tests to check size reduction and the Lovász condition on
    reduction output.
    """
    vs = [as_vector(v) for v in vectors]
    bstar: list[tuple] = []
    mu: list[list[Fraction]] = []
    for v in vs:
        row = []
        w = list(v)
        for j, bs in enumerate(bstar):
            m_ = inner_product(v, bs) / inner_product(bs, bs)
            row.append(m_)
            w = [a - m_ * c for a, c in zip(w, bs)]
        bstar.append(tuple(w))
        mu.append(row)
    return bstar, mu
