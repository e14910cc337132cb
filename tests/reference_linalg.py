"""Frozen reference: the rational eliminations ``latkit.core`` held before its
``--verify`` oracles and ``is_member`` moved to the integer Hermite normal
form, kept as test code only.

``gram_matrix``, ``rank_of``, ``solve_in_span`` and ``is_length_decomposable``
are copied unchanged, as are ``inner_product`` and ``is_zero_vector``, the
``Fraction`` dot product and zero test ``latkit.core`` held;
``reference_is_member`` is the old body of ``is_member``.
``reference_det_bareiss_int`` is ``latkit.core._det_bareiss_int`` as it was
while it still searched for a row to exchange at a zero pivot.
``reference_greedy_minima_oracle`` and ``reference_graph_decomposition_oracle``
are the two oracles as they were before, so the differential tests can
require equal results from the integer ones; the graph oracle assembles its
output with the frozen ``_canonicalize`` of ``reference_decompose``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from latkit.core import (
    GeneratingSet,
    LatticeBasis,
    Vector,
    canonical_basis,
    norm_sq,
)
from latkit.decompose import Decomposition
from latkit.minima import MinimaResult

from reference_hnf import _as_vector as as_vector

Matrix = tuple[tuple[Fraction, ...], ...]


def is_zero_vector(v: Vector) -> bool:
    return all(c == 0 for c in v)


def inner_product(u: Vector, v: Vector) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def gram_matrix(vectors: Sequence[Vector]) -> Matrix:
    return tuple(
        tuple(inner_product(u, v) for v in vectors) for u in vectors
    )


def reference_det_bareiss_int(m: list[list[int]]) -> int:
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


def rank_of(vectors: Sequence[Vector]) -> int:
    """Rank of the coordinate matrix, by exact Gaussian elimination."""
    rows = [list(v) for v in vectors if not is_zero_vector(v)]
    if not rows:
        return 0
    d = len(rows[0])
    rank = 0
    for col in range(d):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col] != 0:
                f = rows[i][col] / pr[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def solve_in_span(basis: LatticeBasis, v) -> Optional[tuple[Fraction, ...]]:
    """Exact coordinates of ``v`` in the real span of ``basis``, or None.

    Solves Gram * c = B^T v, then verifies the reconstruction; the solve
    alone cannot distinguish v from its projection onto the span.
    """
    v = as_vector(v)
    n = basis.rank
    if n == 0:
        return () if is_zero_vector(v) else None
    if len(v) != basis.dim:
        raise ValueError("dimension mismatch")
    # Gaussian elimination on the (invertible) Gram matrix.
    gram = gram_matrix(basis.vectors)
    aug = [list(gram[i]) + [inner_product(basis.vectors[i], v)]
           for i in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pr = aug[col]
        inv = 1 / pr[col]
        aug[col] = [a * inv for a in pr]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    coeffs = tuple(aug[i][n] for i in range(n))
    recon = tuple(
        sum((c * basis.vectors[i][j] for i, c in enumerate(coeffs)),
            Fraction(0))
        for j in range(basis.dim)
    )
    return coeffs if recon == v else None


def reference_is_member(basis: LatticeBasis, v) -> bool:
    """Lattice membership: the paper-style localization test."""
    coeffs = solve_in_span(basis, v)
    return coeffs is not None and all(c.denominator == 1 for c in coeffs)


def is_length_decomposable(v: Vector, s: GeneratingSet) -> bool:
    """Whether v = x + y with x, y nonzero lattice vectors strictly shorter
    than v.

    Strictness matters: an orthogonal splitting forces ||x||, ||y|| < ||v||,
    and with equal norms allowed the minimal vectors of a root lattice would
    all qualify, emptying the oracle's vertex set.  Completeness of ``s``
    guarantees any such x appears in it, so exhausting x over s decides the
    property.
    """
    nv = norm_sq(v)
    for x in s.vectors:
        if norm_sq(x) >= nv:
            continue
        y = tuple(a - b for a, b in zip(v, x))
        if not is_zero_vector(y) and norm_sq(y) < nv:
            return True
    return False


def reference_greedy_minima_oracle(s: GeneratingSet) -> MinimaResult:
    """Brute-force reference: scan every vector by norm and keep each one
    that is linearly independent of those kept so far (rank recomputation,
    no subspace shortcut, no early exit).  It sorts by norm itself rather
    than trust the order of ``s``, since that order is part of what it
    checks."""
    if not s.vectors:
        raise ValueError("generating set is empty")
    kept: list[Vector] = []
    minima: list[Fraction] = []
    for v in sorted(s.vectors, key=lambda v: (norm_sq(v), v)):
        if rank_of(kept + [v]) > len(kept):
            kept.append(v)
            minima.append(norm_sq(v))
    return MinimaResult(tuple(minima), tuple(kept), len(kept))


def reference_graph_decomposition_oracle(s: GeneratingSet) -> Decomposition:
    """Independent route: connected components of the graph whose vertices
    are the length-indecomposable vectors of S and whose edges join
    non-orthogonal pairs; each vertex class generates one summand, whose
    basis is the Hermite normal form of the class."""
    # The frozen _canonicalize; imported here, as reference_decompose
    # imports this module's inner_product.
    from reference_decompose import _canonicalize

    if not s.vectors:
        raise ValueError("generating set is empty")
    if not s.complete:
        raise ValueError("orthogonal decomposition requires a complete set")
    vertices = [v for v in s.vectors if not is_length_decomposable(v, s)]
    unvisited = set(range(len(vertices)))
    components: list[LatticeBasis] = []
    while unvisited:
        start = min(unvisited)
        stack = [start]
        unvisited.discard(start)
        comp = [start]
        while stack:
            i = stack.pop()
            adjacent = [j for j in unvisited
                        if inner_product(vertices[i], vertices[j]) != 0]
            for j in adjacent:
                unvisited.discard(j)
                stack.append(j)
            comp.extend(adjacent)
        components.append(
            LatticeBasis(canonical_basis([vertices[i] for i in comp])))
    return _canonicalize(components)
