"""Orthogonal decomposition of a lattice into indecomposable summands.

Two routes to the same (Eichler-unique) answer: an incremental merge scan
over a complete generating set, and a graph oracle that takes connected
components of the non-orthogonality graph on length-indecomposable vectors.
The scan runs on the set's integer rows: it tests each row for membership
in the running sum with the integral MLLL engine of ``latkit.reduction``,
and each component is such an engine, rebuilt from its rows at a merge.
The oracle never uses it: it reads the same rows, sorts them by norm
itself, and takes each component's basis from the Hermite normal form of
its vertices' rows over the set's scale (``_hnf_basis``).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .core import (
    GeneratingSet,
    LatticeBasis,
    Vector,
    _column_hnf,
    _hnf_basis,
    _idot,
)
from .reduction import DEFAULT_PARAMS, IncrementalLattice, ReductionParams


@dataclass(frozen=True)
class Decomposition:
    """The ``r`` pairwise-orthogonal indecomposable summands, in canonical
    order; ``indices`` are their 1-based start offsets (ranks summed)."""
    components: tuple[LatticeBasis, ...]
    indices: tuple[int, ...]
    r: int


def _canonicalize(components: Sequence[LatticeBasis]) -> Decomposition:
    """Sort components into the canonical order and assemble the output.

    Each component is keyed on the Hermite normal form of its rows, rescaled
    to the lcm of the components' scales, and the least squared norm in
    that form.  The common scale is positive, so this orders the components
    as the pair (least squared norm, ``canonical_basis``) of each would."""
    lcm = math.lcm(*(c.scale for c in components))

    def key(c: LatticeBasis):
        canon = _column_hnf([[lcm // c.scale * x for x in r] for r in c.rows])
        return min(_idot(r, r) for r in canon), canon
    comps = tuple(sorted(components, key=key))
    indices = tuple(accumulate((c.rank for c in comps), initial=1))[:-1]
    return Decomposition(comps, indices, len(comps))


def orthogonal_decomposition(s: GeneratingSet,
                             params: ReductionParams = DEFAULT_PARAMS,
                             check_invariants: bool = False) -> Decomposition:
    """Decompose the lattice generated by the complete set ``s`` into
    indecomposable pairwise-orthogonal sublattices.

    Vectors are scanned in the nondecreasing norm order of ``s``, as the
    integer rows ``s.rows`` over ``s.scale``; each component is an engine
    over that scale.  A row outside the current sum joins every component
    holding a row it is not orthogonal to (its projection onto their span is
    nonzero) into one new engine, fed the row and then the rows of the
    joined components in list order.  ``check_invariants`` asserts pairwise
    orthogonality after every merge.
    """
    if not s.rows:
        raise ValueError("generating set is empty")
    if not s.complete:
        raise ValueError("orthogonal decomposition requires a complete set")
    dim = len(s.rows[0])
    components: list[IncrementalLattice] = []
    total = IncrementalLattice(dim, params, s.scale)
    for row in s.rows:
        if not total.insert(row):
            continue
        joined = [c for c in components
                  if any(_idot(row, b) for b in c.rows)]
        merged = IncrementalLattice(dim, params, s.scale)
        merged.extend([row, *(b for c in joined for b in c.rows)])
        components = [c for c in components if c not in joined] + [merged]
        if check_invariants and any(
                _idot(u, w)
                for i, a in enumerate(components) for b in components[i + 1:]
                for u in a.rows for w in b.rows):
            raise AssertionError("components lost pairwise orthogonality")
    return _canonicalize([c.basis() for c in components])


def graph_decomposition_oracle(s: GeneratingSet) -> Decomposition:
    """Independent route: connected components of the graph whose vertices
    are the length-indecomposable vectors of S and whose edges join
    non-orthogonal pairs; each vertex class generates one summand, whose
    basis is the Hermite normal form of the class.  It sorts the integer
    rows of ``s`` by norm itself."""
    if not s.rows:
        raise ValueError("generating set is empty")
    if not s.complete:
        raise ValueError("orthogonal decomposition requires a complete set")
    keyed = sorted((_idot(r, r), r) for r in s.rows)
    # v is length-decomposable iff v = x + (v - x) with x in S and both
    # parts strictly shorter than v: |x|^2 < |v|^2 (x is in the prefix of
    # keyed before (|v|^2,)) and, as |v - x|^2 = |v|^2 - 2<v,x> + |x|^2,
    # |x|^2 < 2<v,x>.  Completeness of S means every such x is in it;
    # |x| < |v| makes x != v, so v - x is nonzero.  Strictness matters:
    # with equal norms allowed the minimal vectors of a root lattice would
    # all qualify, emptying the vertex set.
    vertices = [v for nv, v in keyed
                if not any(nx < 2 * _idot(v, x)
                           for nx, x in keyed[:bisect_left(keyed, (nv,))])]
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
                        if _idot(vertices[i], vertices[j])]
            for j in adjacent:
                unvisited.discard(j)
                stack.append(j)
            comp.extend(adjacent)
        components.append(LatticeBasis(
            _hnf_basis([vertices[i] for i in comp], s.scale)))
    return _canonicalize(components)


def canonical_component_forms(decomp: Decomposition
                              ) -> tuple[tuple[Vector, ...], ...]:
    """Canonical per-component bases, for equality tests between runs: as
    hnf(kL) = k hnf(L), each is ``canonical_basis`` of its vectors."""
    return tuple(_hnf_basis(c.rows, c.scale) for c in decomp.components)
