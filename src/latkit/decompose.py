"""Orthogonal decomposition of a lattice into indecomposable summands.

Two routes to the same (Eichler-unique) answer: an incremental merge scan
over a complete generating set, and a graph oracle that takes connected
components of the non-orthogonality graph on length-indecomposable vectors.
The scan is the minima's (``latkit.reduction``): it tests the set's integer
rows for membership in the running sum with the integral MLLL engine and
merges at each update; each component is such an engine, rebuilt from its
rows at a merge.  The oracle never uses it: it reads the same rows, sorts
them by norm itself, and takes each component's basis from the Hermite
normal form of its vertices' rows over the set's scale (``_hnf_basis``).

Both list the components in increasing (squared norm, lexicographic) order
of each one's least nonzero vector: a norm-ordered scan meets each summand
first at that vector (Kneser), so neither route sorts them.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate

from .core import (GeneratingSet, LatticeBasis, Vector, _complete_rows,
                   _hnf_basis, _idot, _Value)
from .reduction import (DEFAULT_PARAMS, IncrementalLattice, ReductionParams,
                        _scan)


class Decomposition(_Value):
    """The ``r`` pairwise-orthogonal indecomposable summands, in increasing
    (squared norm, lexicographic) order of their least nonzero vectors;
    ``indices`` are their 1-based start offsets (ranks summed)."""
    __slots__ = ("components",)
    components: tuple[LatticeBasis, ...]

    def __init__(self, components):
        object.__setattr__(self, "components", components)

    @property
    def r(self) -> int:
        return len(self.components)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(accumulate((c.rank for c in self.components),
                                initial=1))[:-1]


def orthogonal_decomposition(
        s: GeneratingSet, params: ReductionParams = DEFAULT_PARAMS,
        check_invariants: bool = False, *,
        lattice: LatticeBasis | IncrementalLattice | None = None
) -> Decomposition:
    """Decompose the lattice generated by the complete set ``s`` into
    indecomposable pairwise-orthogonal sublattices.

    ``lattice``, when given, is a lattice ``L`` that holds ``s``, such as
    the one ``s`` was enumerated in (a ``LatticeBasis`` or an engine).
    Once the scan's lattice has ``L``'s rank and squared volume it is
    ``L``: no later row can be an update, so no merge can happen, and the
    scan stops there (Kneser).  Where ``s`` does not generate ``L`` the
    scan reads every row.  Either way the result is the one without
    ``lattice``.

    At each update of the scan the row joins every component (an engine
    over ``s.scale``) holding a row it is not orthogonal to, its projection
    onto their span being nonzero, into one new engine, fed the row and
    then the joined components' rows in list order, in the place of the
    first of them (at the end if none): the list stays in canonical order.
    ``params`` sets the Lovász parameter of those engines, and so of the
    bases returned; the scan's membership test does not depend on it.
    ``check_invariants`` asserts pairwise orthogonality after every merge.
    """
    target = None
    if lattice is not None:
        n = lattice.rank
        dn = lattice.volume_sq * s.scale ** (2 * n)
        if dn.denominator == 1:     # else s cannot generate L
            target = (n, dn.numerator)
    components: list[IncrementalLattice] = []
    for row, _ in _scan(s, "orthogonal decomposition requires", target):
        joined = [c for c in components
                  if any(_idot(row, b) for b in c.rows)]
        merged = IncrementalLattice(len(row), params, s.scale)
        merged.extend([row, *(b for c in joined for b in c.rows)])
        # The list stays ordered by each component's first row of s: a
        # merge keeps the place of the earliest component it joins.
        at = components.index(joined[0]) if joined else len(components)
        components = [c for c in components if c not in joined]
        components.insert(at, merged)
        if check_invariants and any(
                _idot(u, w)
                for i, a in enumerate(components) for b in components[i + 1:]
                for u in a.rows for w in b.rows):
            raise AssertionError("components lost pairwise orthogonality")
    return Decomposition(tuple(c.basis() for c in components))


def graph_decomposition_oracle(s: GeneratingSet) -> Decomposition:
    """Independent route: connected components of the graph whose vertices
    are the length-indecomposable vectors of S and whose edges join
    non-orthogonal pairs; each vertex class generates one summand, whose
    basis is the Hermite normal form of the class.  It sorts the integer
    rows of ``s`` by norm itself and starts each class at its least
    unvisited vertex, so the classes come in canonical order."""
    rows = _complete_rows(s, "orthogonal decomposition requires")
    keyed = sorted((_idot(r, r), r) for r in rows)
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
        comp = [min(unvisited)]
        unvisited.discard(comp[0])
        for i in comp:      # comp grows as the loop runs: breadth first
            adjacent = [j for j in unvisited
                        if _idot(vertices[i], vertices[j])]
            unvisited.difference_update(adjacent)
            comp += adjacent
        components.append(LatticeBasis(
            _hnf_basis([vertices[i] for i in comp], s.scale)))
    return Decomposition(tuple(components))


def canonical_component_forms(decomp: Decomposition
                              ) -> tuple[tuple[Vector, ...], ...]:
    """Canonical per-component bases, in order, for equality tests between
    runs and routes (which also checks the order): as hnf(kL) = k hnf(L),
    each is ``canonical_basis`` of its vectors."""
    return tuple(_hnf_basis(c.rows, c.scale) for c in decomp.components)
