"""Orthogonal decomposition of a lattice into indecomposable summands.

Two routes to the same (Eichler-unique) answer: an incremental merge scan
over a complete generating set, and a graph oracle that takes connected
components of the non-orthogonality graph on length-indecomposable vectors.
The scan tests each vector for membership in the running sum with the
integral MLLL engine of ``latkit.reduction`` and reduces each merged
component with it; the oracle never uses it: it takes each component's
basis from the Hermite normal form of its vertices (``canonical_basis``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    GeneratingSet,
    LatticeBasis,
    Vector,
    _idot,
    canonical_basis,
    inner_product,
    integerize,
    norm_sq,
)
from .reduction import (
    DEFAULT_PARAMS,
    IncrementalLattice,
    ReductionParams,
    mlll,
)


@dataclass(frozen=True)
class Decomposition:
    components: tuple[LatticeBasis, ...]   # pairwise-orthogonal summands
    grouped_basis: tuple[Vector, ...]
    indices: tuple[int, ...]   # 1-based component start offsets, length r
    r: int


def projection_nonzero(component: LatticeBasis, v) -> bool:
    """Whether v has a nonzero orthogonal projection onto the component's
    span; equivalent to a nonzero inner product with some basis vector."""
    return any(inner_product(v, b) != 0 for b in component.vectors)


def _assert_pairwise_orthogonal(components: Sequence[LatticeBasis]) -> None:
    for i in range(len(components)):
        for j in range(i + 1, len(components)):
            for u in components[i].vectors:
                for w in components[j].vectors:
                    if inner_product(u, w) != 0:
                        raise AssertionError(
                            "components lost pairwise orthogonality")


def _canonicalize(components: Sequence[LatticeBasis]) -> Decomposition:
    """Sort components into the canonical order and assemble the output."""
    keyed = []
    for c in components:
        canon = canonical_basis(c.vectors)
        keyed.append(((min(norm_sq(v) for v in canon), canon), c))
    keyed.sort(key=lambda kv: kv[0])
    comps = tuple(c for _, c in keyed)
    grouped: list[Vector] = []
    indices: list[int] = []
    pos = 1
    for c in comps:
        indices.append(pos)
        grouped.extend(c.vectors)
        pos += c.rank
    return Decomposition(comps, tuple(grouped), tuple(indices), len(comps))


def orthogonal_decomposition(s: GeneratingSet,
                             params: ReductionParams = DEFAULT_PARAMS,
                             check_invariants: bool = False) -> Decomposition:
    """Decompose the lattice generated by the complete set ``s`` into
    indecomposable pairwise-orthogonal sublattices.

    Vectors are scanned in the nondecreasing norm order of ``s``; a vector
    outside the current sum merges every component it projects onto into a
    single new component with a freshly reduced basis.  ``check_invariants``
    asserts pairwise orthogonality after every merge.
    """
    if not s.vectors:
        raise ValueError("generating set is empty")
    if not s.complete:
        raise ValueError("orthogonal decomposition requires a complete set")
    components: list[LatticeBasis] = []
    total = IncrementalLattice(len(s.rows[0]), params, s.scale)
    for v, row in zip(s.vectors, s.rows):
        if not total.insert(row):
            continue
        joined = [i for i, c in enumerate(components)
                  if projection_nonzero(c, v)]
        merged_gens = [v]
        for i in joined:
            merged_gens.extend(components[i].vectors)
        merged = mlll(merged_gens, params)
        components = [c for i, c in enumerate(components)
                      if i not in joined] + [merged]
        if check_invariants:
            _assert_pairwise_orthogonal(components)
    return _canonicalize(components)


def graph_decomposition_oracle(s: GeneratingSet) -> Decomposition:
    """Independent route: connected components of the graph whose vertices
    are the length-indecomposable vectors of S and whose edges join
    non-orthogonal pairs; each vertex class generates one summand, whose
    basis is the Hermite normal form of the class."""
    if not s.vectors:
        raise ValueError("generating set is empty")
    if not s.complete:
        raise ValueError("orthogonal decomposition requires a complete set")
    rows, _ = integerize(s.vectors)
    norms = [_idot(r, r) for r in rows]
    # v is length-decomposable iff v = x + (v - x) with x in S and both
    # parts strictly shorter than v: |x|^2 < |v|^2 and, as |v - x|^2 =
    # |v|^2 - 2<v,x> + |x|^2, |x|^2 < 2<v,x>.  Completeness of S means
    # every such x is in it; |x| < |v| makes x != v, so v - x is nonzero.
    # Strictness matters: with equal norms allowed the minimal vectors of
    # a root lattice would all qualify, emptying the vertex set.
    vertices = [i for i, (v, nv) in enumerate(zip(rows, norms))
                if not any(nx < nv and nx < 2 * _idot(v, x)
                           for x, nx in zip(rows, norms))]
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
                        if _idot(rows[vertices[i]], rows[vertices[j]])]
            for j in adjacent:
                unvisited.discard(j)
                stack.append(j)
            comp.extend(adjacent)
        components.append(
            LatticeBasis(canonical_basis([s.vectors[vertices[i]]
                                          for i in comp])))
    return _canonicalize(components)


def canonical_component_forms(decomp: Decomposition
                              ) -> tuple[tuple[Vector, ...], ...]:
    """Canonical per-component bases, for equality tests between runs."""
    return tuple(canonical_basis(c.vectors) for c in decomp.components)
