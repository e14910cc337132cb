"""Frozen reference: the decomposition merge scan as ``latkit.decompose`` ran
it before the merge moved to the set's integer rows, kept as test code only.

``projection_nonzero``, ``_assert_pairwise_orthogonal`` and ``_canonicalize``
are copied unchanged (save that ``_canonicalize`` no longer collects the
``grouped_basis`` that ``Decomposition`` has dropped, and checks its own
``indices`` and ``r`` against the properties of the ``Decomposition`` it
builds, which now stores only the components), and
``reference_orthogonal_decomposition`` is the old
``orthogonal_decomposition``: each component a ``LatticeBasis`` of
``Fraction`` vectors, joined by ``Fraction`` inner products and reduced
afresh by ``mlll`` at every merge.  The differential tests require exactly
its output from the library.
"""

from __future__ import annotations

from typing import Sequence

from latkit.core import (
    GeneratingSet,
    LatticeBasis,
    canonical_basis,
    norm_sq,
)
from latkit.decompose import Decomposition
from latkit.reduction import (
    DEFAULT_PARAMS,
    IncrementalLattice,
    ReductionParams,
    mlll,
)

from reference_linalg import inner_product


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
    indices: list[int] = []
    pos = 1
    for c in comps:
        indices.append(pos)
        pos += c.rank
    decomp = Decomposition(comps)
    assert (decomp.indices, decomp.r) == (tuple(indices), len(comps))
    return decomp


def reference_orthogonal_decomposition(
        s: GeneratingSet, params: ReductionParams = DEFAULT_PARAMS,
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
