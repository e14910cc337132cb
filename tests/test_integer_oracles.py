"""Differential tests of the integer ``--verify`` oracles, ``is_member`` and
the decomposition merge.

The greedy rank scan, the graph components and the membership test run on
the integer Hermite normal form and integer dot products; each must give
exactly the answer of the rational elimination it replaced, frozen in
``reference_linalg``, and the same answer on the set's rows in any order.  The merge scan runs on the set's integer rows and
must give exactly the decomposition of the ``Fraction`` merge frozen in
``reference_decompose``, and the canonical forms it is compared by must be
``canonical_basis`` of each component.  The frozen references sort their
components on a Hermite normal form key; the library lists them in the
order the scan meets them, so its components are re-sorted with the frozen
``_canonicalize`` before the exact comparison, and that order is checked
on its own.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latkit import (
    LatticeBasis,
    canonical_basis,
    canonical_component_forms,
    enumerate_up_to,
    graph_decomposition_oracle,
    greedy_minima_oracle,
    incremental_basis,
    is_member,
    mlll,
    orthogonal_decomposition,
    successive_minima,
)
from latkit.enumeration import EnumerationRequest

from conftest import scrambled_block_lattices
from reference_decompose import (
    _canonicalize as reference_canonicalize,
    reference_orthogonal_decomposition,
)
from reference_hnf import reference_canonical_basis
from reference_linalg import (
    rank_of,
    reference_graph_decomposition_oracle,
    reference_greedy_minima_oracle,
    reference_is_member,
)

# Rescalings of the lattice, and how far below the block bound to enumerate:
# a lower bound gives a set that may miss part of the lattice, on which the
# oracles must still agree.
SCALES = st.sampled_from([F(1), F(1, 2), F(2, 3), F(3)])
BOUND_FACTORS = st.sampled_from([F(1), F(3, 4), F(1, 2)])
# The indecomposable rank-3 block whose two shortest vectors are
# orthogonal: (1, 1, 2) joins both.
JOINS_TWO = (LatticeBasis([(2, 0, 0), (0, 2, 0), (1, 1, 2)]), 6)


def _block_set(case, c, t):
    basis, bound = case
    scaled = LatticeBasis([[c * x for x in v] for v in basis.vectors])
    return enumerate_up_to(EnumerationRequest(scaled, c * c * t * bound))


@settings(max_examples=150, deadline=None)
@given(scrambled_block_lattices(), SCALES, BOUND_FACTORS)
@example(JOINS_TWO, F(1), F(1))
@example(JOINS_TWO, F(1, 2), F(1))
def test_greedy_oracle_equals_frozen_reference(case, c, t):
    s = _block_set(case, c, t)
    assume(s.vectors)
    assert greedy_minima_oracle(s) == reference_greedy_minima_oracle(s)


@settings(max_examples=150, deadline=None)
@given(scrambled_block_lattices(), SCALES, BOUND_FACTORS)
@example(JOINS_TWO, F(1), F(1))
@example(JOINS_TWO, F(1, 2), F(1))
def test_graph_oracle_equals_frozen_reference(case, c, t):
    s = _block_set(case, c, t)
    assume(s.vectors)
    got = graph_decomposition_oracle(s)
    assert reference_canonicalize(got.components) == \
        reference_graph_decomposition_oracle(s)


@settings(max_examples=150, deadline=None)
@given(scrambled_block_lattices(), SCALES, BOUND_FACTORS)
@example(JOINS_TWO, F(1), F(1))
@example(JOINS_TWO, F(1, 2), F(1))
def test_decomposition_equals_frozen_merge(case, c, t):
    s = _block_set(case, c, t)
    assume(s.vectors)
    # Equal component vectors, in the same order once re-sorted as the
    # reference sorts them, and equal indices.
    got = orthogonal_decomposition(s, check_invariants=True)
    assert reference_canonicalize(got.components) == \
        reference_orthogonal_decomposition(s, check_invariants=True)


@settings(max_examples=150, deadline=None)
@given(scrambled_block_lattices(), SCALES, BOUND_FACTORS)
@example(JOINS_TWO, F(1), F(1))
@example(JOINS_TWO, F(1, 2), F(1))
def test_both_routes_list_components_in_scan_order(case, c, t):
    # Canonical order: by the first vector of s, in its (norm, lex) order,
    # that lies in each component; membership is decided by the frozen
    # reference.  Each route reaches that order itself, so their forms
    # agree with no re-sort.
    s = _block_set(case, c, t)
    assume(s.vectors)
    merged = orthogonal_decomposition(s)
    oracle = graph_decomposition_oracle(s)
    for d in (merged, oracle):
        firsts = [next(i for i, v in enumerate(s.vectors)
                       if reference_is_member(comp, v))
                  for comp in d.components]
        assert all(a < b for a, b in zip(firsts, firsts[1:]))
    assert canonical_component_forms(merged) == \
        canonical_component_forms(oracle)


@settings(max_examples=150, deadline=None)
@given(scrambled_block_lattices(), st.sampled_from([F(1), F(1, 2)]),
       BOUND_FACTORS)
@example(JOINS_TWO, F(1), F(1))
@example(JOINS_TWO, F(1, 2), F(1))
def test_component_forms_equal_canonical_basis(case, c, t):
    # The forms are the HNF of each component's rows over its scale; as
    # hnf(kL) = k hnf(L), that is canonical_basis of its vectors, for the
    # merge's components (over the set's scale) and the oracle's (over
    # their own).
    s = _block_set(case, c, t)
    assume(s.vectors)
    for d in (orthogonal_decomposition(s), graph_decomposition_oracle(s)):
        assert canonical_component_forms(d) == \
            tuple(canonical_basis(c.vectors) for c in d.components)


@settings(max_examples=150, deadline=None)
@given(scrambled_block_lattices(), SCALES, BOUND_FACTORS)
@example(JOINS_TWO, F(1), F(1))
@example(JOINS_TWO, F(1, 2), F(1))
def test_graph_oracle_bases_are_their_forms(case, c, t):
    # The oracle takes each component's basis from its Hermite normal
    # form, so decompose --verify reads the oracle's forms off its bases.
    s = _block_set(case, c, t)
    assume(s.vectors)
    oracle = graph_decomposition_oracle(s)
    assert canonical_component_forms(oracle) == \
        tuple(comp.vectors for comp in oracle.components)


@settings(max_examples=150, deadline=None)
@given(scrambled_block_lattices(), st.sampled_from([1, 2, 3, 6]),
       BOUND_FACTORS, st.booleans())
@example(JOINS_TWO, 1, F(1), False)
@example(JOINS_TWO, 6, F(1), True)
def test_component_forms_equal_frozen_reference(case, k, t, pad):
    # The lattice over 1/k, in one more dimension when padded, enumerated
    # up to the bound or below it (a set of lower rank): for both routes
    # each form is the frozen oracle's canonical basis of the component.
    basis, bound = case
    rows = [[x / k for x in v] + [0] * pad for v in basis.vectors]
    s = enumerate_up_to(EnumerationRequest(LatticeBasis(rows),
                                           t * bound / (k * k)))
    assume(s.rows)
    for d in (orthogonal_decomposition(s), graph_decomposition_oracle(s)):
        assert canonical_component_forms(d) == \
            tuple(reference_canonical_basis(c.vectors) for c in d.components)


# The lattice of cross.lat: at bound 1 its second component, (0, 1), lies
# in a set over scale 2, and is kept over scale 1.
CROSS = (LatticeBasis([(F(1, 2), 0), (0, 1)]), 1)


@settings(max_examples=100, deadline=None)
@given(scrambled_block_lattices(), SCALES)
@example(CROSS, F(1))
def test_returned_bases_are_over_their_least_common_denominator(case, c):
    # Each basis the library returns keeps its rows in lowest terms, so
    # equality and hashing on its fields are those on its vectors.
    s = _block_set(case, c, F(1))
    assume(s.rows)
    bases = [incremental_basis(s.vectors)[0], mlll(s.vectors)]
    for d in (orthogonal_decomposition(s), graph_decomposition_oracle(s)):
        bases += d.components
    for b in bases:
        assert math.gcd(b.scale, *(x for r in b.rows for x in r)) == 1
        assert b == LatticeBasis(b.vectors)
        assert hash(b) == hash(LatticeBasis(b.vectors))


ENTRIES = st.sampled_from([F(0), F(1), F(-1), F(2), F(-3), F(1, 2),
                           F(-2, 3)])


@st.composite
def bases_and_vectors(draw):
    """A basis of rank at most its dimension (empty included) with rational
    entries, and a vector: an integer combination of the basis shifted by
    0, 1/2 or 1/3 in one coordinate, or an arbitrary vector."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(0, d))
    rows = [tuple(draw(ENTRIES) for _ in range(d)) for _ in range(n)]
    assume(rank_of(rows) == n)
    basis = LatticeBasis(rows, dim=d)
    if draw(st.booleans()):
        coeffs = [draw(st.integers(-3, 3)) for _ in range(n)]
        v = [sum((k * r[i] for k, r in zip(coeffs, rows)), F(0))
             for i in range(d)]
        v[draw(st.integers(0, d - 1))] += draw(
            st.sampled_from([0, F(1, 2), F(1, 3)]))
    else:
        v = [draw(ENTRIES) for _ in range(d)]
    return basis, tuple(v)


@settings(max_examples=300, deadline=None)
@given(bases_and_vectors())
def test_is_member_equals_frozen_reference(case):
    basis, v = case
    assert is_member(basis, v) == reference_is_member(basis, v)


class TestIsMemberEdgeCases:
    @pytest.mark.parametrize("v, member", [
        ((3, 1), True), ((2, 1), False), ((F(7, 2), F(1, 2)), False),
        ((3, F(4, 3)), False)])
    def test_half_and_third_shifts(self, v, member):
        basis = LatticeBasis([(1, 1), (1, -1)])
        assert is_member(basis, v) == reference_is_member(basis, v) == member

    @pytest.mark.parametrize("v", [(0, 0), (1, 0), (F(1, 2), 0), (0, 0, 0)])
    def test_empty_basis(self, v):
        basis = LatticeBasis((), dim=2)
        assert is_member(basis, v) == reference_is_member(basis, v) == \
            (not any(v))

    def test_dimension_mismatch(self):
        basis = LatticeBasis([(1, 0), (0, 1)])
        for member in (is_member, reference_is_member):
            with pytest.raises(ValueError, match="dimension mismatch"):
                member(basis, (1, 0, 0))


# A basis of Z + D4, scrambled, at scale 1 and 1/2.
Z_D4 = [(1, 0, 0, 0, 0), (1, 1, -1, 0, 0), (0, 0, 1, -1, 0),
        (0, 0, 0, 1, -1), (0, 0, 0, 1, 1)]


@pytest.mark.parametrize("rows, bound", [
    (Z_D4, 4), ([[F(c, 2) for c in r] for r in Z_D4], 1),
    (JOINS_TWO[0].vectors, JOINS_TWO[1])])
def test_oracles_sort_the_set_themselves(rows, bound):
    # The order of a GeneratingSet is part of what --verify checks, so
    # each oracle must sort the rows by norm itself: on the rows in
    # decreasing norm, both must answer as on the sorted set, while the
    # scan, which trusts the order, must disagree with the greedy oracle.
    basis = LatticeBasis(rows)
    s = enumerate_up_to(EnumerationRequest(basis, bound))
    unsorted = enumerate_up_to(EnumerationRequest(basis, bound))
    object.__setattr__(unsorted, "rows", s.rows[::-1])
    assert unsorted.rows != s.rows
    assert greedy_minima_oracle(unsorted) == greedy_minima_oracle(s)
    assert canonical_component_forms(graph_decomposition_oracle(unsorted)) \
        == canonical_component_forms(graph_decomposition_oracle(s))
    assert successive_minima(unsorted).minima_sq != \
        greedy_minima_oracle(unsorted).minima_sq
