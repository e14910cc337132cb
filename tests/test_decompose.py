import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latkit import (
    GeneratingSet,
    LatticeBasis,
    canonical_component_forms,
    enumerate_up_to,
    graph_decomposition_oracle,
    is_length_decomposable,
    lattice_equal,
    mlll,
    norm_sq,
    orthogonal_decomposition,
    projection_nonzero,
    volume_sq,
)
from latkit.enumeration import EnumerationRequest

from conftest import (
    d4_basis,
    embed_block,
    random_reduced_basis,
    scrambled,
)


def complete_set(basis, bound_sq, cap=10**6):
    return enumerate_up_to(EnumerationRequest(basis, bound_sq, cap))


def zd4_basis():
    rows = [(1, 0, 0, 0, 0)]
    rows += [(0,) + tuple(v) for v in d4_basis().vectors]
    return LatticeBasis(rows)


class TestProjectionNonzero:
    def test_orthogonal(self):
        c = LatticeBasis([(1, 0)])
        assert not projection_nonzero(c, (0, 1))

    def test_oblique(self):
        c = LatticeBasis([(1, 0)])
        assert projection_nonzero(c, (1, 1))

    def test_rank_two_span(self):
        c = LatticeBasis([(1, 1), (1, -1)])
        assert projection_nonzero(c, (2, 0))


class TestLengthDecomposable:
    def test_diagonal_in_z2(self, z2):
        s = complete_set(z2, 2)
        assert is_length_decomposable((1, 1), s)

    def test_unit_in_z2(self, z2):
        s = complete_set(z2, 2)
        assert not is_length_decomposable((1, 0), s)

    def test_d4_minimal_vector(self):
        s = complete_set(d4_basis(), 2)
        assert not is_length_decomposable((1, 1, 0, 0), s)

    def test_doubled_vector(self):
        s = complete_set(LatticeBasis([(1, 0), (0, 2)]), 4)
        assert is_length_decomposable((2, 0), s)

    def test_no_orthogonal_split_when_length_indecomposable(self):
        # an orthogonal split v = x + y forces ||x||, ||y|| < ||v||, so a
        # length-indecomposable vector admits no orthogonal split within S
        for basis, bound in [(d4_basis(), 2),
                             (LatticeBasis([(1, 0), (0, 2)]), 4)]:
            s = complete_set(basis, bound)
            for v in s.vectors:
                if is_length_decomposable(v, s):
                    continue
                for x in s.vectors:
                    y = tuple(a - b for a, b in zip(v, x))
                    if any(c != 0 for c in y):
                        assert sum(a * b for a, b in zip(x, y)) != 0


class TestOrthogonalDecomposition:
    def test_z2_splits(self, z2):
        d = orthogonal_decomposition(complete_set(z2, 1),
                                     check_invariants=True)
        assert d.r == 2
        assert [c.rank for c in d.components] == [1, 1]
        assert d.indices == (1, 2)

    def test_d4_indecomposable(self):
        d = orthogonal_decomposition(complete_set(d4_basis(), 2),
                                     check_invariants=True)
        assert d.r == 1
        assert d.components[0].rank == 4

    def test_z_perp_d4(self):
        d = orthogonal_decomposition(complete_set(zd4_basis(), 2),
                                     check_invariants=True)
        assert d.r == 2
        assert sorted(c.rank for c in d.components) == [1, 4]

    def test_checkerboard_splits(self):
        basis = LatticeBasis([(1, 1), (1, -1)])
        d = orthogonal_decomposition(complete_set(basis, 2))
        assert d.r == 2

    def test_cross_inner_products_zero(self):
        d = orthogonal_decomposition(complete_set(zd4_basis(), 2))
        for i in range(d.r):
            for j in range(i + 1, d.r):
                for u in d.components[i].vectors:
                    for w in d.components[j].vectors:
                        assert sum(a * b for a, b in zip(u, w)) == 0

    def test_components_regenerate_lattice(self):
        basis = zd4_basis()
        d = orthogonal_decomposition(complete_set(basis, 2))
        assert lattice_equal(d.grouped_basis, basis)
        prod = F(1)
        for c in d.components:
            prod *= volume_sq(c)
        assert prod == volume_sq(basis)

    def test_rejects_empty_and_incomplete(self):
        with pytest.raises(ValueError):
            orthogonal_decomposition(GeneratingSet([], 1, complete=True))
        s = complete_set(LatticeBasis([(1, 0), (0, 1)]), 1)
        with pytest.raises(ValueError):
            orthogonal_decomposition(
                GeneratingSet(s.vectors, 1, complete=False))


class TestGraphOracle:
    def test_z2_components(self, z2):
        d = graph_decomposition_oracle(complete_set(z2, 1))
        assert d.r == 2

    def test_d4_connected(self):
        d = graph_decomposition_oracle(complete_set(d4_basis(), 2))
        assert d.r == 1

    def test_scaled_axis(self):
        d = graph_decomposition_oracle(
            complete_set(LatticeBasis([(1, 0), (0, 2)]), 4))
        assert d.r == 2

    def test_agreement_with_incremental(self):
        rng = random.Random(14)
        for _ in range(25):
            basis = random_reduced_basis(rng, rng.randint(1, 3))
            bsq = max(norm_sq(v) for v in basis.vectors)
            s = complete_set(basis, bsq)
            a = orthogonal_decomposition(s, check_invariants=True)
            b = graph_decomposition_oracle(s)
            assert canonical_component_forms(a) == \
                canonical_component_forms(b)

    def test_component_indecomposability_via_rerun(self):
        s = complete_set(zd4_basis(), 2)
        d = orthogonal_decomposition(s)
        for c in d.components:
            bsq = max(norm_sq(v) for v in c.vectors)
            cs = complete_set(c, bsq)
            assert graph_decomposition_oracle(cs).r == 1


class TestEichlerUniqueness:
    def test_permutation_invariance(self):
        rng = random.Random(15)
        s = complete_set(zd4_basis(), 2)
        reference = canonical_component_forms(orthogonal_decomposition(s))
        for _ in range(5):
            perm = list(s.vectors)
            rng.shuffle(perm)
            shuffled = GeneratingSet(perm, s.bound_sq, complete=True)
            assert canonical_component_forms(
                orthogonal_decomposition(shuffled)) == reference
            assert canonical_component_forms(
                graph_decomposition_oracle(shuffled)) == reference


class TestDirectSums:
    def test_random_block_sums_recovered(self):
        rng = random.Random(16)
        for _ in range(15):
            dims = []
            total = 0
            while total < 4:
                k = rng.randint(1, 2)
                if total + k > 5:
                    break
                dims.append(k)
                total += k
            vecs = []
            offset = 0
            expected = 0
            for k in dims:
                block = random_reduced_basis(rng, k, entry=2)
                vecs += embed_block(block.vectors, offset, total)
                bsq = max(norm_sq(v) for v in block.vectors)
                expected += graph_decomposition_oracle(
                    complete_set(block, bsq)).r
                offset += k
            basis = mlll(vecs)
            bsq = max(norm_sq(v) for v in basis.vectors)
            s = complete_set(basis, bsq)
            d = orthogonal_decomposition(s, check_invariants=True)
            assert d.r == expected
            assert canonical_component_forms(d) == \
                canonical_component_forms(graph_decomposition_oracle(s))


# Blocks of the orthogonal sums below: scaled copies of Z, Lagrange-reduced
# rank-2 blocks (orthogonal or not), a scaled copy of D4, and an
# indecomposable rank-3 block whose two shortest vectors are orthogonal: the
# merge scan starts a component with each, and a later vector must join both
# at once.
BLOCKS = [[(2,)], [(3,)],
          [(2, 0), (1, 3)], [(2, 1), (-2, 2)], [(3, 0), (1, 3)],
          [(2, 1), (1, -2)], [(2, 2), (-2, 1)],
          [tuple(2 * c for c in v) for v in d4_basis().vectors],
          [(2, 0, 0), (0, 2, 0), (1, 1, 2)]]


@st.composite
def scrambled_block_lattices(draw):
    """An orthogonal sum of two to four blocks of total rank at most 6,
    scrambled by unimodular row operations, and the largest squared norm of
    a block basis vector: the enumeration up to it contains the block bases,
    so the set it returns generates the whole lattice."""
    parts = draw(st.lists(st.sampled_from(BLOCKS), min_size=2, max_size=4)
                 .filter(lambda ps: sum(len(p) for p in ps) <= 6))
    n = sum(len(p) for p in parts)
    rows, offset = [], 0
    for p in parts:
        rows += embed_block(p, offset, n)
        offset += len(p)
    bound = max(norm_sq(r) for r in rows)
    return draw(scrambled(LatticeBasis(rows))), bound


@settings(max_examples=150, deadline=None)
@given(scrambled_block_lattices())
def test_decomposition_matches_graph_oracle(case):
    basis, bound = case
    s = complete_set(basis, bound)
    assert canonical_component_forms(orthogonal_decomposition(s)) == \
        canonical_component_forms(graph_decomposition_oracle(s))


@settings(max_examples=100, deadline=None)
@given(scrambled_block_lattices(), st.data())
def test_decomposition_ignores_the_input_basis(case, data):
    basis, bound = case
    other = data.draw(scrambled(basis))
    assert orthogonal_decomposition(complete_set(other, bound)) == \
        orthogonal_decomposition(complete_set(basis, bound))


@settings(max_examples=100, deadline=None)
@given(scrambled_block_lattices(),
       st.sampled_from([F(1, 2), F(2, 3), F(3)]))
def test_decomposition_commutes_with_rescaling(case, c):
    basis, bound = case
    d = orthogonal_decomposition(complete_set(basis, bound))
    scaled = LatticeBasis([[c * x for x in v] for v in basis.vectors])
    got = orthogonal_decomposition(complete_set(scaled, c * c * bound))
    assert [b.vectors for b in got.components] == \
        [tuple(tuple(c * x for x in v) for v in b.vectors)
         for b in d.components]
    assert got.indices == d.indices


@settings(max_examples=100, deadline=None)
@given(scrambled_block_lattices(), st.data())
def test_duplicates_and_zeros_leave_the_decomposition_unchanged(case, data):
    basis, bound = case
    s = complete_set(basis, bound)
    extra = data.draw(st.lists(st.sampled_from(s.vectors), max_size=10))
    extra += [(0,) * len(basis.vectors[0])] * data.draw(st.integers(0, 3))
    padded = GeneratingSet(list(s.vectors) + extra, s.bound_sq,
                           complete=True)
    assert orthogonal_decomposition(padded) == orthogonal_decomposition(s)
