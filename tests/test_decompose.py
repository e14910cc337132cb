import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latkit import (
    GeneratingSet,
    LatticeBasis,
    ReductionParams,
    canonical_component_forms,
    enumerate_up_to,
    graph_decomposition_oracle,
    lattice_equal,
    mlll,
    norm_sq,
    orthogonal_decomposition,
    volume_sq,
)
from latkit.enumeration import EnumerationRequest
from latkit.reduction import IncrementalLattice

from conftest import (
    d4_basis,
    embed_block,
    random_reduced_basis,
    scrambled,
    scrambled_block_lattices,
)
from reference_linalg import is_length_decomposable


def complete_set(basis, bound_sq, cap=10**6):
    return enumerate_up_to(EnumerationRequest(basis, bound_sq, cap))


def zd4_basis():
    rows = [(1, 0, 0, 0, 0)]
    rows += [(0,) + tuple(v) for v in d4_basis().vectors]
    return LatticeBasis(rows)


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
        assert lattice_equal(
            [v for c in d.components for v in c.vectors], basis)
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


@settings(max_examples=150, deadline=None)
@given(scrambled_block_lattices())
def test_decomposition_matches_graph_oracle(case):
    basis, bound = case
    s = complete_set(basis, bound)
    assert canonical_component_forms(orthogonal_decomposition(s)) == \
        canonical_component_forms(graph_decomposition_oracle(s))


@settings(max_examples=50, deadline=None)
@given(scrambled_block_lattices())
def test_decomposition_does_not_depend_on_delta(case):
    # The scan's membership test reads the lattice alone; delta reduces the
    # component bases, whose canonical forms are the oracle's at every delta.
    basis, bound = case
    s = complete_set(basis, bound)
    want = canonical_component_forms(graph_decomposition_oracle(s))
    for delta in (F("0.26"), F(1, 2), F(3, 4), F(1)):
        d = orthogonal_decomposition(s, ReductionParams(delta),
                                     check_invariants=True)
        assert canonical_component_forms(d) == want


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


# The scan's stop at L (``orthogonal_decomposition(..., lattice=L)``).
# Rescalings of the lattice, and how far below the block bound to
# enumerate: below it the set may generate a proper sublattice of L (or one
# of lower rank), and then no stop may come.
SCALES = st.sampled_from([F(1), F(1, 2), F(2, 3), F(3)])
BOUND_FACTORS = st.sampled_from([F(1), F(3, 4), F(1, 2)])
JOINS_TWO = (LatticeBasis([(2, 0, 0), (0, 2, 0), (1, 1, 2)]), 6)
# Sets that do not generate L at this bound: 2Z^5 glued by (1, 1, 1, 1, 1),
# of full rank and index 2 (at bound 5 the glue vectors come in after the
# scan has full rank, and join its five components into one); a set of
# lower rank with L's volume; and one over scale 1 in an L whose squared
# volume, 49/4, gives no integer target.
NOT_GENERATING = [
    (LatticeBasis([(2, 0, 0, 0, 0), (0, 2, 0, 0, 0), (0, 0, 2, 0, 0),
                   (0, 0, 0, 2, 0), (1, 1, 1, 1, 1)]), 4),
    (LatticeBasis([(1, 0), (F(1, 2), 1)]), 1),
    (LatticeBasis([(1, 0), (F(1, 2), F(7, 2))]), 4),
]


def _lattice_and_set(case, c, t, pad):
    """The lattice of ``case`` times ``c``, in one more dimension when
    ``pad`` (rank below the dimension), and its complete set up to ``t``
    times the block bound, rescaled."""
    basis, bound = case
    lattice = LatticeBasis([[c * x for x in v] + [0] * pad
                            for v in basis.vectors])
    return lattice, complete_set(lattice, c * c * t * bound)


@settings(max_examples=150, deadline=None)
@given(scrambled_block_lattices(), SCALES, BOUND_FACTORS, st.booleans())
@example(JOINS_TWO, F(1), F(1), False)
@example(JOINS_TWO, F(1, 2), F(1), True)
@example(NOT_GENERATING[2], F(1), F(1), False)
@example((NOT_GENERATING[0][0], 5), F(1), F(1), False)
def test_stop_at_l_leaves_the_decomposition_as_it_is(case, c, t, pad):
    """With ``lattice=`` given as a basis or as an engine, the
    decomposition equals the one without it, component for component, on
    sets that generate L and on sets that do not."""
    lattice, s = _lattice_and_set(case, c, t, pad)
    assume(s.rows)
    want = orthogonal_decomposition(s, check_invariants=True)
    engine = IncrementalLattice.from_generators(lattice.vectors)
    for given_lattice in (lattice, engine):
        assert orthogonal_decomposition(
            s, check_invariants=True, lattice=given_lattice) == want


@settings(max_examples=100, deadline=None)
@given(scrambled_block_lattices(), SCALES, BOUND_FACTORS, st.booleans())
@example(JOINS_TWO, F(1), F(1), True)
@example(NOT_GENERATING[0], F(1), F(1), False)
@example(NOT_GENERATING[1], F(1), F(1), False)
@example(NOT_GENERATING[2], F(1), F(1), False)
@example((NOT_GENERATING[0][0], 5), F(1), F(1), True)
def test_no_insert_after_the_stop(case, c, t, pad):
    """Where the set generates L (the HNF oracle decides it), the scan's
    last insert is the first one after which its lattice is L; where it
    does not, that never happens and every row below zero is inserted."""
    lattice, s = _lattice_and_set(case, c, t, pad)
    assume(s.rows)
    # After each insert: is the scan's lattice L?  Only the scan calls
    # insert; the merge feeds its engines through extend.
    reached = []
    original = IncrementalLattice.insert

    def insert(self, row):
        was_update = original(self, row)
        reached.append(self.rank == lattice.rank
                       and self.volume_sq == lattice.volume_sq)
        return was_update

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IncrementalLattice, "insert", insert)
        orthogonal_decomposition(s, lattice=lattice)
    if lattice_equal(s, lattice):
        assert reached.index(True) == len(reached) - 1
    else:
        zero = (0,) * lattice.dim
        assert not any(reached)
        assert len(reached) == sum(r < zero for r in s.rows)

