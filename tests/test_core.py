import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latkit import (
    GeneratingSet,
    LatticeBasis,
    canonical_basis,
    enumerate_up_to,
    gram_matrix,
    inner_product,
    is_member,
    lattice_equal,
    norm_sq,
    orthogonal_decomposition,
    solve_in_span,
    successive_minima,
    volume_sq,
)
from latkit.core import as_vector, integerize
from latkit.enumeration import EnumerationRequest

from reference_hnf import reference_canonical_basis, reference_hnf


def laplace_det(m) -> F:
    """Determinant by cofactor expansion along the first row, over Fraction:
    a reference that shares no code with the library's Bareiss elimination."""
    if not m:
        return F(1)
    return sum(((-1) ** j * F(x) * laplace_det([r[:j] + r[j + 1:]
                                                for r in m[1:]])
                for j, x in enumerate(m[0])), F(0))


class TestInnerProduct:
    def test_orthogonal_units(self):
        assert inner_product(as_vector((1, 0)), as_vector((0, 1))) == 0

    def test_symmetry_case(self):
        assert inner_product(as_vector((1, 1)), as_vector((1, -1))) == 0

    def test_rational(self):
        u, v = as_vector((F(1, 2), 3)), as_vector((2, F(1, 3)))
        assert inner_product(u, v) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(as_vector((1, 0)), as_vector((1, 0, 0)))

    def test_symmetry_random(self):
        rng = random.Random(0)
        for _ in range(50):
            d = rng.randint(1, 5)
            u = as_vector(rng.randint(-9, 9) for _ in range(d))
            v = as_vector(rng.randint(-9, 9) for _ in range(d))
            assert inner_product(u, v) == inner_product(v, u)


class TestNormSq:
    def test_zero(self):
        assert norm_sq(as_vector((0, 0))) == 0

    def test_ones(self):
        assert norm_sq(as_vector((1, 1))) == 2

    def test_rational(self):
        assert norm_sq(as_vector((F(3, 2), 2))) == F(25, 4)

    def test_positive_iff_nonzero(self):
        rng = random.Random(1)
        for _ in range(50):
            v = as_vector(rng.randint(-5, 5) for _ in range(4))
            assert (norm_sq(v) == 0) == all(c == 0 for c in v)


class TestHnf:
    """``canonical_basis`` is the column-style Hermite normal form."""

    def test_spans_z2(self):
        assert canonical_basis([(1, 0), (0, 1), (1, 1)]) == ((1, 0), (0, 1))

    def test_gcd(self):
        assert canonical_basis([(4,), (6,)]) == ((2,),)

    def test_convention(self):
        assert canonical_basis([(2, 0), (1, 1)]) == ((2, 0), (1, 1))

    def test_empty(self):
        assert canonical_basis([]) == ()
        assert canonical_basis([(0, 0)]) == ()

    def test_idempotent_and_order_invariant(self):
        rng = random.Random(2)
        for _ in range(50):
            d = rng.randint(1, 4)
            m = rng.randint(1, 6)
            vs = [tuple(rng.randint(-9, 9) for _ in range(d))
                  for _ in range(m)]
            h = canonical_basis(vs)
            assert canonical_basis(h) == h
            perm = vs[:]
            rng.shuffle(perm)
            assert canonical_basis(perm) == h


class TestSolveInSpan:
    def test_standard_basis(self):
        b = LatticeBasis([(1, 0), (0, 1)])
        assert solve_in_span(b, (3, -5)) == (3, -5)

    def test_scalar_multiple(self):
        b = LatticeBasis([(1, 1)])
        assert solve_in_span(b, (2, 2)) == (2,)

    def test_outside_span(self):
        b = LatticeBasis([(1, 1)])
        assert solve_in_span(b, (1, 0)) is None

    def test_empty_basis(self):
        b = LatticeBasis((), dim=2)
        assert solve_in_span(b, (0, 0)) == ()
        assert solve_in_span(b, (1, 0)) is None


class TestIsMember:
    def test_z2(self):
        b = LatticeBasis([(1, 0), (0, 1)])
        assert is_member(b, (3, -5))

    def test_checkerboard_member(self):
        b = LatticeBasis([(1, 1), (1, -1)])
        assert is_member(b, (2, 0))

    def test_checkerboard_nonmember(self):
        b = LatticeBasis([(1, 1), (1, -1)])
        assert not is_member(b, (1, 0))

    def test_subgroup_closure(self):
        rng = random.Random(3)
        b = LatticeBasis([(2, 1, 0), (0, 3, 1), (0, 0, 5)])
        members = []
        while len(members) < 10:
            c = [rng.randint(-3, 3) for _ in range(3)]
            v = as_vector(sum(ci * bi[j] for ci, bi in zip(c, b.vectors))
                          for j in range(3))
            members.append(v)
        for u in members:
            assert is_member(b, tuple(-x for x in u))
            for w in members:
                assert is_member(b, tuple(a + c for a, c in zip(u, w)))


class TestVolumeSq:
    def test_unit(self):
        assert volume_sq(LatticeBasis([(1, 0), (0, 1)])) == 1

    def test_checkerboard(self):
        assert volume_sq(LatticeBasis([(1, 1), (1, -1)])) == 4

    def test_d4(self, d4):
        assert volume_sq(d4) == 4

    def test_matches_coordinate_determinant(self):
        rng = random.Random(4)
        for _ in range(30):
            d = rng.randint(1, 4)
            rows = [tuple(rng.randint(-5, 5) for _ in range(d))
                    for _ in range(d)]
            det = laplace_det(rows)
            if det == 0:
                continue
            assert volume_sq(LatticeBasis(rows)) == det * det


class TestLatticeEqual:
    def test_both_z2(self):
        assert lattice_equal([(1, 0), (0, 1)], [(1, 1), (1, 0)])

    def test_index_two(self):
        assert not lattice_equal([(2, 0), (0, 1)], [(1, 0), (0, 1)])

    def test_gcd(self):
        assert lattice_equal([(4,), (6,)], [(2,)])

    def test_rational_rescaling(self):
        assert lattice_equal([(F(1, 2), 0), (0, F(1, 2))],
                             [(F(1, 2), F(1, 2)), (F(1, 2), 0)])


class TestGeneratingSet:
    def test_drops_zero_vectors(self):
        s = GeneratingSet([(0, 0), (1, 0)], bound_sq=1)
        assert s.vectors == ((F(1), F(0)),)

    def test_rejects_norm_violation(self):
        with pytest.raises(ValueError):
            GeneratingSet([(2, 0)], bound_sq=1)

    def test_error_names_first_violation_in_input_order(self):
        with pytest.raises(ValueError, match=r"Fraction\(3, 1\)"):
            GeneratingSet([(1, 0), (3, 0), (2, 0)], bound_sq=1)

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="mixed dimensions"):
            GeneratingSet([(1, 0, 0), (2,)], 10, complete=True)


@st.composite
def generator_rows(draw):
    """Rows of one dimension from a small pool of entries, so that equal
    norms, sign pairs and duplicates are common."""
    d = draw(st.integers(1, 3))
    entry = st.sampled_from([F(0), F(1), F(-1), F(2), F(-2), F(1, 2)])
    return d, draw(st.lists(st.tuples(*[entry] * d), max_size=12))


@settings(max_examples=200, deadline=None)
@given(generator_rows(), st.randoms(use_true_random=False),
       st.integers(0, 3))
def test_generating_set_order_ignores_input_order(family, rnd, zeros):
    d, rows = family
    bound = max([norm_sq(r) for r in rows] + [F(1)])
    want = GeneratingSet(rows, bound)
    perm = rows[:]
    rnd.shuffle(perm)
    for _ in range(zeros):
        perm.insert(rnd.randrange(len(perm) + 1), (F(0),) * d)
    got = GeneratingSet(perm, bound)
    assert got.vectors == want.vectors
    keys = [(norm_sq(v), v) for v in got.vectors]
    assert keys == sorted(keys)
    assert sorted(got.vectors) == sorted(r for r in rows if any(r))


def _outcome(build):
    """The constructed set, or the message of the ValueError it raised."""
    try:
        return build()
    except ValueError as exc:
        return str(exc)


class TestFromRows:
    def test_error_names_first_violation_in_input_order(self):
        with pytest.raises(ValueError, match=r"\(Fraction\(3, 2\), "):
            GeneratingSet.from_rows([(1, 0), (3, 0), (4, 0)], 2, 1)

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="mixed dimensions"):
            GeneratingSet.from_rows([(1, 0, 0), (0, 0), (2,)], 1, 10)

    def test_rejects_non_positive_scale(self):
        with pytest.raises(ValueError):
            GeneratingSet.from_rows([(1, 0)], 0, 1)

    def test_scale_one_gives_integer_fractions(self):
        s = GeneratingSet.from_rows([(0, 2), (0, 0), (1, 0)], 1, 4)
        assert s.vectors == ((F(1), F(0)), (F(0), F(2)))


@st.composite
def integer_rows(draw):
    """Integer rows of one dimension over a common denominator, with zero
    rows and duplicates common, and a bound that some rows may exceed."""
    d = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1, 2, 3, 6]))
    rows = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), max_size=12))
    rows += draw(st.lists(st.sampled_from(rows or [(0,) * d]), max_size=4))
    bound = F(draw(st.integers(1, 30)), draw(st.integers(1, 4)))
    return rows, scale, bound


@settings(max_examples=300, deadline=None)
@given(integer_rows(), st.booleans())
def test_from_rows_matches_rational_constructor(case, complete):
    rows, scale, bound = case
    want = _outcome(lambda: GeneratingSet(
        [[F(c, scale) for c in r] for r in rows], bound, complete))
    got = _outcome(lambda: GeneratingSet.from_rows(
        rows, scale, bound, complete))
    assert got == want


@st.composite
def short_rational_vectors(draw):
    """The short vectors of a lattice with mixed denominators: a triangular
    rational basis, scrambled, and every vector up to a small bound."""
    d = draw(st.integers(1, 3))
    nonzero = st.sampled_from([F(1), F(-2), F(1, 2), F(-2, 3), F(5, 4)])
    rows = [[F(0)] * i + [draw(nonzero)]
            + [draw(st.sampled_from([F(0), F(1), F(-1, 3), F(3, 2)]))
               for _ in range(d - 1 - i)] for i in range(d)]
    for _ in range(d):
        a, b = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        if a != b:
            rows[a] = [x + y for x, y in zip(rows[a], rows[b])]
    bound = draw(st.sampled_from([F(1, 4), F(1), F(3, 2), F(4)]))
    s = enumerate_up_to(EnumerationRequest(LatticeBasis(rows), bound))
    return s.vectors, bound


@settings(max_examples=150, deadline=None)
@given(short_rational_vectors(), st.sampled_from([1, 2, 3]))
def test_rows_and_scale_do_not_change_results(case, k):
    vectors, bound = case
    a = GeneratingSet(vectors, bound, complete=True)
    rows, scale = integerize(vectors)
    b = GeneratingSet.from_rows([[k * c for c in r] for r in rows],
                                k * scale, bound, complete=True)
    for s in (a, b):
        assert [tuple(F(c, s.scale) for c in r) for r in s.rows] == \
            list(s.vectors)
    assert a == b
    assert _outcome(lambda: successive_minima(a)) == \
        _outcome(lambda: successive_minima(b))
    assert _outcome(lambda: orthogonal_decomposition(a)) == \
        _outcome(lambda: orthogonal_decomposition(b))


RATIONAL_ENTRIES = st.sampled_from(
    [F(0), F(1), F(-1), F(2), F(-3), F(1, 2), F(-2, 3), F(5, 4)])


@st.composite
def rational_rows(draw, max_rows):
    d = draw(st.integers(1, 4))
    n = draw(st.integers(0, max_rows(d)))
    return [tuple(draw(RATIONAL_ENTRIES) for _ in range(d))
            for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(rational_rows(lambda d: d))
def test_basis_volume_is_the_gram_determinant(rows):
    det = laplace_det(gram_matrix(rows))
    if det == 0:
        with pytest.raises(ValueError, match="linearly dependent"):
            LatticeBasis(rows)
    else:
        assert LatticeBasis(rows).volume_sq == det


def test_dependent_rational_basis_raises():
    with pytest.raises(ValueError, match="linearly dependent"):
        LatticeBasis([(F(1, 2), F(1, 3)), (F(3, 2), 1)])


@settings(max_examples=300, deadline=None)
@given(rational_rows(lambda d: d + 3))
def test_canonical_basis_matches_frozen_reference(rows):
    assert canonical_basis(rows) == reference_canonical_basis(rows)
    ints = [tuple(c * 12 for c in r) for r in rows]     # clears denominators
    assert canonical_basis(ints) == reference_hnf(ints)
