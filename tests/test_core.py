import dataclasses
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latkit import (
    GeneratingSet,
    LatticeBasis,
    canonical_basis,
    enumerate_up_to,
    first_minimum_sq,
    graph_decomposition_oracle,
    greedy_minima_oracle,
    incremental_basis,
    is_member,
    lattice_equal,
    mlll,
    norm_sq,
    orthogonal_decomposition,
    successive_minima,
    volume_sq,
)
from latkit.core import _column_hnf, _det_bareiss_int, integerize
from latkit.enumeration import EnumerationRequest

from reference_hnf import _as_vector as as_vector
from reference_hnf import _integerize as reference_integerize
from reference_hnf import reference_canonical_basis, reference_hnf
from reference_linalg import (
    gram_matrix,
    inner_product,
    rank_of,
    reference_det_bareiss_int,
    solve_in_span,
)


def laplace_det(m) -> F:
    """Determinant by cofactor expansion along the first row, over Fraction:
    a reference that shares no code with the library's Bareiss elimination."""
    if not m:
        return F(1)
    return sum(((-1) ** j * F(x) * laplace_det([r[:j] + r[j + 1:]
                                                for r in m[1:]])
                for j, x in enumerate(m[0])), F(0))


class TestInnerProduct:
    """The ``Fraction`` dot product of the frozen references."""

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
    if complete:    # a complete set holds -r with r; from_rows trusts that
        rows = rows + [tuple(-c for c in r) for r in rows]
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
    assert hash(a) == hash(b)
    assert (a.rows, a.scale) == (b.rows, b.scale)
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


@st.composite
def gram_rows(draw):
    """Integer rows, some made dependent on purpose: a zero row, a multiple
    of an earlier row or the sum of two earlier rows, put in any place."""
    d = draw(st.integers(1, 5))
    rows = draw(st.lists(st.tuples(*[st.integers(-9, 9)] * d),
                         max_size=d + 1))
    for kind in draw(st.lists(st.sampled_from(["zero", "multiple", "sum"]),
                              max_size=3)):
        if kind == "zero" or not rows:
            row = (0,) * d
        elif kind == "multiple":
            k = draw(st.integers(-3, 3))
            row = tuple(k * c for c in draw(st.sampled_from(rows)))
        else:
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            row = tuple(a + b for a, b in zip(u, v))
        rows.insert(draw(st.integers(0, len(rows))), row)
    return rows


@settings(max_examples=500, deadline=None)
@given(gram_rows())
@example([(0, 0), (1, 0), (0, 1)])
@example([(1, 2, 0), (2, 4, 0), (0, 1, 1), (1, 0, 1)])
def test_det_bareiss_matches_frozen_reference(rows):
    """The Gram determinant without the pivot search against the frozen
    elimination that exchanged rows at a zero pivot."""
    gram = [[sum(a * b for a, b in zip(u, v)) for v in rows] for u in rows]
    want = reference_det_bareiss_int([r[:] for r in gram])
    assert _det_bareiss_int([r[:] for r in gram]) == want


def test_dependent_rational_basis_raises():
    with pytest.raises(ValueError, match="linearly dependent"):
        LatticeBasis([(F(1, 2), F(1, 3)), (F(3, 2), 1)])


@st.composite
def hnf_step_rows(draw):
    """Integer rows for both steps of ``_column_hnf``, the exact division
    and the extended gcd: entries up to 10^6 beside small ones, rows
    negated (a negative pivot entry), zero, repeated and dependent rows;
    or an HNF and one more row."""
    d = draw(st.integers(1, 5))
    entry = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6))
    row = st.lists(entry, min_size=d, max_size=d)
    rows = draw(st.lists(row, max_size=d + 1))
    for kind in draw(st.lists(
            st.sampled_from(["zero", "repeat", "sum", "negate"]),
            max_size=3)):
        if kind == "zero" or not rows:
            rows.append([0] * d)
        elif kind == "repeat":
            rows.append(draw(st.sampled_from(rows)))
        elif kind == "sum":
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            k = draw(st.integers(-3, 3))
            rows.append([a + k * b for a, b in zip(u, v)])
        else:
            i = draw(st.integers(0, len(rows) - 1))
            rows[i] = [-c for c in rows[i]]
    if draw(st.booleans()):
        rows = [*reference_hnf(rows), draw(row)]
    return rows


@settings(max_examples=300, deadline=None)
@given(rational_rows(lambda d: d + 3), st.data())
def test_canonical_basis_matches_frozen_reference(rows, data):
    assert canonical_basis(rows) == reference_canonical_basis(rows)
    ints = [tuple(int(c * 12) for c in r) for r in rows]  # clears denominators
    assert canonical_basis(ints) == reference_hnf(ints)
    wide = data.draw(hnf_step_rows())
    assert _column_hnf(wide) == reference_hnf(wide)
    # integerize returns all-int rows as they are, at scale 1; bool entries
    # take the Fraction path and come back as int.  No rows, or rows of two
    # lengths, go through it too.
    if data.draw(st.booleans()):
        ints = [tuple(data.draw(st.sampled_from([c, False, True]))
                      for c in r) for r in ints]
    if ints and data.draw(st.booleans()):
        ints.append(ints[0] + (1,))
        with pytest.raises(ValueError,
                           match="^vectors have mixed dimensions$"):
            integerize(ints)
        return
    got = integerize(ints)
    assert got == reference_integerize(ints)
    assert {type(c) for r in got[0] for c in r} <= {int}


@st.composite
def presented_lattice_pairs(draw):
    """Two families of integer rows of one length, each over a scale in 1,
    2, 3 and 6 (no rows, zero rows and dependent rows included): the second
    is the first after unimodular row operations, perhaps with one row
    doubled, and perhaps over a multiple of the scale.  Each is presented
    as a ``LatticeBasis`` (when independent), a ``GeneratingSet`` from its
    rows, or plain vectors; returned with its vectors."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(0, 4))
    scale = draw(st.sampled_from([1, 2, 3, 6]))
    rows = [[draw(st.integers(-3, 3)) for _ in range(d)] for _ in range(n)]
    other = [r[:] for r in rows]
    for _ in range(draw(st.integers(0, 2 * n)) if n > 1 else 0):
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        s = draw(st.sampled_from([-1, 1]))
        other[a] = [x + s * y for x, y in zip(other[a], other[b])]
    if n and draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        other[i] = [2 * x for x in other[i]]
    k = draw(st.sampled_from([1, 2, 3]))
    pairs = []
    for rs, sc in ((rows, scale), ([[k * x for x in r] for r in other],
                                   k * scale)):
        vectors = [tuple(F(x, sc) for x in r) for r in rs]
        kind = draw(st.sampled_from(["basis", "set", "vectors"]))
        if kind == "basis" and rank_of(vectors) == len(vectors):
            presented = LatticeBasis(vectors, dim=d)
        elif kind == "set":
            bound = F(max((sum(x * x for x in r) for r in rs), default=0),
                      sc * sc)
            presented = GeneratingSet.from_rows(rs, sc, bound)
        else:
            presented = vectors
        pairs.append((presented, vectors))
    return pairs


@settings(max_examples=300, deadline=None)
@given(presented_lattice_pairs())
def test_lattice_equal_matches_frozen_reference(pairs):
    (a, va), (b, vb) = pairs
    want = reference_canonical_basis(va) == reference_canonical_basis(vb)
    assert lattice_equal(a, b) == lattice_equal(b, a) == want


@st.composite
def generators_with_repeats(draw):
    """Generator rows as ``parse_lattice_file`` reads them, ``int`` entries
    for integers and ``Fraction`` ones otherwise, with at least one row
    repeated, a repeat perhaps with ``Fraction`` entries throughout; and
    one of the distinct rows."""
    d = draw(st.integers(1, 3))
    rows = [tuple(int(c) if c.denominator == 1 else c for c in r)
            for r in draw(st.lists(st.tuples(*[RATIONAL_ENTRIES] * d),
                                   min_size=1, max_size=5))]
    for r in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=5)):
        rows.append(tuple(map(F, r)) if draw(st.booleans()) else r)
    rows = draw(st.permutations(rows))
    return rows, draw(st.sampled_from(list(dict.fromkeys(rows))))


@settings(max_examples=200, deadline=None)
@given(generators_with_repeats())
def test_distinct_generators_decide_lattice_equal_alike(case):
    """``basis --verify`` compares the basis with the distinct generators,
    which generate the lattice of all of them: ``lattice_equal`` decides
    alike for the basis of the rows and for the basis of the rows without
    one distinct generator."""
    rows, dropped = case
    distinct = list(dict.fromkeys(rows))
    for b in (incremental_basis(rows)[0],
              incremental_basis([r for r in rows if r != dropped])[0]):
        assert lattice_equal(b, distinct) == lattice_equal(b, rows)


class TestMixedDimensions:
    """Vectors of different lengths raise one ``ValueError``, from
    ``integerize``, wherever vectors are taken; none is dropped silently."""

    @pytest.mark.parametrize("build", [
        lambda: canonical_basis([(2,), (0, 1)]),
        lambda: canonical_basis([(1, 0), (1,)]),
        lambda: lattice_equal([(1, 0), (2,)], [(1, 0), (0, 1)]),
        lambda: lattice_equal([(1, 0)], [(F(1, 2),), (0, 1)]),
        lambda: LatticeBasis([(1, 0), (F(1, 2),)]),
        lambda: mlll([(1, 0, 0), (0, 1)]),
        lambda: incremental_basis([(1, 0), (1,)]),
        lambda: GeneratingSet([(1, 0, 0), (2,)], 10),
    ], ids=["canonical_basis_short_first", "canonical_basis_short_last",
            "lattice_equal_left", "lattice_equal_right", "LatticeBasis",
            "mlll", "incremental_basis", "GeneratingSet"])
    def test_raises(self, build):
        with pytest.raises(ValueError,
                           match="^vectors have mixed dimensions$"):
            build()


@pytest.mark.parametrize("build, message", [
    (lambda: LatticeBasis([(1, 0)], dim=3),
     "dim does not match vector length"),
    (lambda: lattice_equal([(1, 0)], [(1, 0, 0)]),
     "ambient dimensions differ"),
    (lambda: graph_decomposition_oracle(GeneratingSet([], 1, complete=True)),
     "generating set is empty"),
    (lambda: graph_decomposition_oracle(GeneratingSet([(1, 0)], 1)),
     "orthogonal decomposition requires a complete set"),
    (lambda: greedy_minima_oracle(GeneratingSet([], 1, complete=True)),
     "generating set is empty"),
    (lambda: greedy_minima_oracle(GeneratingSet([(1, 0)], 1)),
     "successive minima require a complete set"),
    (lambda: successive_minima(GeneratingSet([], 1, complete=True)),
     "generating set is empty"),
    (lambda: successive_minima(GeneratingSet([(1, 0)], 1)),
     "successive minima require a complete set"),
    (lambda: orthogonal_decomposition(GeneratingSet([], 1, complete=True)),
     "generating set is empty"),
    (lambda: orthogonal_decomposition(GeneratingSet([(1, 0)], 1)),
     "orthogonal decomposition requires a complete set"),
    (lambda: first_minimum_sq(LatticeBasis((), dim=2)),
     "lattice of rank zero has no first minimum"),
], ids=["LatticeBasis-dim", "lattice_equal-dims", "graph-oracle-empty",
        "graph-oracle-incomplete", "greedy-oracle-empty",
        "greedy-oracle-incomplete", "minima-empty", "minima-incomplete",
        "decompose-empty", "decompose-incomplete", "first_minimum_sq-rank-0"])
def test_input_guards(build, message):
    with pytest.raises(ValueError, match=f"^{message}$") as err:
        build()
    assert type(err.value) is ValueError


@settings(max_examples=200, deadline=None)
@given(rational_rows(lambda d: d + 2))
def test_basis_rows_over_scale_give_its_vectors(rows):
    """The checked constructor and the engine's output both keep int tuples
    over a positive scale, and ``vectors`` is their quotient."""
    bases = [mlll(rows)]
    checked = _outcome(lambda: LatticeBasis(rows))
    if isinstance(checked, LatticeBasis):
        assert checked.vectors == tuple(tuple(map(F, r)) for r in rows)
        bases.append(checked)
    for b in bases:
        assert type(b.rows) is tuple and b.scale >= 1
        assert all(type(r) is tuple and len(r) == b.dim for r in b.rows)
        assert all(type(c) is int for r in b.rows for c in r)
        assert b.vectors == tuple(tuple(F(c, b.scale) for c in r)
                                  for r in b.rows)


@settings(max_examples=200, deadline=None)
@given(rational_rows(lambda d: d), st.integers(1, 4))
def test_basis_equality_hash_and_repr_are_on_vectors(rows, k):
    """Equal vectors make equal bases whatever their presentation: int or
    Fraction entries, or rows over a multiple of the scale."""
    ints = [tuple(int(c * 12) for c in r) for r in rows]
    a = _outcome(lambda: LatticeBasis(ints))
    if not isinstance(a, LatticeBasis):
        return
    b = LatticeBasis([tuple(map(F, r)) for r in ints])
    c = LatticeBasis._trusted(
        tuple(tuple(k * x for x in r) for r in a.rows), k * a.scale,
        a.volume_sq, a.dim)
    for other in (b, c):
        assert a == other and hash(a) == hash(other)
        assert repr(a) == repr(other)


def test_basis_repr_lists_fraction_vectors():
    assert repr(LatticeBasis([(1, F(1, 2)), (0, 2)])) == \
        "LatticeBasis([(Fraction(1, 1), Fraction(1, 2)), " \
        "(Fraction(0, 1), Fraction(2, 1))])"


def test_basis_fields_are_frozen():
    b = LatticeBasis([(1, F(1, 2)), (0, 2)])
    for name in ("rows", "scale", "volume_sq", "dim"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(b, name, getattr(b, name))


def test_complete_set_must_hold_each_negation():
    # Without (-1, 0) and (0, -1) the scans, which insert only the rows
    # below zero, would find no minimum and no component.
    with pytest.raises(ValueError,
                       match="^a complete set must hold -v with every v$"):
        GeneratingSet([(1, 0), (0, 1)], 1, complete=True)
    assert not GeneratingSet([(1, 0), (0, 1)], 1).complete
    s = GeneratingSet([(1, 0), (0, 1), (0, -1), (-1, 0)], 1, complete=True)
    assert successive_minima(s).minima_sq == (1, 1)
    assert orthogonal_decomposition(s).r == 2
