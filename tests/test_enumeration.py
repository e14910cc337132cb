import math
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latkit import (
    EnumerationCapExceeded,
    EnumerationRequest,
    GeneratingSet,
    LatticeBasis,
    enumerate_up_to,
    first_minimum_sq,
    is_member,
    norm_sq,
)
from latkit.reduction import IncrementalLattice

from conftest import d4_basis, random_reduced_basis, scrambled_block_lattices
from reference_enumeration import box_oracle, reference_enumerate_up_to
from reference_mlll import reference_mlll


class TestEnumerateUpTo:
    def test_z2_units(self, z2):
        s = enumerate_up_to(EnumerationRequest(z2, 1))
        assert set(s.vectors) == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_z2_count_at_two(self, z2):
        assert len(enumerate_up_to(EnumerationRequest(z2, 2)).vectors) == 8

    def test_d4_kissing_number(self):
        s = enumerate_up_to(EnumerationRequest(d4_basis(), 2))
        assert len(s.vectors) == 24

    def test_complete_flag_set(self, z2):
        assert enumerate_up_to(EnumerationRequest(z2, 1)).complete

    def test_negation_closure(self):
        rng = random.Random(17)
        for _ in range(20):
            basis = random_reduced_basis(rng, rng.randint(1, 4))
            bsq = 2 * max(norm_sq(v) for v in basis.vectors)
            s = enumerate_up_to(EnumerationRequest(basis, bsq))
            vs = set(s.vectors)
            assert all(tuple(-c for c in v) in vs for v in vs)

    def test_membership_and_bound(self):
        rng = random.Random(18)
        for _ in range(10):
            basis = random_reduced_basis(rng, rng.randint(1, 3))
            bsq = 2 * max(norm_sq(v) for v in basis.vectors)
            s = enumerate_up_to(EnumerationRequest(basis, bsq))
            for v in s.vectors:
                assert norm_sq(v) <= bsq
                assert is_member(basis, v)

    def test_monotone_in_bound(self):
        rng = random.Random(19)
        for _ in range(10):
            basis = random_reduced_basis(rng, rng.randint(1, 3))
            b1 = max(norm_sq(v) for v in basis.vectors)
            b2 = 2 * b1
            s1 = set(enumerate_up_to(EnumerationRequest(basis, b1)).vectors)
            s2 = set(enumerate_up_to(EnumerationRequest(basis, b2)).vectors)
            assert s1 <= s2

    def test_cap_is_an_error_not_truncation(self, z2):
        with pytest.raises(EnumerationCapExceeded):
            enumerate_up_to(EnumerationRequest(z2, 100, cap=10))

    def test_rank_past_the_recursion_limit(self):
        # The search recurses once per level: a rank above the room left
        # under the recursion limit still completes, and the limit is the
        # caller's again afterwards.
        basis = LatticeBasis([[int(i == j) for j in range(60)]
                              for i in range(60)])
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 30)
        try:
            s = enumerate_up_to(EnumerationRequest(basis, 1))
            after = sys.getrecursionlimit()
        finally:
            sys.setrecursionlimit(limit)
        assert len(s.rows) == 120
        assert after == depth + 30

    def test_rejects_bad_request(self, z2):
        with pytest.raises(ValueError):
            EnumerationRequest(z2, 0)
        with pytest.raises(ValueError):
            EnumerationRequest(LatticeBasis((), dim=2), 1)


class TestEngineInput:
    def test_engine_is_not_reduced_again(self, monkeypatch):
        lat = IncrementalLattice.from_generators([(5, 7), (4, 6)])
        rows, d, lam = list(lat.rows), lat.d[:], [l[:] for l in lat.lam]

        def no_reduction(*args, **kwargs):
            raise AssertionError("the engine was reduced again")

        monkeypatch.setattr(IncrementalLattice, "from_generators",
                            no_reduction)
        s = enumerate_up_to(EnumerationRequest(lat, 2))
        assert set(s.vectors) == {(1, 1), (-1, -1), (1, -1), (-1, 1)}
        assert (lat.rows, lat.d, lat.lam) == (rows, d, lam)

    def test_engine_and_basis_give_the_same_set(self):
        rows = [(F(1, 2), 3, 0), (0, F(2, 3), 1), (1, 1, 1)]
        for bound_sq in (1, F(13, 4), 10):
            via_basis = enumerate_up_to(
                EnumerationRequest(LatticeBasis(rows), bound_sq))
            via_engine = enumerate_up_to(EnumerationRequest(
                IncrementalLattice.from_generators(rows), bound_sq))
            assert via_engine == via_basis
            assert via_engine.rows == via_basis.rows
            # The least common denominator of the vectors: 1 for the
            # empty set at bound 1.
            assert via_engine.scale == via_basis.scale == math.lcm(
                *(c.denominator for v in via_basis.vectors for c in v))

    def test_rejects_empty_engine(self):
        with pytest.raises(ValueError):
            EnumerationRequest(IncrementalLattice(2), 1)


@st.composite
def small_bases(draw):
    """A basis of rank 1 to 4 in dimension rank to rank + 1, with entries
    of at most 3 in absolute value over a denominator of 1, 2, 3 or 6 per
    entry (so the common scale may exceed 1), the same basis reduced by the
    frozen rational MLLL, and a squared norm bound from a quarter to three
    times the largest squared norm of a reduced basis vector; ``None`` for
    dependent rows."""
    n = draw(st.integers(1, 4))
    dim = draw(st.integers(n, n + 1))
    entry = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3, 6]))
    rows = draw(st.lists(st.tuples(*[entry] * dim), min_size=n, max_size=n))
    try:
        basis = LatticeBasis(rows)
    except ValueError:
        return None
    reduced = reference_mlll(rows)
    top = max(norm_sq(v) for v in reduced.vectors)
    return basis, reduced, draw(st.integers(1, 12)) * top / 4


@settings(max_examples=150, deadline=None)
@given(small_bases(), st.booleans())
def test_matches_frozen_enumerator_and_box_oracle(case, on_engine):
    """The enumerator returns exactly the set, rows and scale of the frozen
    enumerator it replaced, and the vectors of the box scan (run on a basis
    reduced by the frozen rational MLLL, never by the engine); handed an
    engine instead of a basis, it gives the same.  For a cap just below,
    at and just above the total count, it raises exactly when the total
    passes the cap."""
    assume(case is not None)
    basis, reduced, bound_sq = case
    want = reference_enumerate_up_to(EnumerationRequest(basis, bound_sq))
    box = box_oracle(EnumerationRequest(reduced, bound_sq))
    assert want.vectors == box.vectors
    given_basis = IncrementalLattice.from_generators(basis.vectors) \
        if on_engine else basis
    total = len(want.vectors)
    for cap in (total - 1, total, total + 1):
        if cap < 0:
            continue
        req = EnumerationRequest(given_basis, bound_sq, cap)
        if total > cap:
            with pytest.raises(EnumerationCapExceeded):
                enumerate_up_to(req)
            continue
        got = enumerate_up_to(req)
        assert got == want
        assert got.rows == want.rows
        assert got.scale == want.scale


@st.composite
def bases_below_their_dimension(draw):
    """A basis of rank 1 to 4 in dimension rank + 1 or rank + 2, of
    integer rows with entries of at most 3 over a scale of 1, 2 or 6, and a
    squared norm bound from a quarter to three times the largest squared
    norm of the basis reduced by the frozen rational MLLL."""
    n = draw(st.integers(1, 4))
    dim = n + draw(st.integers(1, 2))
    k = draw(st.sampled_from([1, 2, 6]))
    rows = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim),
                         min_size=n, max_size=n))
    vectors = [[F(c, k) for c in r] for r in rows]
    try:
        basis = LatticeBasis(vectors)
    except ValueError:
        assume(False)
    top = max(norm_sq(v) for v in reference_mlll(vectors).vectors)
    return basis, draw(st.integers(1, 12)) * top / 4


@settings(max_examples=150, deadline=None)
@given(bases_below_their_dimension(), st.booleans())
def test_leaf_norms_sort_as_from_rows(case, on_engine):
    """The enumerator sorts its rows by the squared norms its leaves work
    out, and hands them on unchecked; the result equals
    ``GeneratingSet.from_rows``, which checks them and sorts by ``_idot``,
    on the frozen enumerator's rows, and the cap raises at exactly the same
    count."""
    basis, bound_sq = case
    reference = reference_enumerate_up_to(EnumerationRequest(basis, bound_sq))
    want = GeneratingSet.from_rows(reference.rows, reference.scale, bound_sq,
                                   complete=True)
    given_basis = IncrementalLattice.from_generators(basis.vectors) \
        if on_engine else basis
    total = len(want.rows)
    for cap in (total - 1, total, total + 1):
        if cap < 0:
            continue
        req = EnumerationRequest(given_basis, bound_sq, cap)
        if total > cap:
            with pytest.raises(EnumerationCapExceeded):
                enumerate_up_to(req)
            continue
        got = enumerate_up_to(req)
        assert (got.rows, got.scale, got.bound_sq, got.complete) == \
            (want.rows, want.scale, want.bound_sq, True)


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_bases().filter(lambda case: case is not None)
                 .map(lambda case: (case[0], case[2])),
                 scrambled_block_lattices()))
def test_set_holds_each_negation_after_the_row_below_zero(case):
    """What the minima and decomposition scans rely on when they insert
    only rows below zero (first nonzero entry negative): each row of the
    set has its negation in the set, once, and of the two the row below
    zero comes first."""
    basis, bound_sq = case
    s = enumerate_up_to(EnumerationRequest(basis, bound_sq))
    zero = (0,) * basis.dim
    place = {row: i for i, row in enumerate(s.rows)}
    assert len(place) == len(s.rows)
    for i, row in enumerate(s.rows):
        assert (i < place[tuple(-c for c in row)]) == (row < zero)


class TestBoxOracle:
    def test_z1(self):
        s = box_oracle(EnumerationRequest(LatticeBasis([(1,)]), 9))
        assert set(s.vectors) == {(i,) for i in (-3, -2, -1, 1, 2, 3)}

    def test_scaled_axis(self):
        s = box_oracle(EnumerationRequest(LatticeBasis([(1, 0), (0, 2)]), 4))
        assert set(s.vectors) == {(1, 0), (-1, 0), (2, 0),
                                  (-2, 0), (0, 2), (0, -2)}

    def test_below_first_minimum_empty(self):
        basis = LatticeBasis([(2, 0), (0, 2)])
        s = box_oracle(EnumerationRequest(basis, 3))
        assert s.vectors == ()

    def test_rejects_large_dimension(self):
        basis = LatticeBasis([[1 if i == j else 0 for j in range(6)]
                              for i in range(6)])
        with pytest.raises(ValueError):
            box_oracle(EnumerationRequest(basis, 1))

    def test_matches_enumerator(self):
        rng = random.Random(20)
        for _ in range(40):
            basis = random_reduced_basis(rng, rng.randint(1, 4))
            bsq = 2 * max(norm_sq(v) for v in basis.vectors)
            req = EnumerationRequest(basis, bsq)
            assert enumerate_up_to(req).vectors == box_oracle(req).vectors


class TestFirstMinimum:
    def test_z2(self, z2):
        assert first_minimum_sq(z2) == 1

    def test_d4(self):
        assert first_minimum_sq(d4_basis()) == 2

    def test_skewed_presentation(self):
        # index-2 sublattice of Z^2 given by long vectors; shortest is (1,1)
        basis = LatticeBasis([(5, 7), (4, 6)])
        assert first_minimum_sq(basis) == 2

    def test_rational_basis(self):
        basis = LatticeBasis([(F(1, 2), F(1, 3)), (3, 1)])
        assert first_minimum_sq(basis) == F(13, 36)
        # The engine runs at scale 2; the set {(1, 0), (-1, 0)} it finds up
        # to its shortest row has scale 1, and the norm is read over that.
        assert first_minimum_sq(LatticeBasis([(1, 0), (F(1, 2), 9)])) == 1

    def test_reduces_once(self, monkeypatch):
        calls = []
        original = IncrementalLattice.extend

        def counted(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(IncrementalLattice, "extend", counted)
        assert first_minimum_sq(LatticeBasis([(5, 7), (4, 6)])) == 2
        assert len(calls) == 1
