import math
import random
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latkit import (
    UpdateTrace,
    first_minimum_sq,
    generating_subset,
    incremental_basis,
    lattice_equal,
    norm_sq,
    update_step_bound,
    update_step_bound_holds,
    update_step_bound_value,
)

from conftest import d4_basis
from latkit.enumeration import EnumerationRequest, enumerate_up_to
from test_engine import count_gram_schmidt_rows


def dyadic_staircase(d, k):
    """2^k e_c, 2^(k-1) e_c, ..., e_c for each coordinate c, largest
    first: each halves the lattice's last step in e_c, so every one is an
    update, and the lattice ends at Z^d."""
    return [tuple(2 ** j * (i == c) for i in range(d))
            for c in range(d) for j in range(k, -1, -1)]


class TestIncrementalBasis:
    def test_members_skip_updates(self):
        gens = [(1, 0), (0, 1), (1, 1), (2, 0)]
        basis, trace = incremental_basis(gens)
        assert basis.rank == 2
        assert trace.update_count == 2
        assert [r.was_update for r in trace.insertions] == \
            [True, True, False, False]

    def test_gcd_forces_update(self):
        basis, trace = incremental_basis([(4,), (6,)])
        assert trace.update_count == 2
        assert lattice_equal(basis, [(2,)])

    def test_zero_generators_not_recorded(self):
        _, trace = incremental_basis([(0, 0), (1, 0), (0, 0)])
        assert len(trace.insertions) == 1

    def test_d4_minimal_vectors(self):
        d4 = d4_basis()
        s = enumerate_up_to(EnumerationRequest(d4, 2))
        assert len(s.vectors) == 24
        basis, trace = incremental_basis(list(s.vectors))
        assert lattice_equal(basis, d4)
        assert trace.update_count <= 8  # 4 + log2(4! * 1) < 8.59

    def test_volume_monotone_within_rank(self):
        rng = random.Random(6)
        for _ in range(30):
            d = rng.randint(1, 5)
            gens = [tuple(rng.randint(-9, 9) for _ in range(d))
                    for _ in range(rng.randint(d, 15))]
            _, trace = incremental_basis(gens)
            prev = None
            for rec in trace.insertions:
                if prev is not None and rec.rank_after == prev.rank_after:
                    if rec.was_update:
                        assert rec.volume_sq_after < prev.volume_sq_after
                    else:
                        assert rec.volume_sq_after == prev.volume_sq_after
                prev = rec

    def test_order_invariance(self):
        rng = random.Random(7)
        for _ in range(20):
            d = rng.randint(1, 4)
            gens = [tuple(rng.randint(-9, 9) for _ in range(d))
                    for _ in range(rng.randint(d, 10))]
            for _ in range(4):
                perm = gens[:]
                rng.shuffle(perm)
                basis, _ = incremental_basis(perm)
                assert lattice_equal(basis, gens)


class TestUpdateStepBound:
    def test_trivial_when_count_below_rank(self):
        _, trace = incremental_basis([(1, 0), (0, 1)])
        assert update_step_bound_holds(trace, 2, 2, 1)

    def test_gcd_case(self):
        _, trace = incremental_basis([(4,), (6,)])
        # u=2, d=1: 4^1 <= 1 * (36/4)^1
        assert update_step_bound_holds(trace, 1, 36, 4)

    def test_violation_detected(self):
        class FakeTrace:
            update_count = 9
        assert not update_step_bound_holds(FakeTrace(), 4, 2, 2)

    def test_rejects_nonpositive_lambda(self):
        class FakeTrace:
            update_count = 1
        with pytest.raises(ValueError):
            update_step_bound_holds(FakeTrace(), 1, 1, 0)
        # At rank zero there is no first minimum.
        with pytest.raises(ValueError):
            update_step_bound([(0, 0)], *incremental_basis([(0, 0)]))

    def test_holds_on_random_instances(self):
        rng = random.Random(8)
        for _ in range(30):
            d = rng.randint(1, 4)
            gens = [tuple(rng.randint(-9, 9) for _ in range(d))
                    for _ in range(rng.randint(d, 12))]
            basis, trace = incremental_basis(gens)
            if basis.rank == 0:
                continue
            bsq = max(norm_sq(tuple(map(F, g))) for g in gens
                      if any(g))
            lam1 = first_minimum_sq(basis)
            assert update_step_bound_holds(trace, basis.rank, bsq, lam1)
            assert update_step_bound(gens, basis, trace) == (
                update_step_bound_value(basis.rank, bsq, lam1), True)


class TestUpdateStepBoundOnStaircases:
    """The dyadic staircase makes d(k+1) updates with B^2 = 4^k and
    lambda_1 = 1, against the bound d + log2(d! 2^(kd)) = d(k+1) +
    log2(d!): only the log2(d!) term is room.  At d = 1 the bound is
    met with equality."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_update_count_and_bound_value(self, d, k):
        basis, trace = incremental_basis(dyadic_staircase(d, k))
        assert lattice_equal(basis, [tuple(int(i == c) for i in range(d))
                                     for c in range(d)])
        assert trace.update_count == d * (k + 1)
        assert first_minimum_sq(basis) == 1
        assert update_step_bound_value(d, 4 ** k, 1) == \
            pytest.approx(d * (k + 1) + math.log2(math.factorial(d)))
        assert update_step_bound_holds(trace, d, 4 ** k, 1)

    def test_bound_met_with_equality_in_dimension_one(self):
        _, trace = incremental_basis([(8,), (4,), (2,), (1,)])
        assert trace.update_count == 4
        assert update_step_bound_value(1, 64, 1) == 4.0
        assert update_step_bound_holds(trace, 1, 64, 1)
        one_more = UpdateTrace(trace.steps + ((4, True, 1, 1),), trace.scale,
                               trace.swaps)
        assert one_more.update_count == 5
        assert not update_step_bound_holds(one_more, 1, 64, 1)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_rows_past_z_d_leave_the_trace(self, d, monkeypatch):
        # Rows after the staircase reaches Z^d are members with no
        # Gram-Schmidt row: the staircase's steps, swaps and basis stay as
        # they were, and each new step reads (i, False, d, 1).
        calls = count_gram_schmidt_rows(monkeypatch)
        stair = dyadic_staircase(d, 2)
        basis, trace = incremental_basis(stair)
        n = len(calls)
        extra = [tuple(range(1, d + 1)), tuple([-3] * d), stair[0],
                 tuple(-c for c in stair[-1])]
        longer_basis, longer = incremental_basis(stair + extra)
        assert len(calls) == 2 * n
        assert longer_basis == basis
        assert longer.steps[:len(stair)] == trace.steps
        assert longer.steps[len(stair):] == tuple(
            (i, False, d, 1) for i in range(len(stair), len(stair) + 4))
        assert (longer.swaps, longer.update_count) == \
            (trace.swaps, trace.update_count)


@st.composite
def small_families(draw):
    """Up to six nonzero integer rows in dimension 1 to 3."""
    d = draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(-6, 6)] * d).filter(any)
    return d, draw(st.lists(row, min_size=1, max_size=6))


@settings(max_examples=40, deadline=None)
@given(small_families())
def test_bound_holds_for_the_worst_insertion_order(family):
    # The bound is over every order: check the order with the most
    # updates, found by trying all of them.
    d, gens = family
    basis, _ = incremental_basis(gens)
    worst = max((incremental_basis(p)[1] for p in permutations(gens)),
                key=lambda t: t.update_count)
    assert update_step_bound(gens, basis, worst)[1]


class TestGeneratingSubset:
    def test_simple(self):
        gens = [(1, 0), (0, 1), (1, 1)]
        _, trace = incremental_basis(gens)
        subset = generating_subset(gens, trace)
        assert subset == ((F(1), F(0)), (F(0), F(1)))

    def test_gcd_both_updates(self):
        gens = [(4,), (6,)]
        _, trace = incremental_basis(gens)
        assert generating_subset(gens, trace) == ((F(4),), (F(6),))

    def test_members_of_first(self):
        gens = [(2, 4), (4, 8), (-2, -4)]
        _, trace = incremental_basis(gens)
        assert generating_subset(gens, trace) == ((F(2), F(4)),)

    def test_regenerates_lattice(self):
        rng = random.Random(9)
        for _ in range(30):
            d = rng.randint(1, 4)
            gens = [tuple(rng.randint(-9, 9) for _ in range(d))
                    for _ in range(rng.randint(d, 12))]
            _, trace = incremental_basis(gens)
            subset = generating_subset(gens, trace)
            assert len(subset) == trace.update_count
            assert lattice_equal(subset, gens)
