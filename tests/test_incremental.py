import math
import random
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latkit import (
    LatticeBasis,
    ReductionParams,
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
from latkit.core import _column_hnf, _det_with
from latkit.enumeration import EnumerationRequest, enumerate_up_to
from latkit.reduction import IncrementalLattice
from reference_hnf import reference_hnf
from reference_linalg import reference_det_bareiss_int, reference_is_member
from test_engine import (count_gram_schmidt_rows, generator_families,
                         params_st)


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


def engine_loop(gens, params=ReductionParams()):
    """The construction with every update through the engine: ``insert``
    of each distinct nonzero generator in order, a repeat recorded at the
    engine's state.  Its basis, its swaps and its steps."""
    slots = {}
    order = [slots.setdefault(tuple(g), len(slots)) for g in gens]
    lattice, rows = IncrementalLattice.over(slots, params)
    seen, steps = set(), []
    for i, s in enumerate(order):
        if not any(rows[s]):
            continue
        was_update = s not in seen and lattice.insert(rows[s])
        seen.add(s)
        steps.append((i, was_update, lattice.rank, lattice.d[lattice.rank]))
    return lattice.basis(), lattice.swaps, tuple(steps)


PRIMES = [2, 3, 5, 7]


@st.composite
def index_staircases(draw):
    """Full-rank families whose determinant falls in steps: a diagonal
    lattice with prime products on its diagonal, then rows that each
    divide one prime out of one coordinate (plus a drawn lattice vector),
    with members between them, all of it over a drawn denominator.  The
    drops may stop short of ``Z^d``; some families are a shuffled dyadic
    staircase instead."""
    d = draw(st.integers(1, 4))
    den = draw(st.sampled_from([1, 2, 3]))
    if draw(st.integers(0, 3)) == 0:
        gens = draw(st.permutations(dyadic_staircase(d, draw(
            st.integers(1, 3)))))
        return d, [tuple(F(c, den) for c in g) for g in gens]
    diag = [draw(st.lists(st.sampled_from(PRIMES), min_size=0, max_size=3))
            for _ in range(d)]
    m = [math.prod(ps) for ps in diag]
    coeffs = st.lists(st.integers(-2, 2), min_size=d, max_size=d)

    def member():
        return [k * mc for k, mc in zip(draw(coeffs), m)]

    gens = [tuple(mc * (i == c) for i in range(d)) for c, mc in enumerate(m)]
    drops = draw(st.permutations([(c, p) for c, ps in enumerate(diag)
                                  for p in ps]))
    drops = drops[:draw(st.integers(0, len(drops)))]
    for c, p in drops:
        for _ in range(draw(st.integers(0, 2))):
            gens.append(tuple(member()))
        m[c] //= p
        row = member() if draw(st.booleans()) else [0] * d
        row[c] += m[c]
        gens.append(tuple(row))
    gens += [tuple(member()) for _ in range(draw(st.integers(0, 2)))]
    return d, [tuple(F(c, den) for c in g) for g in gens]


@settings(max_examples=200, deadline=None)
@given(st.one_of(generator_families(), index_staircases()), params_st)
def test_incremental_basis_equals_the_engine_loop(family, params):
    # Setting the engine aside at full rank leaves the basis and the steps
    # of a loop that inserts every distinct generator into the engine, and
    # saves swaps only.
    _, gens = family
    basis, trace = incremental_basis(gens, params)
    want, swaps, steps = engine_loop(gens, params)
    assert (basis.rows, basis.scale, basis.volume_sq) == \
        (want.rows, want.scale, want.volume_sq)
    assert trace.steps == steps
    assert trace.swaps <= swaps


def count_rebuilds(monkeypatch):
    """The HNFs the engine is rebuilt from, from now on."""
    calls = []
    rebuild = IncrementalLattice._rebuild
    monkeypatch.setattr(
        IncrementalLattice, "_rebuild",
        lambda self, hnf: calls.append(hnf) or rebuild(self, hnf))
    return calls


def test_full_rank_updates_rebuild_the_engine_once(monkeypatch):
    # 60Z x Z loses 2, 3 and 5 in three updates, with a member between
    # them: the engine loop rebuilds at each update, incremental_basis
    # once at the end, from the HNF of 2Z x Z.
    gens = [(60, 0), (0, 1), (30, 0), (90, 7), (10, 4), (2, 0)]
    rebuilds = count_rebuilds(monkeypatch)
    want, _, steps = engine_loop(gens)
    assert len(rebuilds) == 3
    rebuilds.clear()
    basis, trace = incremental_basis(gens)
    assert rebuilds == [((2, 0), (0, 1))]
    assert [(u, d) for _, u, _, d in trace.steps] == \
        [(True, 3600), (True, 3600), (True, 900), (False, 900),
         (True, 100), (True, 4)]
    assert trace.steps == steps
    assert basis == want


@st.composite
def hnfs_and_rows(draw):
    """The HNF of ``d`` independent integer rows, and an integer row."""
    d = draw(st.integers(1, 4))
    row = st.tuples(*[st.integers(-6, 6)] * d)
    rows = draw(st.lists(row, min_size=d, max_size=d))
    assume(reference_det_bareiss_int([list(r) for r in rows]))
    return _column_hnf(rows), draw(row)


@settings(max_examples=300, deadline=None)
@given(hnfs_and_rows())
def test_det_with_equals_reference_hnf(case):
    # The determinant of h and the row is the product of the frozen HNF's
    # pivots, and it is det(h) exactly when the frozen solve finds the row
    # a member.
    h, row = case
    det = math.prod(r[j] for j, r in enumerate(h))
    g = _det_with(det, row, h, [r[j] for j, r in enumerate(h)])
    pivots = [[c for c in r if c][-1] for r in reference_hnf([*h, row])]
    assert g == math.prod(pivots)
    assert (g == det) is reference_is_member(LatticeBasis(h), row)
