import random
from fractions import Fraction as F

import pytest

from latkit import (
    first_minimum_sq,
    generating_subset,
    incremental_basis,
    lattice_equal,
    norm_sq,
    update_step_bound_holds,
)

from conftest import d4_basis
from latkit.enumeration import EnumerationRequest, enumerate_up_to


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
