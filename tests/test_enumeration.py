import random

import pytest

from latkit import (
    EnumerationCapExceeded,
    EnumerationRequest,
    LatticeBasis,
    enumerate_up_to,
    first_minimum_sq,
    is_member,
    norm_sq,
)

from conftest import d4_basis, random_reduced_basis
from reference_enumeration import box_oracle


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

    def test_rejects_bad_request(self, z2):
        with pytest.raises(ValueError):
            EnumerationRequest(z2, 0)
        with pytest.raises(ValueError):
            EnumerationRequest(LatticeBasis((), dim=2), 1)


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
