import random
from fractions import Fraction as F

import pytest

from latkit import (
    GeneratingSet,
    LatticeBasis,
    MinimaResult,
    enumerate_up_to,
    greedy_minima_oracle,
    minkowski_check,
    norm_sq,
    successive_minima,
)
from latkit.enumeration import EnumerationRequest

from conftest import d4_basis, random_reduced_basis


def complete_set(basis, bound_sq):
    return enumerate_up_to(EnumerationRequest(basis, bound_sq))


class TestSuccessiveMinima:
    def test_z2(self, z2):
        r = successive_minima(complete_set(z2, 1))
        assert r.minima_sq == (1, 1)
        assert r.rank == 2

    def test_diag_1_2(self):
        basis = LatticeBasis([(1, 0), (0, 2)])
        r = successive_minima(complete_set(basis, 4))
        assert r.minima_sq == (1, 4)

    def test_d4(self):
        r = successive_minima(complete_set(d4_basis(), 2))
        assert r.minima_sq == (2, 2, 2, 2)

    def test_witnesses_match_minima(self):
        r = successive_minima(complete_set(d4_basis(), 2))
        for w, m in zip(r.witnesses, r.minima_sq):
            assert norm_sq(w) == m

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            successive_minima(GeneratingSet([], 1, complete=True))

    def test_result_without_witnesses(self):
        r = MinimaResult((F(1), F(3)), (), 2)
        assert (r.minima_sq, r.rows, r.scale, r.rank, r.partial) == \
            ((1, 3), (), 1, 2, False)
        assert r.witnesses == ()
        assert r == MinimaResult.from_rows([F(1), F(3)], (), 6, 2)

    def test_rejects_incomplete(self, z2):
        s = complete_set(z2, 1)
        incomplete = GeneratingSet(s.vectors, s.bound_sq, complete=False)
        with pytest.raises(ValueError):
            successive_minima(incomplete)

    def test_partial_flag(self):
        basis = LatticeBasis([(1, 0), (0, 5)])
        r = successive_minima(complete_set(basis, 4), expected_rank=2)
        assert r.partial
        assert r.rank == 1

    def test_first_minimum_is_shortest(self):
        rng = random.Random(10)
        for _ in range(20):
            basis = random_reduced_basis(rng, rng.randint(1, 4))
            bsq = 2 * max(norm_sq(v) for v in basis.vectors)
            s = complete_set(basis, bsq)
            r = successive_minima(s)
            assert r.minima_sq[0] == min(norm_sq(v) for v in s.vectors)

    def test_matches_greedy_oracle(self):
        rng = random.Random(11)
        for _ in range(40):
            basis = random_reduced_basis(rng, rng.randint(1, 4))
            bsq = 2 * max(norm_sq(v) for v in basis.vectors)
            s = complete_set(basis, bsq)
            assert successive_minima(s).minima_sq == \
                greedy_minima_oracle(s).minima_sq

    def test_tie_order_immaterial(self):
        rng = random.Random(12)
        basis = d4_basis()
        s = complete_set(basis, 2)
        reference = successive_minima(s).minima_sq
        for _ in range(5):
            perm = list(s.vectors)
            rng.shuffle(perm)
            shuffled = GeneratingSet(perm, s.bound_sq, complete=True)
            assert successive_minima(shuffled).minima_sq == reference


class TestMinkowskiCheck:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_unit_lattice(self, d):
        basis = LatticeBasis([[1 if i == j else 0 for j in range(d)]
                              for i in range(d)])
        r = successive_minima(complete_set(basis, 1))
        assert minkowski_check(basis, r)

    def test_d4(self):
        basis = d4_basis()
        assert minkowski_check(basis, successive_minima(
            complete_set(basis, 2)))

    def test_diag(self):
        basis = LatticeBasis([(1, 0), (0, 2)])
        assert minkowski_check(basis, successive_minima(
            complete_set(basis, 4)))

    def test_rank_one_is_exact(self):
        # At rank 1 both bounds read 2 vol L: lambda_1^2 must equal 9
        # exactly, with no float tolerance.
        basis = LatticeBasis([(3,)])
        exact = MinimaResult((F(9),), [(3,)], 1)
        assert minkowski_check(basis, exact)
        assert minkowski_check(basis, successive_minima(
            complete_set(basis, 9)))
        above = MinimaResult((9 * (1 + F(1, 10 ** 12)),), [(3,)], 1)
        assert not minkowski_check(basis, above)
        assert not minkowski_check(basis, above, rel_tol=1e-3)
        assert not minkowski_check(basis, MinimaResult((F(4),), [(2,)], 1))

    def test_rank_mismatch_rejected(self, z2):
        r = successive_minima(complete_set(LatticeBasis([(1, 0), (0, 5)]),
                                           4), expected_rank=2)
        with pytest.raises(ValueError):
            minkowski_check(z2, r)

    def test_random_lattices(self):
        rng = random.Random(13)
        for _ in range(20):
            basis = random_reduced_basis(rng, rng.randint(1, 4))
            bsq = 2 * max(norm_sq(v) for v in basis.vectors)
            r = successive_minima(complete_set(basis, bsq))
            if r.rank == basis.rank:
                assert minkowski_check(basis, r)
