import random
from fractions import Fraction as F

import pytest

from latkit import LatticeBasis, ReductionParams, basis_union, lattice_equal, mlll

from reference_linalg import rank_of
from reference_mlll import gram_schmidt


def check_lll_reduced(basis: LatticeBasis, delta=F(3, 4)):
    bstar, mu = gram_schmidt(basis.vectors)
    for row in mu:
        assert all(abs(x) <= F(1, 2) for x in row)
    for k in range(1, basis.rank):
        bk = sum(x * x for x in bstar[k])
        bk1 = sum(x * x for x in bstar[k - 1])
        assert bk >= (delta - mu[k][k - 1] ** 2) * bk1


class TestReductionParams:
    def test_default(self):
        assert ReductionParams().delta == F(3, 4)

    @pytest.mark.parametrize("delta", [F(1, 4), F(0), F(5, 4)])
    def test_rejects_out_of_range(self, delta):
        with pytest.raises(ValueError):
            ReductionParams(delta)


class TestMlll:
    def test_redundant_z2(self):
        b = mlll([(1, 0), (0, 1), (1, 1)])
        assert b.rank == 2
        assert lattice_equal(b, [(1, 0), (0, 1)])

    def test_gcd(self):
        b = mlll([(4,), (6,)])
        assert lattice_equal(b, [(2,)])
        assert abs(b.vectors[0][0]) == 2

    def test_zero_input(self):
        assert mlll([(0, 0)]).rank == 0

    def test_duplicates(self):
        b = mlll([(3, 1)] * 5)
        assert b.rank == 1
        assert lattice_equal(b, [(3, 1)])

    def test_rational_input(self):
        b = mlll([(F(1, 2), 0), (0, F(1, 3)), (F(1, 2), F(1, 3))])
        assert b.rank == 2
        assert lattice_equal(b, [(F(1, 2), 0), (0, F(1, 3))])

    def test_agrees_with_hnf_oracle_randomized(self):
        rng = random.Random(42)
        for _ in range(200):
            d = rng.randint(1, 6)
            m = rng.randint(d, 20)
            gens = [tuple(rng.randint(-20, 20) for _ in range(d))
                    for _ in range(m)]
            red = mlll(gens)
            assert lattice_equal(red, gens)
            assert red.rank == rank_of([tuple(map(F, g)) for g in gens])
            check_lll_reduced(red)

    def test_lll_conditions_with_custom_delta(self):
        rng = random.Random(5)
        params = ReductionParams(F(99, 100))
        for _ in range(20):
            gens = [tuple(rng.randint(-9, 9) for _ in range(4))
                    for _ in range(8)]
            red = mlll(gens, params)
            check_lll_reduced(red, delta=F(99, 100))


class TestBasisUnion:
    def test_rank_extension(self):
        b = basis_union(LatticeBasis([(1, 0)]), (0, 1))
        assert b.rank == 2
        assert lattice_equal(b, [(1, 0), (0, 1)])

    def test_index_drop(self):
        b = basis_union(LatticeBasis([(2, 0), (0, 1)]), (1, 0))
        assert b.rank == 2
        assert lattice_equal(b, [(1, 0), (0, 1)])

    def test_gcd(self):
        b = basis_union(LatticeBasis([(4,)]), (6,))
        assert lattice_equal(b, [(2,)])
