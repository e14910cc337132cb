"""Acceptance suite: one test (and one printed PASS line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import random
import time
from fractions import Fraction as F

import pytest

from latkit import (
    GeneratingSet,
    LatticeBasis,
    canonical_component_forms,
    enumerate_up_to,
    first_minimum_sq,
    generating_subset,
    graph_decomposition_oracle,
    greedy_minima_oracle,
    incremental_basis,
    lattice_equal,
    minkowski_check,
    mlll,
    norm_sq,
    orthogonal_decomposition,
    successive_minima,
    update_step_bound_holds,
)
from latkit.cli import bench_row
from latkit.enumeration import EnumerationRequest
from latkit.reduction import DEFAULT_PARAMS

from conftest import d4_basis, embed_block, random_reduced_basis
from reference_enumeration import box_oracle


def _ok(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


@pytest.fixture(scope="module")
def basis_runs():
    """Criterion 1-3 shared corpus: 200 instances, 5 insertion orders each."""
    rng = random.Random(2024)
    runs = []
    for _ in range(200):
        d = rng.randint(1, 6)
        m = rng.randint(d, 20)
        gens = [tuple(rng.randint(-20, 20) for _ in range(d))
                for _ in range(m)]
        if all(not any(g) for g in gens):
            gens[0] = tuple([1] + [0] * (d - 1))
        orders = []
        for _ in range(5):
            perm = gens[:]
            rng.shuffle(perm)
            orders.append(perm)
        runs.append((gens, orders))
    return runs


def test_criterion_1_basis_oracle_equivalence(basis_runs):
    t0 = time.perf_counter()
    checked = 0
    for gens, orders in basis_runs:
        for perm in orders:
            basis, _ = incremental_basis(perm)
            assert lattice_equal(basis, gens)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _ok(1, f"{checked} runs match the HNF oracle ({elapsed:.1f}s)")


def test_criterion_2_update_step_bound(basis_runs):
    checked = 0
    for gens, orders in basis_runs:
        lam1 = None
        for perm in orders:
            basis, trace = incremental_basis(perm)
            if basis.rank == 0:
                continue
            if lam1 is None:
                lam1 = first_minimum_sq(basis)
            bsq = max(norm_sq(tuple(map(F, g))) for g in gens if any(g))
            assert update_step_bound_holds(trace, basis.rank, bsq, lam1)
            checked += 1
    # hand case: d=1, G={(4),(6)}: u=2, bound = 1 + log2(9)/2... = 2.585
    _, trace = incremental_basis([(4,), (6,)])
    assert trace.update_count == 2
    assert update_step_bound_holds(trace, 1, 36, 4)
    _ok(2, f"bound holds in all {checked} runs and the gcd hand case")


def test_criterion_3_generating_subset(basis_runs):
    checked = 0
    for gens, orders in basis_runs:
        for perm in orders:
            _, trace = incremental_basis(perm)
            subset = generating_subset(perm, trace)
            assert len(subset) == trace.update_count
            assert lattice_equal(subset, gens)
            checked += 1
    _ok(3, f"subset regenerates the lattice in all {checked} runs")


@pytest.fixture(scope="module")
def minima_corpus():
    rng = random.Random(77)
    corpus = []
    for _ in range(100):
        basis = random_reduced_basis(rng, rng.randint(1, 5), entry=3)
        bsq = 2 * max(norm_sq(v) for v in basis.vectors)
        s = enumerate_up_to(EnumerationRequest(basis, bsq))
        corpus.append((basis, s))
    return corpus


def test_criterion_4_successive_minima_oracle(minima_corpus):
    t0 = time.perf_counter()
    for basis, s in minima_corpus:
        assert successive_minima(s).minima_sq == \
            greedy_minima_oracle(s).minima_sq
    # fixed cases
    z2 = LatticeBasis([(1, 0), (0, 1)])
    assert successive_minima(
        enumerate_up_to(EnumerationRequest(z2, 1))).minima_sq == (1, 1)
    diag = LatticeBasis([(1, 0), (0, 2)])
    assert successive_minima(
        enumerate_up_to(EnumerationRequest(diag, 4))).minima_sq == (1, 4)
    d4 = d4_basis()
    assert successive_minima(
        enumerate_up_to(EnumerationRequest(d4, 2))).minima_sq == (2, 2, 2, 2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    _ok(4, f"oracle equality on {len(minima_corpus)} lattices + fixed cases "
           f"({elapsed:.1f}s)")


def test_criterion_5_minkowski(minima_corpus):
    checked = 0
    for basis, s in minima_corpus:
        result = successive_minima(s, expected_rank=basis.rank)
        if result.rank == basis.rank:
            assert minkowski_check(basis, result, rel_tol=1e-9)
            checked += 1
    assert checked == len(minima_corpus)
    _ok(5, f"both inequalities hold on all {checked} lattices")


def _component_cross_products_zero(decomp):
    for i in range(decomp.r):
        for j in range(i + 1, decomp.r):
            for u in decomp.components[i].vectors:
                for w in decomp.components[j].vectors:
                    if sum(a * b for a, b in zip(u, w)) != 0:
                        return False
    return True


def _components_indecomposable(decomp):
    for c in decomp.components:
        bsq = max(norm_sq(v) for v in c.vectors)
        s = enumerate_up_to(EnumerationRequest(c, bsq))
        if graph_decomposition_oracle(s).r != 1:
            return False
    return True


def test_criterion_6_decomposition():
    # fixed cases
    fixed = []
    for n in range(2, 6):
        basis = LatticeBasis([[1 if i == j else 0 for j in range(n)]
                              for i in range(n)])
        fixed.append((basis, F(1), n))
    fixed.append((d4_basis(), F(2), 1))
    zd4 = LatticeBasis([(1, 0, 0, 0, 0)] +
                       [(0,) + tuple(v) for v in d4_basis().vectors])
    fixed.append((zd4, F(2), 2))
    fixed.append((LatticeBasis([(1, 1), (1, -1)]), F(2), 2))
    for basis, bound, expect_r in fixed:
        s = enumerate_up_to(EnumerationRequest(basis, bound))
        d = orthogonal_decomposition(s, check_invariants=True)
        assert d.r == expect_r
        assert _component_cross_products_zero(d)
        assert _components_indecomposable(d)
        assert canonical_component_forms(d) == \
            canonical_component_forms(graph_decomposition_oracle(s))

    # random orthogonal direct sums
    rng = random.Random(99)
    count = 0
    while count < 50:
        dims = []
        total = 0
        while total < 3:
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
                enumerate_up_to(EnumerationRequest(block, bsq))).r
            offset += k
        basis = mlll(vecs)
        bsq = max(norm_sq(v) for v in basis.vectors)
        s = enumerate_up_to(EnumerationRequest(basis, bsq))
        d = orthogonal_decomposition(s, check_invariants=True)
        assert d.r == expected
        assert _component_cross_products_zero(d)
        assert _components_indecomposable(d)
        assert canonical_component_forms(d) == \
            canonical_component_forms(graph_decomposition_oracle(s))
        count += 1
    _ok(6, f"fixed cases + {count} random direct sums recovered, "
           f"both routes agree")


def test_criterion_7_eichler_uniqueness():
    rng = random.Random(123)
    instances = 0
    while instances < 20:
        total = rng.choice([2, 3, 4])
        vecs = []
        offset = 0
        while offset < total:
            k = min(rng.randint(1, 2), total - offset)
            block = random_reduced_basis(rng, k, entry=2)
            vecs += embed_block(block.vectors, offset, total)
            offset += k
        basis = mlll(vecs)
        bsq = max(norm_sq(v) for v in basis.vectors)
        s = enumerate_up_to(EnumerationRequest(basis, bsq))
        reference = canonical_component_forms(orthogonal_decomposition(s))
        for _ in range(5):
            perm = list(s.vectors)
            rng.shuffle(perm)
            shuffled = GeneratingSet(perm, s.bound_sq, complete=True)
            assert canonical_component_forms(
                orthogonal_decomposition(shuffled)) == reference
            assert canonical_component_forms(
                graph_decomposition_oracle(shuffled)) == reference
        instances += 1
    _ok(7, f"{instances} instances x 5 permutations: canonical components "
           f"identical")


def test_criterion_8_enumeration_completeness():
    rng = random.Random(321)
    for _ in range(100):
        basis = random_reduced_basis(rng, rng.randint(1, 4), entry=3)
        bsq = 2 * max(norm_sq(v) for v in basis.vectors)
        req = EnumerationRequest(basis, bsq)
        assert enumerate_up_to(req).vectors == box_oracle(req).vectors
    z2 = LatticeBasis([(1, 0), (0, 1)])
    assert len(enumerate_up_to(EnumerationRequest(z2, 2)).vectors) == 8
    assert len(enumerate_up_to(
        EnumerationRequest(d4_basis(), 2)).vectors) == 24
    _ok(8, "enumerator equals box oracle on 100 instances + fixed counts")


def test_criterion_9_incremental_advantage():
    rows = {}
    for m in (50, 100, 200):
        row = bench_row(seed=4242 + m, d=4, m=m, entry_range=10,
                        duplicates=True, params=DEFAULT_PARAMS)
        assert row["bound_holds"]
        assert row["membership_tests"] == m  # one localization per generator
        rows[m] = row
    # update counts stay bounded while m grows
    bound = max(rows[m]["theorem_bound"] for m in rows)
    assert all(rows[m]["update_count"] <= bound for m in rows)
    # direction-only wall-clock check at the largest size
    assert rows[200]["t_incremental"] < rows[200]["t_batch_mlll"]
    # the same direction in a count that timing noise cannot flip
    assert rows[200]["swaps_incremental"] < rows[200]["swaps_batch"]
    _ok(9, "membership tests linear in m, updates bounded, incremental "
           f"{rows[200]['t_batch_mlll'] / rows[200]['t_incremental']:.1f}x "
           f"faster than batch MLLL at m=200 ({rows[200]['swaps_incremental']}"
           f" vs {rows[200]['swaps_batch']} swaps)")
