"""Known answers from root lattices: on scrambled orthogonal sums of
``A_n``, ``D_n`` and ``E8`` (``root_lattices``), the enumeration, the
successive minima, the volume and the decomposition must give what theory
says, whatever basis presents the sum.  A sum with an ``A_n`` has rank below
its dimension; one with ``E8`` runs at scale 2, and the sum shrunk by 2 at
scale 2 without ``E8`` and 4 with it.  Built from its roots in any order,
the sum keeps to the paper's update-step bound."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from latkit import (
    LatticeBasis,
    canonical_component_forms,
    enumerate_up_to,
    incremental_basis,
    lattice_equal,
    orthogonal_decomposition,
    successive_minima,
    update_step_bound,
)
from latkit.enumeration import EnumerationRequest
from latkit.reduction import IncrementalLattice

from conftest import scrambled
from reference_hnf import reference_canonical_basis
from root_lattices import a_n, d_n, e8, orthogonal_sum

SUMMANDS = [a_n(1), a_n(2), a_n(3), a_n(4), d_n(4), d_n(5), e8()]


@st.composite
def root_lattice_sums(draw, shrink=1):
    """One to three summands of total rank at most 12, in drawn order,
    each one's rows in the sum's coordinates, and the sum under a
    scrambled basis; every vector divided by ``shrink``."""
    summands = draw(st.lists(st.sampled_from(SUMMANDS), min_size=1,
                             max_size=3)
                    .filter(lambda ks: sum(k.rank for k in ks) <= 12))
    parts = shrunk_sum(summands, shrink)
    basis = draw(scrambled(LatticeBasis([r for p in parts for r in p])))
    return summands, parts, basis


def shrunk_sum(summands, shrink):
    """``orthogonal_sum`` with every vector divided by ``shrink``."""
    return [[tuple(c / shrink for c in r) for r in p]
            for p in orthogonal_sum(summands)]


@settings(max_examples=100, deadline=None)
@given(root_lattice_sums())
def test_root_lattice_sums_at_bound_2(case):
    check_known_answers(*case, shrink=1)


@settings(max_examples=30, deadline=None)
@given(root_lattice_sums(shrink=2))
def test_shrunk_root_lattice_sums(case):
    # Every norm divided by 4: minima and bound 1/2, the scale doubled.
    check_known_answers(*case, shrink=2)


def test_shrunk_sum_with_e8_runs_at_scale_4():
    summands = [e8(), a_n(1)]
    parts = shrunk_sum(summands, 2)
    check_known_answers(summands, parts,
                        LatticeBasis([r for p in parts for r in p]), shrink=2)


def check_known_answers(summands, parts, basis, shrink):
    total = sum(k.rank for k in summands)
    minimum = Fraction(2, shrink * shrink)
    s = enumerate_up_to(EnumerationRequest(basis, minimum))
    assert len(s.rows) == sum(k.kissing for k in summands)
    assert s.scale == \
        shrink * (2 if any(k.name == "E8" for k in summands) else 1)
    result = successive_minima(s, expected_rank=basis.rank)
    assert basis.rank == result.rank == total
    assert not result.partial
    assert result.minima_sq == (minimum,) * total
    assert basis.volume_sq == math.prod(k.volume_sq for k in summands) \
        / shrink ** (2 * total)
    # Each summand is indecomposable, so the components are the summands,
    # listed in the scan's order: compare them as a set.
    want = sorted(reference_canonical_basis(p) for p in parts)
    engine = IncrementalLattice.from_generators(basis.vectors)
    for lattice in (None, basis, engine):
        d = orthogonal_decomposition(s, lattice=lattice)
        assert d.r == len(summands)
        assert sorted(canonical_component_forms(d)) == want
        assert math.prod(c.volume_sq for c in d.components) == \
            basis.volume_sq


@settings(max_examples=30, deadline=None)
@given(root_lattice_sums(), st.randoms(use_true_random=False))
def test_basis_from_the_roots_in_any_order(case, rng):
    # The paper's update-step bound holds for every insertion order: here
    # B = lambda_1, so at most d + log2(d!) of the roots are updates.
    _, _, basis = case
    roots = list(enumerate_up_to(EnumerationRequest(basis, 2)).vectors)
    rng.shuffle(roots)
    built, trace = incremental_basis(roots)
    assert lattice_equal(built, basis)
    assert trace.localization_count == len(roots)
    value, holds = update_step_bound(roots, built, trace)
    assert holds
    assert value == built.rank + math.log2(math.factorial(built.rank))


def test_e8_plus_d4_at_bound_4():
    # Past the first shell: 2400 vectors of E8 and 48 of D4 up to 4, and
    # 240 x 24 sums of a root of each.  The scan stops at L after the
    # roots; the rows past them change nothing.
    parts = orthogonal_sum([e8(), d_n(4)])
    basis = LatticeBasis([r for p in parts for r in p])
    s = enumerate_up_to(EnumerationRequest(basis, 4))
    assert len(s.rows) == 8208
    d = orthogonal_decomposition(s, lattice=basis)
    assert d == orthogonal_decomposition(s)
    assert canonical_component_forms(d) == \
        tuple(reference_canonical_basis(p) for p in parts)
