"""Known answers from root lattices: on scrambled orthogonal sums of
``A_n``, ``D_n`` and ``E8`` (``root_lattices``), the enumeration, the
successive minima, the volume and the decomposition must give what theory
says, whatever basis presents the sum.  A sum with an ``A_n`` has rank below
its dimension; one with ``E8`` runs at scale 2."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from latkit import (
    LatticeBasis,
    canonical_component_forms,
    enumerate_up_to,
    orthogonal_decomposition,
    successive_minima,
)
from latkit.enumeration import EnumerationRequest
from latkit.reduction import IncrementalLattice

from conftest import scrambled
from reference_hnf import reference_canonical_basis
from root_lattices import a_n, d_n, e8, orthogonal_sum

SUMMANDS = [a_n(1), a_n(2), a_n(3), a_n(4), d_n(4), d_n(5), e8()]


@st.composite
def root_lattice_sums(draw):
    """One to three summands of total rank at most 12, in drawn order,
    each one's rows in the sum's coordinates, and the sum under a
    scrambled basis."""
    summands = draw(st.lists(st.sampled_from(SUMMANDS), min_size=1,
                             max_size=3)
                    .filter(lambda ks: sum(k.rank for k in ks) <= 12))
    parts = orthogonal_sum(summands)
    basis = draw(scrambled(LatticeBasis([r for p in parts for r in p])))
    return summands, parts, basis


@settings(max_examples=100, deadline=None)
@given(root_lattice_sums())
def test_root_lattice_sums_at_bound_2(case):
    summands, parts, basis = case
    total = sum(k.rank for k in summands)
    s = enumerate_up_to(EnumerationRequest(basis, 2))
    assert len(s.rows) == sum(k.kissing for k in summands)
    assert s.scale == (2 if any(k.name == "E8" for k in summands) else 1)
    result = successive_minima(s, expected_rank=basis.rank)
    assert basis.rank == result.rank == total
    assert not result.partial
    assert result.minima_sq == (2,) * total
    assert basis.volume_sq == math.prod(k.volume_sq for k in summands)
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
