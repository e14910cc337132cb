"""Differential tests of the minima scan and the enumerator, which both run
on the integral MLLL engine.

The scan must agree with the greedy rank-recomputation oracle in every
field, also on lattices of rank below the dimension (where it runs to the
end of the input instead of stopping early), and the enumerator must return
the same vectors, and hit its cap on the same inputs, whatever basis of the
lattice it is given, in agreement with the box-scan oracle.
"""

import math
from fractions import Fraction as F

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latkit import (
    EnumerationCapExceeded,
    EnumerationRequest,
    LatticeBasis,
    enumerate_up_to,
    gram_matrix,
    greedy_minima_oracle,
    norm_sq,
    rank_of,
    successive_minima,
)

from conftest import scrambled
from reference_enumeration import _gram_inverse_diagonal, box_oracle


@st.composite
def lattices(draw):
    """A basis of rank <= 4 in dimension <= 5, with integer or rational
    entries, and a squared-norm bound between the shortest and twice the
    longest basis vector."""
    d = draw(st.integers(1, 5))
    n = draw(st.integers(1, min(d, 4)))
    rows = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d),
                         min_size=n, max_size=n))
    if draw(st.booleans()):
        den = st.sampled_from([1, 2, 3, 6])
        rows = [tuple(F(c, draw(den)) for c in r) for r in rows]
    vs = [tuple(map(F, r)) for r in rows]
    assume(rank_of(vs) == n)
    norms = sorted(norm_sq(v) for v in vs)
    bound = draw(st.sampled_from([norms[0], norms[-1], 2 * norms[-1]]))
    return LatticeBasis(vs), bound


def _enumerate(basis, bound, cap=1000):
    try:
        return enumerate_up_to(EnumerationRequest(basis, bound, cap))
    except EnumerationCapExceeded:
        return None


@settings(max_examples=120, deadline=None)
@given(lattices())
def test_scan_equals_greedy_oracle(lattice):
    basis, bound = lattice
    s = _enumerate(basis, bound)
    assume(s is not None and s.vectors)
    got, want = successive_minima(s), greedy_minima_oracle(s)
    assert got.minima_sq == want.minima_sq
    assert got.witnesses == want.witnesses
    assert got.rank == want.rank


@settings(max_examples=120, deadline=None)
@given(lattices(), st.data())
def test_enumeration_is_basis_independent(lattice, data):
    basis, bound = lattice
    other = data.draw(scrambled(basis))
    s = _enumerate(basis, bound)
    assume(s is not None)
    assert _enumerate(other, bound).vectors == s.vectors
    # the box of a skewed basis can be far larger than the ball
    inv_diag = _gram_inverse_diagonal(gram_matrix(basis.vectors))
    box = math.prod(2 * math.isqrt(math.floor(bound * g)) + 1
                    for g in inv_diag)
    if box <= 1500:
        req = EnumerationRequest(basis, bound)
        assert box_oracle(req).vectors == s.vectors


@settings(max_examples=100, deadline=None)
@given(lattices(), st.data(), st.integers(1, 40))
def test_cap_is_basis_independent(lattice, data, cap):
    basis, bound = lattice
    other = data.draw(scrambled(basis))
    outcomes = []
    for b in (basis, other):
        try:
            enumerate_up_to(EnumerationRequest(b, bound, cap))
            outcomes.append(False)
        except EnumerationCapExceeded:
            outcomes.append(True)
    assert outcomes[0] == outcomes[1]


def test_scan_runs_to_the_end_below_full_dimension():
    # Z^5 + (1/2, ..., 1/2) in dimension 6: the five unit vectors give
    # every minimum but generate an index-2 sublattice, and the rank never
    # reaches the dimension, so the scan goes on through the 32 half
    # vectors.  Each one extends the running lattice without raising its
    # rank, and none of them may count as a witness.
    h = (F(1, 2),) * 5 + (0,)
    units = [tuple(int(i == j) for j in range(6)) for i in range(4)]
    s = enumerate_up_to(EnumerationRequest(LatticeBasis(units + [h]),
                                           F(5, 4)))
    assert len(s.vectors) == 10 + 32
    r = successive_minima(s)
    assert r.minima_sq == (1,) * 5
    assert r.rank == 5
    assert r == greedy_minima_oracle(s)
