"""Differential tests of the minima scan and the enumerator, which both run
on the integral MLLL engine.

The scan must agree with the greedy rank-recomputation oracle in every
field, also on lattices of rank below the dimension (where it runs to the
end of the input unless it is given the rank to stop at), and with the
frozen scan of ``reference_minima``, whose witnesses were ``Fraction``
vectors where the scan's are integer rows; the enumerator must return
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
    MinimaResult,
    enumerate_up_to,
    greedy_minima_oracle,
    norm_sq,
    successive_minima,
)
from latkit.reduction import IncrementalLattice

from conftest import scrambled
from reference_enumeration import _gram_inverse_diagonal, box_oracle
from reference_linalg import gram_matrix, rank_of
from reference_minima import reference_successive_minima


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
@given(lattices(), st.booleans())
def test_scan_equals_frozen_fraction_scan(lattice, given_rank):
    # The scan keeps its witnesses as the set's rows over its scale; the
    # frozen scan formed Fraction witnesses.  Every field must agree, and
    # the result must equal, and hash as, one built from those witnesses.
    basis, bound = lattice
    s = _enumerate(basis, bound)
    assume(s is not None and s.rows)
    rank = basis.rank if given_rank else None
    got = successive_minima(s, expected_rank=rank)
    ref = reference_successive_minima(s, expected_rank=rank)
    assert got.minima_sq == ref.minima_sq
    assert got.witnesses == ref.witnesses
    assert got.rank == ref.rank
    assert got.partial == ref.partial
    rebuilt = MinimaResult(ref.minima_sq, ref.witnesses, ref.rank, ref.partial)
    assert got == rebuilt
    assert hash(got) == hash(rebuilt)


@settings(max_examples=60, deadline=None)
@given(lattices())
def test_scan_and_oracle_keep_integer_rows(lattice):
    basis, bound = lattice
    s = _enumerate(basis, bound)
    assume(s is not None and s.rows)
    for r in (successive_minima(s), greedy_minima_oracle(s)):
        assert all(type(c) is int for row in r.rows for c in row)
        assert type(r.scale) is int and r.scale >= 1
        assert r.witnesses == tuple(tuple(F(c, r.scale) for c in row)
                                    for row in r.rows)


def test_witnesses_over_scale_2_one_of_them_integral():
    # (1/2, 0) and (0, 1), the lattice of cross.lat: the set up to squared
    # norm 1 sits at scale 2, and the second witness, (0, -1), is integral.
    s = enumerate_up_to(EnumerationRequest(
        LatticeBasis([(F(1, 2), 0), (0, 1)]), 1))
    assert s.scale == 2
    got = successive_minima(s, expected_rank=2)
    ref = reference_successive_minima(s, expected_rank=2)
    assert (got.rows, got.scale) == (((-1, 0), (0, -2)), 2)
    assert got.witnesses == ref.witnesses == ((F(-1, 2), 0), (0, -1))
    assert got.minima_sq == ref.minima_sq == (F(1, 4), 1)
    assert got == MinimaResult(ref.minima_sq, ref.witnesses, 2)
    assert got == greedy_minima_oracle(s)
    # The integral witness alone is at scale 1, as rows over 2 or over 1.
    alone = MinimaResult.from_rows((1,), [(0, -2)], 2, 1)
    assert (alone.rows, alone.scale) == (((0, -1),), 1)
    assert alone == MinimaResult((1,), [(0, -1)], 1)
    assert hash(alone) == hash(MinimaResult((1,), [(0, -1)], 1))


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


def test_scan_runs_to_the_end_below_full_dimension(monkeypatch):
    # Z^5 + (1/2, ..., 1/2) in dimension 6: the five unit vectors give
    # every minimum but generate an index-2 sublattice, and the rank never
    # reaches the dimension, so without the rank the scan goes on through
    # the 16 half vectors below zero (the other 16 are their negations).
    # Each one extends the running lattice without raising its rank, and
    # none of them may count as a witness.  Given the rank, the scan stops
    # at the fifth witness.
    h = (F(1, 2),) * 5 + (0,)
    units = [tuple(int(i == j) for j in range(6)) for i in range(4)]
    s = enumerate_up_to(EnumerationRequest(LatticeBasis(units + [h]),
                                           F(5, 4)))
    assert len(s.vectors) == 10 + 32
    inserted = []
    insert = IncrementalLattice.insert

    def counting_insert(self, row):
        inserted.append(row)
        return insert(self, row)

    monkeypatch.setattr(IncrementalLattice, "insert", counting_insert)
    r = successive_minima(s)
    assert r.minima_sq == (1,) * 5
    assert r.rank == 5
    assert r == greedy_minima_oracle(s)
    # The set sits at scale 2, the five unit witnesses at scale 1.
    assert (s.scale, r.scale) == (2, 1)
    assert r == MinimaResult(r.minima_sq, r.witnesses, r.rank)
    zero = (0,) * 6
    below = [row for row in s.rows if row < zero]
    assert len(below) == 5 + 16
    assert inserted == below
    inserted.clear()
    assert successive_minima(s, expected_rank=5) == r
    last = s.vectors.index(r.witnesses[-1])
    assert inserted == [row for row in s.rows[:last + 1] if row < zero]
    assert len(inserted) < len(below)
