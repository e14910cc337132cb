"""Differential tests of the integral MLLL engine.

Where no row meets the span of the rows before it, the engine must
reproduce the rational MLLL it replaced exactly: the same basis vectors in
the same order.  A row in the span rebuilds the engine from an HNF, or at
full rank, when the new determinant comes out 1, takes the state of
``Z^dim`` directly; the rational MLLL runs Pohst's zero-vector cascade
there instead, so there the basis must generate the frozen HNF oracle's
lattice and be size-reduced and Lovász-reduced by the frozen rational
Gram-Schmidt.  Trace records and membership answers equal the references'
always.  ``reference_mlll`` holds the frozen rational code,
``reference_engine`` the integral swap loop as it was before it became one
method and every rebuild from the HNF, which must leave the same state
after every step.  ``insert`` answers from the engine's state alone: once
the rows span ``Z^dim`` it answers every row a member with no arithmetic
(families with the unit vectors spliced in reach that state part way
through), and otherwise it runs the nearest-plane test, also on a row it
was given before; the pool families repeat, negate and double rows.  Its
callers skip rows they know to be members: ``incremental_basis`` a
repeated generator, and the minima and decomposition scans each row above
zero, whose negation came before it in the complete set.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latkit import (
    EnumerationRequest,
    LatticeBasis,
    ReductionParams,
    canonical_component_forms,
    enumerate_up_to,
    first_minimum_sq,
    generating_subset,
    graph_decomposition_oracle,
    greedy_minima_oracle,
    incremental_basis,
    is_member,
    lattice_equal,
    mlll,
    norm_sq,
    orthogonal_decomposition,
    successive_minima,
    update_step_bound,
    update_step_bound_holds,
    update_step_bound_value,
)
from latkit import reduction
from latkit.cli import bench_row
from latkit.reduction import IncrementalLattice

from reference_engine import ReferenceLattice
from reference_hnf import reference_canonical_basis, reference_hnf
from reference_linalg import (
    reference_det_bareiss_int,
    reference_is_member,
    solve_in_span,
)
from reference_mlll import reference_incremental_basis, reference_mlll
from test_reduction import check_lll_reduced

DELTAS = [F(26, 100), F(3, 4), F(99, 100), F(1)]
params_st = st.sampled_from(DELTAS).map(ReductionParams)


@st.composite
def generator_families(draw):
    """Integer or rational generators with zero rows, repeats (some as
    lists or with Fraction entries) and rank-deficient families."""
    d = draw(st.integers(1, 5))
    entry = draw(st.sampled_from([1, 3, 20]))
    row = st.tuples(*[st.integers(-entry, entry)] * d)
    kind = draw(st.sampled_from(["free", "pool", "deficient"]))
    m = draw(st.integers(0, 12))
    if kind == "free":
        gens = draw(st.lists(row, min_size=m, max_size=m))
    elif kind == "pool":
        # Repeats, negations and doubles of a few rows: ``incremental_basis``
        # records a repeat without an insert, and a row can come after its
        # double, under which it need not be a member.
        pool = draw(st.lists(row, min_size=1, max_size=3))
        pick = st.tuples(st.sampled_from(pool),
                         st.sampled_from([1, -1, 2, -2]))
        gens = [tuple(c * x for x in v)
                for v, c in draw(st.lists(pick, min_size=m, max_size=m))]
    else:
        base = draw(st.lists(row, min_size=1, max_size=max(1, d - 1)))
        coeffs = st.tuples(*[st.integers(-2, 2)] * len(base))
        gens = [tuple(sum(c * b[i] for c, b in zip(cs, base))
                      for i in range(d))
                for cs in draw(st.lists(coeffs, min_size=m, max_size=m))]
    # Several zero rows, which a repeat of one of them may join below.
    for _ in range(draw(st.integers(0, 3))):
        gens.insert(draw(st.integers(0, len(gens))), tuple([0] * d))
    if draw(st.integers(0, 3)) == 0:
        den = st.sampled_from([1, 2, 3, 6])
        gens = [tuple(F(c, draw(den)) for c in g) for g in gens]
    # A repeated vector may come back as a list, or with Fraction entries
    # in place of ints: ``incremental_basis`` must give it the slot of its
    # first appearance, whose key is another object.
    seen = set()
    for i, g in enumerate(gens):
        if g in seen:
            form = draw(st.sampled_from(["tuple", "list", "fractions",
                                         "fraction list"]))
            if "fraction" in form:
                g = tuple(map(F, g))
            gens[i] = list(g) if "list" in form else g
        seen.add(g)
    return d, gens


def _assert_reduced_basis_of(basis, gens, delta):
    """``basis`` generates the lattice of ``gens`` by the frozen HNF and is
    LLL-reduced at ``delta`` by the frozen rational Gram-Schmidt."""
    assert reference_canonical_basis(basis.vectors) == \
        reference_canonical_basis(gens)
    check_lll_reduced(basis, delta)


@settings(max_examples=300, deadline=None)
@given(generator_families(), params_st)
def test_mlll_equals_reference(family, params):
    _, gens = family
    got, want = mlll(gens, params), reference_mlll(gens, params)
    if want.rank == sum(1 for g in gens if any(g)):
        assert got.vectors == want.vectors
    else:
        _assert_reduced_basis_of(got, gens, params.delta)
    assert got.volume_sq == want.volume_sq
    assert got.dim == want.dim


@settings(max_examples=200, deadline=None)
@given(generator_families(), params_st)
def test_incremental_basis_equals_reference_loop(family, params):
    _, gens = family
    basis, trace = incremental_basis(gens, params)
    want_basis, want_records = reference_incremental_basis(gens, params)
    if want_basis.rank == sum(r.was_update for r in want_records):
        assert basis.vectors == want_basis.vectors
    else:
        _assert_reduced_basis_of(basis, gens, params.delta)
    assert basis.volume_sq == want_basis.volume_sq
    assert basis.dim == want_basis.dim
    assert trace.insertions == want_records
    assert trace.update_count == sum(r.was_update for r in trace.insertions)
    assert trace.localization_count == len(trace.insertions)
    assert generating_subset(gens, trace) == \
        tuple(tuple(gens[r.index]) for r in want_records if r.was_update)


@settings(max_examples=200, deadline=None)
@given(generator_families())
def test_update_step_bound_takes_the_longest_generator(family):
    # update_step_bound reads B^2 off the integer rows of the distinct
    # generators; it must equal the largest Fraction norm of any generator,
    # repeats and other spellings included.
    _, gens = family
    basis, trace = incremental_basis(gens)
    assume(basis.rank > 0)
    d, bound_sq = basis.rank, max(norm_sq(tuple(map(F, g))) for g in gens)
    lambda1_sq = first_minimum_sq(basis)
    assert update_step_bound(gens, basis, trace) == (
        update_step_bound_value(d, bound_sq, lambda1_sq),
        update_step_bound_holds(trace, d, bound_sq, lambda1_sq))


def test_update_in_the_span_rebuilds_from_the_hnf():
    # (1, 1) lies in the span of (2, 0), (0, 2) but not in their lattice.
    lattice = IncrementalLattice(2)
    assert [lattice.insert(r) for r in [(2, 0), (0, 2), (1, 1)]] == \
        [True, True, True]
    basis = lattice.basis()
    assert basis.vectors == ((1, 1), (1, -1))
    assert basis.volume_sq == 4
    _assert_reduced_basis_of(basis, [(2, 0), (0, 2), (1, 1)], F(3, 4))


def test_rebuilds_before_and_after_a_rank_rise_match_reference_hnf():
    # (1, 1, 0) and (1, 0, 0) rebuild at rank 2, (0, 0, 3) raises the rank
    # and (0, 1, 1), in the span but not in the lattice, rebuilds at rank 3.
    lattice = IncrementalLattice(3)
    rows = [(2, 0, 0), (0, 2, 0), (1, 1, 0), (1, 0, 0), (0, 0, 3), (0, 1, 1)]
    ranks = []
    for i, row in enumerate(rows):
        assert lattice.insert(row)
        ranks.append(lattice.rank)
        assert reference_hnf(lattice.rows) == reference_hnf(rows[:i + 1])
    assert ranks == [1, 2, 2, 2, 3, 3]
    assert lattice.volume_sq == 1


@settings(max_examples=200, deadline=None)
@given(generator_families(), params_st, st.data())
def test_each_rebuild_equals_reference_hnf(family, params, data):
    # A nonzero row that leaves the rank as it was lay in the span and
    # rebuilt the engine, through insert or extend: the rebuilt rows must
    # generate the frozen HNF's lattice of the rows before and that row.
    _, gens = family
    lattice, rows = IncrementalLattice.over(gens, params)
    for row in rows:
        if not any(row):
            continue
        before, rank = list(lattice.rows), lattice.rank
        if data.draw(st.booleans()):
            lattice.insert(row)
        else:
            lattice.extend([row])
        if lattice.rank == rank:
            assert reference_hnf(lattice.rows) == \
                reference_hnf([*before, row])
            check_lll_reduced(lattice.basis(), params.delta)


@settings(max_examples=200, deadline=None)
@given(generator_families(), st.data())
def test_known_rows_agree_with_is_member(family, data):
    # After the family is inserted, probe each inserted row, its negation,
    # the row with its first entry negated, and its half when that is an
    # integer row: the half of an inserted row need not be a member.
    _, gens = family
    lattice, rows = IncrementalLattice.over(gens)
    probes = []
    for row in rows:
        lattice.insert(row)
        probes += [row, [-c for c in row], [-row[0]] + row[1:]]
        if all(c % 2 == 0 for c in row):
            probes.append([c // 2 for c in row])
    for probe in data.draw(st.permutations(probes)):
        v = tuple(F(c, lattice.scale) for c in probe)
        expected = is_member(lattice.basis(), v)
        assert lattice.insert(probe) is not expected


def count_gram_schmidt_rows(monkeypatch):
    """The rows ``_gram_schmidt_row`` is called on from now on."""
    calls = []
    gram_schmidt_row = IncrementalLattice._gram_schmidt_row
    monkeypatch.setattr(
        IncrementalLattice, "_gram_schmidt_row",
        lambda self, v: calls.append(tuple(v)) or gram_schmidt_row(self, v))
    return calls


def test_incremental_basis_localizes_each_distinct_generator_once(
        monkeypatch):
    # A repeated generator is recorded as a member with no Gram-Schmidt
    # row; a negated one is a new row and is localized.  The trace is the
    # one an engine given every row reads, and the frozen loop's.
    rows = [(2, 1), (1, 3), (3, 4), (2, 1), (-2, -1), (-3, -4), (3, 4),
            (4, 2), (0, 0), (-1, -3), [1, 3]]
    bare, steps = IncrementalLattice(2), []
    for i, row in enumerate(rows):
        if any(row):
            was_update = bare.insert(row)
            steps.append((i, was_update, bare.rank, bare.d[bare.rank]))
    calls = count_gram_schmidt_rows(monkeypatch)
    basis, trace = incremental_basis(rows)
    assert calls == [(2, 1), (1, 3), (3, 4), (-2, -1), (-3, -4), (4, 2),
                     (-1, -3)]
    assert trace.steps == tuple(steps)
    assert [u for _, u, _, _ in trace.steps] == [True, True] + [False] * 8
    assert trace.insertions == reference_incremental_basis(rows)[1]
    assert basis == bare.basis()


@pytest.mark.parametrize("basis, bound_sq", [
    (LatticeBasis([(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1),
                   (0, 0, 1, 1)]), 2),
    (LatticeBasis([(F(1, 2), 0, 0), (0, 1, 1), (0, 1, -1)]), 3),
    (LatticeBasis([(2, 1, 0, 0), (1, 2, 0, 0), (0, 0, 1, 1)]), 6),
])
def test_scans_insert_only_rows_below_zero(monkeypatch, basis, bound_sq):
    # The decomposition scan inserts every row below zero of the set, in
    # order, and the minima scan a prefix of them; both still agree with
    # their oracles, which read every row.
    s = enumerate_up_to(EnumerationRequest(basis, bound_sq))
    below = [row for row in s.rows if row < (0,) * basis.dim]
    assert 2 * len(below) == len(s.rows)
    inserted = []
    insert = IncrementalLattice.insert
    monkeypatch.setattr(
        IncrementalLattice, "insert",
        lambda self, row: inserted.append(row) or insert(self, row))
    decomp = orthogonal_decomposition(s)
    assert inserted == below
    inserted.clear()
    minima = successive_minima(s)
    assert inserted == below[:len(inserted)]
    inserted.clear()
    assert canonical_component_forms(decomp) == \
        canonical_component_forms(graph_decomposition_oracle(s))
    assert minima == greedy_minima_oracle(s)
    assert inserted == []


def test_rows_of_z3_skip_the_localization(monkeypatch):
    # A unimodular basis of Z^3 that is not the identity: once it is in,
    # new, repeated and negated rows are members with no Gram-Schmidt row.
    calls = count_gram_schmidt_rows(monkeypatch)
    lattice = IncrementalLattice(3)
    basis = [(1, 1, 0), (0, 1, 1), (1, 1, 1)]
    assert [lattice.insert(r) for r in basis] == [True] * 3
    assert (lattice.rank, lattice.d[-1], len(calls)) == (3, 1, 3)
    state = _state(lattice)
    rows = [(5, -7, 2), (0, 1, 1), (-1, -1, -1), (0, 0, 0), (1, 0, 0)]
    assert [lattice.insert(r) for r in rows] == [False] * 5
    assert len(calls) == 3
    assert _state(lattice) == state


def test_half_integer_rows_spanning_z2_skip_the_localization(monkeypatch):
    # Over scale 2 the rows (1, 0) and (1, 1) span Z^2: the lattice is
    # Z^2 / 2, and every row over scale 2 lies in it.
    calls = count_gram_schmidt_rows(monkeypatch)
    gens = [(F(1, 2), 0), (F(1, 2), F(1, 2)), (F(3, 2), F(-1, 2)), (1, 1)]
    lattice, rows = IncrementalLattice.over(gens)
    assert lattice.scale == 2
    assert [lattice.insert(r) for r in rows] == [True, True, False, False]
    assert calls == [(1, 0), (1, 1)]
    assert lattice.insert((7, -3)) is False
    assert len(calls) == 2
    assert lattice.volume_sq == F(1, 16)


def test_full_rank_of_index_two_still_localizes(monkeypatch):
    # (2, 0), (0, 1) has full rank but d[2] = 4: (4, 1) is localized and
    # is a member, (1, 0) is localized and is an update whose determinant
    # comes out 1, so the engine takes the state of Z^2 with no further
    # Gram-Schmidt row; then every row is a member at once.
    calls = count_gram_schmidt_rows(monkeypatch)
    lattice = IncrementalLattice(2)
    assert [lattice.insert(r) for r in [(2, 0), (0, 1)]] == [True, True]
    assert (lattice.rank, lattice.d[-1]) == (2, 4)
    assert lattice.insert((4, 1)) is False
    assert calls[2:] == [(4, 1)]
    assert lattice.insert((1, 0)) is True
    assert calls[3:] == [(1, 0)]
    assert (lattice.rank, lattice.d[-1]) == (2, 1)
    n = len(calls)
    assert lattice.insert((3, 5)) is False
    assert len(calls) == n


def count_hnf_calls(monkeypatch):
    """The row lists the engine's rebuilds take the HNF of from now on."""
    calls = []
    column_hnf = reduction._column_hnf
    monkeypatch.setattr(
        reduction, "_column_hnf",
        lambda rows: calls.append(list(rows)) or column_hnf(rows))
    return calls


@pytest.mark.parametrize("scale", [1, 2])
@pytest.mark.parametrize("how", ["insert", "extend"])
@pytest.mark.parametrize("rows, hnf_calls, gram_schmidt_rows, d_last", [
    # Z^2: the determinant comes out 1, so no HNF and no Gram-Schmidt row
    # after the row's own.
    ([(2, 0), (0, 1), (1, 0)], 0, 1, 1),
    # Index 2 in Z^2: the new determinant is 2, so the HNF rebuild runs and
    # extend takes the Gram-Schmidt rows of its two rows.
    ([(4, 0), (0, 1), (2, 0)], 1, 3, 4),
    # Rank 2 in dimension 3: the rule waits for full rank.
    ([(2, 0, 0), (0, 1, 0), (1, 0, 0)], 1, 3, 1),
])
def test_full_rank_rebuild_to_z_dim_takes_no_hnf(monkeypatch, rows,
                                                 hnf_calls,
                                                 gram_schmidt_rows, d_last,
                                                 how, scale):
    gens = [tuple(F(c, scale) for c in r) for r in rows]
    lattice, int_rows = IncrementalLattice.over(gens)
    assert (lattice.scale, int_rows) == (scale, [list(r) for r in rows])
    lattice.extend(int_rows[:-1])
    swaps = lattice.swaps
    hnf = count_hnf_calls(monkeypatch)
    gram_schmidt = count_gram_schmidt_rows(monkeypatch)
    if how == "insert":
        assert lattice.insert(int_rows[-1]) is True
    else:
        lattice.extend(int_rows[-1:])
    assert len(hnf) == hnf_calls
    assert gram_schmidt[0] == tuple(rows[-1])
    assert len(gram_schmidt) == gram_schmidt_rows
    assert lattice.d[-1] == d_last
    assert reference_hnf(lattice.rows) == reference_hnf(rows)
    if hnf_calls == 0:
        dim = lattice.dim
        assert lattice.rows == [tuple(int(i == j) for i in range(dim))
                                for j in range(dim)]
        assert lattice.lam == [[0] * j for j in range(dim)]
        assert lattice.d == [1] * (dim + 1)
        assert lattice.swaps == swaps


def test_member_row_under_extend_keeps_its_rebuild(monkeypatch):
    # extend takes (4, 1), a member of the lattice of (2, 0), (0, 1): the
    # determinant stays 2, so the rebuild runs its HNF as before.
    lattice = IncrementalLattice(2)
    lattice.extend([(2, 0), (0, 1)])
    before = list(lattice.rows)
    hnf = count_hnf_calls(monkeypatch)
    lattice.extend([(4, 1)])
    assert hnf == [[*before, (4, 1)]]
    assert lattice.d[-1] == 4


@st.composite
def full_rank_families(draw):
    """``d`` independent rows, then rows beyond them, all over one drawn
    denominator: every row after the first ``d`` meets an engine of full
    rank."""
    d = draw(st.integers(1, 5))
    entry = draw(st.sampled_from([1, 3, 20]))
    row = st.tuples(*[st.integers(-entry, entry)] * d)
    first = draw(st.lists(row, min_size=d, max_size=d))
    assume(reference_det_bareiss_int([list(r) for r in first]))
    extra = draw(st.lists(row, min_size=1, max_size=8))
    den = draw(st.sampled_from([1, 2, 3, 6]))
    return d, [tuple(F(c, den) for c in g) for g in first + extra]


@settings(max_examples=200, deadline=None)
@given(full_rank_families(), params_st, st.data())
def test_full_rank_determinant_equals_reference_hnf(family, params, data):
    # For each row that meets a full-rank engine: the coordinates x of the
    # row in the engine's rows, by the frozen rational solve, and D = |det|
    # of the rows, by the frozen Bareiss, give t = D x; gcd(D, t) must be
    # the product of the pivots of the frozen HNF of the rows and the row,
    # the engine's determinant after that row.  Each step of the top-down
    # recurrence over the row's lambda-row divides exactly and gives t.
    d, gens = family
    lattice, rows = IncrementalLattice.over(gens, params)
    lattice.extend(rows[:d])
    for row in rows[d:]:
        if not any(row):
            continue
        assert lattice.rank == d
        ints = lattice.rows
        det = abs(reference_det_bareiss_int([list(r) for r in ints]))
        x = solve_in_span(LatticeBasis(ints), row)
        t = [det * c for c in x]
        assert all(c.denominator == 1 for c in t)
        g = math.gcd(det, *map(int, t))
        pivots = [[c for c in r if c][-1]
                  for r in reference_hnf([*ints, row])]
        assert g == math.prod(pivots)
        lam_row, dn = lattice._gram_schmidt_row(row)
        assert dn == 0
        got = [0] * d
        for l in range(d - 1, -1, -1):
            u = det * lam_row[l] - sum(got[i] * lattice.lam[i][l]
                                       for i in range(l + 1, d))
            got[l], rem = divmod(u, lattice.d[l + 1])
            assert rem == 0
        assert got == t
        if data.draw(st.booleans()):
            rebuilt = lattice.insert(row)
        else:
            lattice.extend([row])
            rebuilt = True
        assert lattice.d[-1] == g * g
        if g == 1 and rebuilt:
            assert lattice.rows == [tuple(int(i == j) for i in range(d))
                                    for j in range(d)]


@st.composite
def families_reaching_z_dim(draw):
    """A generator family with the unit vectors over its denominator
    spliced in at random places: it generates ``Z^d / scale``."""
    d, gens = draw(generator_families())
    scale = IncrementalLattice.over(gens)[0].scale if gens else 1
    gens = list(gens)
    for c in range(d):
        unit = tuple(F(int(i == c), scale) for i in range(d))
        gens.insert(draw(st.integers(0, len(gens))), unit)
    return d, gens


@settings(max_examples=200, deadline=None)
@given(families_reaching_z_dim(), params_st)
def test_verdicts_past_z_dim_equal_reference_is_member(family, params):
    # Every verdict equals the frozen HNF reference's on the basis before
    # the insertion, and the frozen swap loop leaves the same state.
    d, gens = family
    lattice, rows = IncrementalLattice.over(gens, params)
    frozen = ReferenceLattice(lattice.dim, params, lattice.scale)
    for row, v in zip(rows, gens):
        if not any(row):
            continue
        expected = reference_is_member(lattice.basis(), v)
        assert lattice.insert(row) is not expected
        frozen.insert(row)
        assert _state(lattice) == _state(frozen)
    assert (lattice.rank, lattice.d[-1]) == (d, 1)


@settings(max_examples=200, deadline=None)
@given(generator_families(), st.data())
def test_membership_equals_is_member(family, data):
    d, gens = family
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(gens),
                                max_size=len(gens)))
    v = [sum((c * F(g[i]) for c, g in zip(coeffs, gens)), F(0))
         for i in range(d)]
    shift = data.draw(st.sampled_from([0, F(1, 2), F(1, 3), 1]))
    v[data.draw(st.integers(0, d - 1))] += shift
    v = tuple(v)
    # The engine's scale is fixed when it is built, so build it over a
    # denominator that the shifted vector shares.
    lattice, rows = IncrementalLattice.over(gens + [v])
    for row in rows[:-1]:
        lattice.insert(row)
    expected = is_member(lattice.basis(), v)
    was_update = lattice.insert(rows[-1])
    assert was_update is not expected


@settings(max_examples=100, deadline=None)
@given(generator_families(), params_st, st.randoms(use_true_random=False))
def test_permuted_generators_match_hnf_oracle(family, params, rng):
    _, gens = family
    perm = gens[:]
    rng.shuffle(perm)
    basis, _ = incremental_basis(perm, params)
    assert lattice_equal(basis, gens)
    assert lattice_equal(mlll(perm, params), gens)


def _state(lattice):
    return lattice.rows, lattice.d, lattice.lam, lattice.swaps


@settings(max_examples=300, deadline=None)
@given(generator_families(), params_st, st.data())
def test_swap_loop_equals_frozen_loop_state_for_state(family, params, data):
    # Engine and frozen loop take the same rows, some through insert and
    # some through extend, and must hold the same state after every step.
    _, gens = family
    lattice, rows = IncrementalLattice.over(gens, params)
    frozen = ReferenceLattice(lattice.dim, params, lattice.scale)
    i = 0
    while i < len(rows):
        if data.draw(st.booleans()):
            assert lattice.insert(rows[i]) == frozen.insert(rows[i])
            i += 1
        else:
            j = data.draw(st.integers(i + 1, len(rows)))
            lattice.extend(rows[i:j])
            frozen.extend(rows[i:j])
            i = j
        assert _state(lattice) == _state(frozen)


@pytest.mark.parametrize("seed, d, m, duplicates, delta, counts", [
    # No rebuild at determinant 9 before the update to Z^4: 8 -> 3 swaps.
    (0, 4, 50, False, F(3, 4), (6, 3, 8)),
    (1, 6, 30, False, F(3, 4), (7, 7, 7)),
    (2, 5, 60, True, F(3, 4), (6, 8, 33)),
    # No rebuild at determinant 3 before the update to Z^4: 13 -> 10 swaps.
    (3, 4, 40, False, F(99, 100), (6, 10, 13)),
])
def test_bench_row_update_and_swap_counts(seed, d, m, duplicates, delta,
                                          counts):
    row = bench_row(seed, d, m, 10, duplicates, ReductionParams(delta))
    assert (row["update_count"], row["swaps_incremental"],
            row["swaps_batch"]) == counts
