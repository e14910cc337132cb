"""Differential tests against references written outside latkit.

Every other reference under ``tests/`` is an earlier version of latkit's
own code, so a convention they all share (the HNF's shape, its signs, its
column order, what counts as an edge of the graph oracle) would pass them
all.  Here the Hermite normal form and an LLL reduction come from
``sympy`` and the connected components from ``networkx``.  Neither is a
dependency of the library, and no oracle is routed through them.
"""

import math
from fractions import Fraction as F

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
import networkx
from sympy import QQ, ZZ, Matrix
from sympy.matrices.normalforms import hermite_normal_form
from sympy.polys.matrices import DomainMatrix

from latkit import canonical_basis, graph_decomposition_oracle, lattice_equal
from latkit.core import _column_hnf
from latkit.reduction import IncrementalLattice

from conftest import scrambled_block_lattices
from reference_mlll import gram_schmidt
from test_core import (
    gram_rows,
    hnf_step_rows,
    presented_lattice_pairs,
    rational_rows,
)
from test_integer_oracles import JOINS_TWO, SCALES, _block_set


def sympy_hnf(rows, d):
    """sympy's HNF of the lattice of integer rows of length ``d``: it takes
    the lattice of a matrix's columns, so the rows go in as columns."""
    flat = [c for r in rows for c in r]
    return hermite_normal_form(Matrix(len(rows), d, flat).T)


@settings(max_examples=200, deadline=None)
@given(hnf_step_rows())
def test_column_hnf_spans_the_lattice_of_sympy_hnf(rows):
    d = len(rows[0]) if rows else 1
    want = sympy_hnf(rows, d)
    assert sympy_hnf(_column_hnf(rows), d) == want
    columns = [tuple(int(c) for c in want.col(j)) for j in range(want.cols)]
    assert canonical_basis(rows) == canonical_basis(columns) == \
        tuple(map(tuple, _column_hnf(rows)))
    if rows:
        assert lattice_equal(rows, columns)


@settings(max_examples=200, deadline=None)
@given(presented_lattice_pairs())
def test_lattice_equal_agrees_with_sympy_hnf(pairs):
    # Both families over their common denominator, as integer rows.
    (a, va), (b, vb) = pairs
    vectors = [*va, *vb]
    assume(vectors)
    d = len(vectors[0])
    den = math.lcm(*(c.denominator for v in vectors for c in v))
    ra, rb = ([tuple(int(c * den) for c in v) for v in vs] for vs in (va, vb))
    want = sympy_hnf(ra, d) == sympy_hnf(rb, d)
    assert lattice_equal(a, b) == want
    assert (canonical_basis(va) == canonical_basis(vb)) == want


@settings(max_examples=150, deadline=None)
@given(st.one_of(hnf_step_rows(), gram_rows()))
@example([[4], [6]])
@example([[2, 0], [0, 2], [1, 1], [0, 1]])
def test_engine_rows_span_the_lattice_of_sympy_hnf(rows):
    """The rows go one by one into an engine by ``insert`` and into another
    by ``extend``; after each call, rebuilds from the HNF included (a row
    in the span that ``insert`` finds outside the lattice, every nonzero
    row in the span for ``extend``), the engine's rows generate the lattice
    of every row given so far."""
    d = len(rows[0]) if rows else 1
    inserted, extended = IncrementalLattice(d), IncrementalLattice(d)
    for i, row in enumerate(rows):
        inserted.insert(row)
        extended.extend([row])
        want = sympy_hnf(rows[:i + 1], d)
        assert sympy_hnf(inserted.rows, d) == want
        assert sympy_hnf(extended.rows, d) == want


@st.composite
def scaled_block_bases(draw):
    """The basis of a scrambled block lattice over a rational scale."""
    (basis, _), c = draw(scrambled_block_lattices()), draw(SCALES)
    return [[c * x for x in v] for v in basis.vectors]


@settings(max_examples=150, deadline=None)
@given(st.one_of(rational_rows(lambda d: d), scaled_block_bases()))
def test_engine_basis_is_lll_reduced_and_spans_sympy_lll(rows):
    """On independent rows the engine's basis and sympy's LLL reduction at
    delta 3/4 generate one lattice; LLL bases are not unique, so the
    engine's own is checked for size reduction and the Lovasz condition
    with the frozen ``Fraction`` Gram-Schmidt."""
    assume(rows and Matrix(rows).rank() == len(rows))
    d = len(rows[0])
    den = math.lcm(*(F(c).denominator for r in rows for c in r))
    ints = [[int(F(c) * den) for c in r] for r in rows]
    reduced = DomainMatrix.from_list(ints, ZZ).lll(delta=QQ(3, 4)).to_list()
    basis = IncrementalLattice.from_generators(rows).basis()
    # Both lattices over one common denominator.
    common = math.lcm(den, basis.scale)
    ours = [[c * (common // basis.scale) for c in r] for r in basis.rows]
    theirs = [[c * (common // den) for c in r] for r in reduced]
    assert sympy_hnf(ours, d) == sympy_hnf(theirs, d)
    bstar, mu = gram_schmidt(basis.vectors)
    assert all(abs(x) <= F(1, 2) for row in mu for x in row)
    for k in range(1, basis.rank):
        bk, bk1 = (sum(x * x for x in bstar[i]) for i in (k, k - 1))
        assert bk >= (F(3, 4) - mu[k][k - 1] ** 2) * bk1


def length_indecomposable(vectors):
    """The vectors v of the set that are no sum x + y of two of its vectors
    both strictly shorter than v (the set is complete, so such an x is in
    it exactly when v - x is); with Fraction norms, not latkit's rows."""
    norm = {v: sum(c * c for c in v) for v in vectors}
    return [v for v in vectors
            if not any(norm[x] < norm[v]
                       and sum((a - b) ** 2 for a, b in zip(v, x)) < norm[v]
                       for x in vectors)]


@settings(max_examples=100, deadline=None)
@given(scrambled_block_lattices(), SCALES)
@example(JOINS_TWO, F(1))
def test_graph_oracle_components_are_networkx_components(case, c):
    s = _block_set(case, c, F(1))
    assume(s.rows)
    graph = networkx.Graph()
    vertices = length_indecomposable(s.vectors)
    graph.add_nodes_from(vertices)
    graph.add_edges_from((u, v) for i, u in enumerate(vertices)
                         for v in vertices[i + 1:]
                         if sum(a * b for a, b in zip(u, v)))
    classes = [canonical_basis(list(cls))
               for cls in networkx.connected_components(graph)]
    forms = [canonical_basis(comp.vectors)
             for comp in graph_decomposition_oracle(s).components]
    assert len(classes) == len(forms)
    for form in classes:
        assert forms.count(form) == 1
