"""Differential tests against references written outside latkit.

Every other reference under ``tests/`` is an earlier version of latkit's
own code, so a convention they all share (the HNF's shape, its signs, its
column order, what counts as an edge of the graph oracle) would pass them
all.  Here the Hermite normal form comes from ``sympy`` and the connected
components from ``networkx``.  Neither is a dependency of the library, and
no oracle is routed through them.
"""

import math
from fractions import Fraction as F

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
import networkx
from sympy import Matrix
from sympy.matrices.normalforms import hermite_normal_form

from latkit import canonical_basis, graph_decomposition_oracle, lattice_equal
from latkit.core import _column_hnf

from conftest import scrambled_block_lattices
from test_core import hnf_step_rows, presented_lattice_pairs
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
