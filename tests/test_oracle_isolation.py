"""The ``--verify`` oracles share no code with the MLLL engine they check.

Each oracle must still run, and give the engine's answers, when
``IncrementalLattice`` cannot even be built: the HNF ``lattice_equal`` of
``basis``, the greedy rank scan and the Minkowski check of ``minima``, and
the graph components of ``decompose``.
"""

import pytest

from latkit import (
    EnumerationRequest,
    canonical_component_forms,
    enumerate_up_to,
    generating_subset,
    graph_decomposition_oracle,
    greedy_minima_oracle,
    incremental_basis,
    lattice_equal,
    minkowski_check,
    mlll,
    orthogonal_decomposition,
    successive_minima,
)
from latkit.reduction import IncrementalLattice


def test_oracles_run_without_the_engine(monkeypatch):
    # Z + D4, scrambled, in a 5-dimensional ambient space.  The inputs are
    # built first: the program's own answers come from the engine.
    rows = [(1, 0, 0, 0, 0), (1, 1, -1, 0, 0), (0, 0, 1, -1, 0),
            (0, 0, 0, 1, -1), (0, 0, 0, 1, 1), (1, 1, 0, 0, -1)]
    basis, trace = incremental_basis(rows)
    subset = generating_subset(rows, trace)
    s = enumerate_up_to(EnumerationRequest(basis, 2))
    minima = successive_minima(s, expected_rank=basis.rank)
    decomp = orthogonal_decomposition(s)

    def no_engine(*args, **kwargs):
        raise AssertionError("the MLLL engine was built")

    monkeypatch.setattr(IncrementalLattice, "__init__", no_engine)
    with pytest.raises(AssertionError, match="MLLL engine"):
        mlll(rows)

    assert lattice_equal(basis, rows) and lattice_equal(subset, rows)
    greedy = greedy_minima_oracle(s)
    assert greedy.minima_sq == minima.minima_sq == (1, 2, 2, 2, 2)
    assert minkowski_check(basis, minima)
    oracle = graph_decomposition_oracle(s)
    assert oracle.r == decomp.r == 2
    assert canonical_component_forms(oracle) == \
        canonical_component_forms(decomp)
