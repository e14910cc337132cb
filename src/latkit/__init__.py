"""Exact incremental lattice algorithms.

Basis construction from generators, successive minima, and orthogonal
(Kneser) decomposition, all in exact rational arithmetic (lattice reduction
and enumeration in exact integers), each paired with an independent
brute-force oracle.
"""

from .core import (
    GeneratingSet,
    LatticeBasis,
    Vector,
    canonical_basis,
    gram_matrix,
    inner_product,
    is_member,
    lattice_equal,
    norm_sq,
    rank_of,
    solve_in_span,
    volume_sq,
)
from .decompose import (
    Decomposition,
    canonical_component_forms,
    graph_decomposition_oracle,
    is_length_decomposable,
    orthogonal_decomposition,
    projection_nonzero,
)
from .enumeration import (
    EnumerationCapExceeded,
    EnumerationRequest,
    enumerate_up_to,
    first_minimum_sq,
)
from .incremental import (
    InsertionRecord,
    UpdateTrace,
    generating_subset,
    incremental_basis,
    update_step_bound_holds,
    update_step_bound_value,
)
from .minima import (
    MinimaResult,
    greedy_minima_oracle,
    minkowski_check,
    successive_minima,
)
from .reduction import ReductionParams, basis_union, mlll

__version__ = "0.1.0"

__all__ = [
    "Decomposition",
    "EnumerationCapExceeded",
    "EnumerationRequest",
    "GeneratingSet",
    "InsertionRecord",
    "LatticeBasis",
    "MinimaResult",
    "ReductionParams",
    "UpdateTrace",
    "Vector",
    "basis_union",
    "canonical_basis",
    "canonical_component_forms",
    "enumerate_up_to",
    "first_minimum_sq",
    "generating_subset",
    "gram_matrix",
    "graph_decomposition_oracle",
    "greedy_minima_oracle",
    "incremental_basis",
    "inner_product",
    "is_length_decomposable",
    "is_member",
    "lattice_equal",
    "minkowski_check",
    "mlll",
    "norm_sq",
    "orthogonal_decomposition",
    "projection_nonzero",
    "rank_of",
    "solve_in_span",
    "successive_minima",
    "update_step_bound_holds",
    "update_step_bound_value",
    "volume_sq",
]
