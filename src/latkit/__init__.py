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
    is_member,
    lattice_equal,
    norm_sq,
    volume_sq,
)
from .decompose import (
    Decomposition,
    canonical_component_forms,
    graph_decomposition_oracle,
    orthogonal_decomposition,
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
    update_step_bound,
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
    "graph_decomposition_oracle",
    "greedy_minima_oracle",
    "incremental_basis",
    "is_member",
    "lattice_equal",
    "minkowski_check",
    "mlll",
    "norm_sq",
    "orthogonal_decomposition",
    "successive_minima",
    "update_step_bound",
    "update_step_bound_holds",
    "update_step_bound_value",
    "volume_sq",
]
