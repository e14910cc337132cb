"""Split a lattice into its indecomposable orthogonal summands.

The lattice below is Z x D4 hidden in a 5-dimensional ambient space; the
incremental merge scan and the independent graph-components oracle must
recover the same two summands.
"""

from latkit import (
    EnumerationRequest,
    LatticeBasis,
    canonical_component_forms,
    enumerate_up_to,
    graph_decomposition_oracle,
    orthogonal_decomposition,
)

rows = [(1, 0, 0, 0, 0),
        (0, 1, -1, 0, 0),
        (0, 0, 1, -1, 0),
        (0, 0, 0, 1, -1),
        (0, 0, 0, 1, 1)]
basis = LatticeBasis(rows)

s = enumerate_up_to(EnumerationRequest(basis, bound_sq=2))
print("complete generating set size:", len(s.vectors))

decomp = orthogonal_decomposition(s)
print("number of summands r:", decomp.r)
print("component start indices:", decomp.indices)
for j, comp in enumerate(decomp.components, start=1):
    print(f"component {j} (rank {comp.rank}):",
          [tuple(map(int, v)) for v in comp.vectors])

oracle = graph_decomposition_oracle(s)
print("graph oracle agrees:",
      canonical_component_forms(decomp) == canonical_component_forms(oracle))
