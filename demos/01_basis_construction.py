"""Build a lattice basis incrementally and watch the update steps.

Most generators of a redundant set are already members of the lattice built
so far, so they only cost a cheap membership test; the expensive basis
recomputation happens rarely.
"""

import random

from latkit import (
    generating_subset,
    incremental_basis,
    lattice_equal,
    update_step_bound,
)

rng = random.Random(1)

# 40 generators of a plane lattice, mostly redundant
pool = [(2, 1), (1, 3), (4, -1)]
gens = [rng.choice(pool) for _ in range(40)]

basis, trace = incremental_basis(gens)

print("generators:", len(gens))
print("basis:", [tuple(map(int, v)) for v in basis.vectors])
print("volume^2:", basis.volume_sq)
print("membership tests:", trace.localization_count)
print("update steps:", trace.update_count)

for rec in trace.insertions[:6]:
    kind = "update" if rec.was_update else "member"
    print(f"  insert #{rec.index}: {kind}, rank {rec.rank_after}, "
          f"vol^2 {rec.volume_sq_after}")
print("  ...")

# the update steps alone regenerate the lattice
subset = generating_subset(gens, trace)
print("update-step subset size:", len(subset))
print("subset regenerates lattice:", lattice_equal(subset, gens))

# the number of updates respects the a-priori bound
bound, holds = update_step_bound(gens, basis, trace)
print("update bound:", f"{bound:.2f}")
print("bound holds:", holds)
