"""How close the update count u comes to the paper's bound.

Every insertion order of a generator family makes at most
u <= d + log2(d! (B/lambda_1)^d) updates, with d the rank, B the longest
generator and lambda_1 the first minimum.  Three cases, each printed as u,
the bound and the room left under it (bound - u):

- the dyadic staircase 2^k e_c, 2^(k-1) e_c, ..., e_c for each coordinate
  c, largest first: every generator is an update, u = d(k+1), and only the
  log2(d!) term is room (none at d = 1, where the bound is met);
- seeded random families, in the order drawn;
- the worst insertion order of small random families, found by trying
  every order.
"""

import random
from itertools import permutations

from latkit import incremental_basis, update_step_bound


def dyadic_staircase(d, k):
    return [tuple(2 ** j * (i == c) for i in range(d))
            for c in range(d) for j in range(k, -1, -1)]


def report(label, gens, trace=None):
    """One line: u for ``trace`` (the order given when None), the bound
    for the family's lattice and the room left under it."""
    basis, own = incremental_basis(gens)
    trace = trace or own
    u = trace.update_count
    bound, holds = update_step_bound(gens, basis, trace)
    assert holds
    print(f"{label:<28} {basis.rank:>2} {len(gens):>3} {u:>3} {bound:>8.3f} "
          f"{bound - u:>7.3f}")


print(f"{'case':<28} {'d':>2} {'m':>3} {'u':>3} {'bound':>8} {'room':>7}")
for d in range(1, 5):
    for k in range(4):
        report(f"staircase d={d} k={k}", dyadic_staircase(d, k))

rng = random.Random(5)
for d, m in ((2, 12), (3, 20), (4, 40)):
    for _ in range(2):
        gens = [tuple(rng.randint(-10, 10) for _ in range(d))
                for _ in range(m)]
        report("random, order drawn", [g for g in gens if any(g)])

for d, m in ((2, 6), (2, 6), (3, 6), (3, 5)):
    gens = [tuple(rng.randint(-10, 10) for _ in range(d)) for _ in range(m)]
    gens = [g for g in gens if any(g)]
    worst = max((incremental_basis(p)[1] for p in permutations(gens)),
                key=lambda t: t.update_count)
    report(f"random, worst of {len(gens)}! orders", gens, worst)
