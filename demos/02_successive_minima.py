"""Successive minima of the D4 root lattice, with the Minkowski sanity check.

A complete generating system (every nonzero lattice vector up to the norm
bound) is enumerated first; the minima then fall out of a single scan in
nondecreasing norm order.
"""

from latkit import (
    EnumerationRequest,
    LatticeBasis,
    enumerate_up_to,
    greedy_minima_oracle,
    minkowski_check,
    successive_minima,
)

d4 = LatticeBasis([(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1),
                   (0, 0, 1, 1)])
print("D4 volume^2:", d4.volume_sq)

s = enumerate_up_to(EnumerationRequest(d4, bound_sq=2))
print("vectors with norm^2 <= 2:", len(s.vectors), "(kissing number 24)")

result = successive_minima(s)
print("minima^2:", tuple(map(int, result.minima_sq)))
print("witnesses:", [tuple(map(int, w)) for w in result.witnesses])

oracle = greedy_minima_oracle(s)
print("matches brute-force greedy oracle:",
      oracle.minima_sq == result.minima_sq)
print("Minkowski inequalities hold:", minkowski_check(d4, result))
