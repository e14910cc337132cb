"""Frozen reference: the Hermite-normal-form oracle as ``latkit.core`` had it
before ``canonical_basis`` handed its integer rows to the HNF directly, kept
verbatim as test code only.

``_as_vector``, ``_row_hnf``, ``_integerize``, ``reference_hnf`` and
``reference_canonical_basis`` are copies of ``as_vector``, ``_row_hnf``,
``integerize``, ``hnf`` and ``canonical_basis``, renamed so that they call
each other and nothing in ``latkit``; the differential tests require
identical results from the library.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _as_vector(coords):
    return tuple(Fraction(c) for c in coords)


def _is_zero_vector(v) -> bool:
    return all(c == 0 for c in v)


def _row_hnf(rows: list[list[int]], d: int) -> list[list[int]]:
    """Row-style HNF: pivots left to right, zeros below, entries above a
    pivot reduced into [0, pivot)."""
    rows = [r[:] for r in rows if any(r)]
    r0 = 0
    for col in range(d):
        while True:
            nz = [i for i in range(r0, len(rows)) if rows[i][col] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(rows[i][col]))
            rows[r0], rows[piv] = rows[piv], rows[r0]
            done = True
            for i in range(r0 + 1, len(rows)):
                if rows[i][col] != 0:
                    q = rows[i][col] // rows[r0][col]
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[r0])]
                    if rows[i][col] != 0:
                        done = False
            if done:
                if rows[r0][col] < 0:
                    rows[r0] = [-a for a in rows[r0]]
                for j in range(r0):
                    q = rows[j][col] // rows[r0][col]
                    if q:
                        rows[j] = [a - q * b
                                   for a, b in zip(rows[j], rows[r0])]
                r0 += 1
                break
        if r0 == len(rows):
            break
    return [r for r in rows if any(r)]


def _integerize(vectors):
    """Rescale rational vectors by the lcm of all denominators."""
    vs = [_as_vector(v) for v in vectors]
    denoms = [c.denominator for v in vs for c in v]
    scale = math.lcm(*denoms) if denoms else 1
    return [[int(c * scale) for c in v] for v in vs], scale


def reference_hnf(vectors):
    """Column-style Hermite normal form of the lattice generated by integer
    vectors; equal lattices yield identical output."""
    vs = [_as_vector(v) for v in vectors]
    vs = [v for v in vs if not _is_zero_vector(v)]
    if not vs:
        return ()
    for v in vs:
        for c in v:
            if c.denominator != 1:
                raise ValueError(f"hnf requires integer coordinates, got {c}")
    d = len(vs[0])
    rows = [[int(c) for c in reversed(v)] for v in vs]
    red = _row_hnf(rows, d)
    return tuple(tuple(reversed(r)) for r in reversed(red))


def reference_canonical_basis(vectors):
    """Presentation-independent canonical basis of the generated lattice.

    Rational generators are rescaled to integers, brought to HNF, and scaled
    back; hnf(s*L) = s*hnf(L), so the result does not depend on the chosen
    scale.
    """
    vs = [_as_vector(v) for v in vectors]
    vs = [v for v in vs if not _is_zero_vector(v)]
    if not vs:
        return ()
    ints, scale = _integerize(vs)
    return tuple(tuple(Fraction(c, scale) for c in row)
                 for row in reference_hnf(ints))
