"""Machine-speed calibration: a fixed exact-rational workload.

The slice is plain ``fractions.Fraction`` arithmetic of the same kind latkit
does (dot products and a Gaussian elimination), written here so that it never
imports latkit and stays identical on every commit.  Interleaving slices with
the timed loop lets the benchmark divide out how fast the shared machine
happened to run.
"""

from __future__ import annotations

import time
from fractions import Fraction

SLICE_REPS = 12   # about 5 ms on a 2-vCPU Xeon with Python 3.11
_MATRIX = tuple(
    tuple(Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + 2 * j) % 4)
          for j in range(6))
    for i in range(6)
)


def _eliminate(rows) -> Fraction:
    """Determinant of a 6x6 rational matrix by Gaussian elimination."""
    a = [list(r) for r in rows]
    det = Fraction(1)
    n = len(a)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        p = a[col]
        det *= p[col]
        for i in range(col + 1, n):
            f = a[i][col] / p[col]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], p)]
    return det


def calibration_slice() -> float:
    """Run the fixed rational workload; return its wall time in seconds."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for r in range(SLICE_REPS):
        acc += _eliminate(_MATRIX)
        row = _MATRIX[r % 6]
        acc += sum((x * y for x, y in zip(row, _MATRIX[(r + 1) % 6])),
                   Fraction(0))
    return time.perf_counter() - t0
