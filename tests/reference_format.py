"""Frozen reference: the printer as ``latkit.cli`` had it while it formatted
``Fraction`` vectors, kept as test code only.

``format_scalar`` and ``format_vector`` are copied unchanged; the
differential test requires the library's printer of integer rows over a
scale to give exactly their output on the vectors ``row / scale``.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from latkit.core import Vector


def format_scalar(x: Fraction) -> str:
    try:
        return str(x.numerator) if x.denominator == 1 else \
            f"{x.numerator}/{x.denominator}"
    except ValueError:
        # An integer past the interpreter's int-to-str digit limit (4300
        # digits by default): print it in full, with the limit lifted for
        # this one conversion.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return format_scalar(x)
        finally:
            sys.set_int_max_str_digits(limit)


def format_vector(v: Vector) -> str:
    return " ".join(format_scalar(c) for c in v)
