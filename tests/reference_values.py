"""Frozen reference: latkit's eight value types as the frozen dataclasses
they were, fields only, as test code only.

Each class keeps the name, field names and field order of the library type
it mirrors, so that ``test_value_types`` can require the library's
equality, hash, repr and frozen-field errors to be the ones
``@dataclass(frozen=True)`` generates for the same fields.  Constructors,
properties and checks are left out: a reference is built from the field
values of a library instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class LatticeBasis:
    rows: tuple[tuple[int, ...], ...]
    scale: int
    volume_sq: Fraction
    dim: int


@dataclass(frozen=True)
class GeneratingSet:
    rows: tuple[tuple[int, ...], ...]
    scale: int
    bound_sq: Fraction
    complete: bool


@dataclass(frozen=True)
class MinimaResult:
    minima_sq: tuple[Fraction, ...]
    rows: tuple[tuple[int, ...], ...]
    scale: int
    rank: int
    partial: bool


@dataclass(frozen=True)
class ReductionParams:
    delta: Fraction


@dataclass(frozen=True)
class EnumerationRequest:
    basis: object
    bound_sq: Fraction
    cap: int


@dataclass(frozen=True)
class InsertionRecord:
    index: int
    was_update: bool
    rank_after: int
    volume_sq_after: Fraction


@dataclass(frozen=True)
class UpdateTrace:
    steps: tuple[tuple[int, bool, int, int], ...]
    scale: int
    swaps: int


@dataclass(frozen=True)
class Decomposition:
    components: tuple
