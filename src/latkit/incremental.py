"""Incremental lattice basis construction with localization/update tracing.

Each generator is first located (membership test against the lattice built
so far); only generators outside it trigger an update, which resumes the
integral MLLL loop of ``IncrementalLattice`` from the new vector instead of
reducing everything again; at full rank the updates run on the lattice's
Hermite normal form, reduced once at the end.  The trace records enough to
check the update-step bound u <= d + log2(d! (B/lambda_1)^d) exactly in its
squared form: each insertion as ints, its ``Fraction`` volume formed only
when the records are read.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .core import (LatticeBasis, _column_hnf, _det_with, _idot, _Value,
                   integerize)
from .enumeration import DEFAULT_CAP, first_minimum_sq
from .reduction import DEFAULT_PARAMS, IncrementalLattice, ReductionParams


class InsertionRecord(_Value):
    __slots__ = ("index", "was_update", "rank_after", "volume_sq_after")
    index: int           # position in the original generator sequence
    was_update: bool
    rank_after: int
    volume_sq_after: Fraction

    def __init__(self, index, was_update, rank_after, volume_sq_after):
        self.__setstate__((index, was_update, rank_after, volume_sq_after))


class UpdateTrace(_Value):
    """The insertions of one construction: ``steps`` holds, for each,
    ``(index, was_update, rank_after, d)``, with ``d`` the Gram determinant
    of the lattice's basis rows over ``scale`` after the insertion.
    ``swaps`` counts the MLLL swaps the construction ran: at full rank it
    locates against the lattice's HNF and reduces once, at the end."""

    __slots__ = ("steps", "scale", "swaps")
    steps: tuple[tuple[int, bool, int, int], ...]
    scale: int
    swaps: int           # MLLL swaps the construction ran

    def __init__(self, steps, scale, swaps):
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "swaps", swaps)

    @property
    def update_count(self) -> int:
        return sum(u for _, u, _, _ in self.steps)

    @property
    def insertions(self) -> tuple[InsertionRecord, ...]:
        """The steps as records, with ``volume_sq_after = d /
        scale^(2 rank_after)``, formed on each access."""
        s = self.scale
        return tuple(InsertionRecord(i, u, r, Fraction(d, s ** (2 * r)))
                     for i, u, r, d in self.steps)

    @property
    def localization_count(self) -> int:
        return len(self.steps)


def incremental_basis(generators: Sequence, params: ReductionParams =
                      DEFAULT_PARAMS) -> tuple[LatticeBasis, UpdateTrace]:
    """Basis of the lattice generated by ``generators``, built one vector at
    a time.

    Zero generators are dropped silently; every nonzero generator produces
    one trace record (repeats and members count as localization-only
    steps).  Each distinct generator, as a tuple, takes one slot in order
    of first appearance; only the distinct ones are integerized, and each
    nonzero one is inserted once: the lattice only grows, so a repeat needs
    no ``insert``.  Nothing is kept between calls.

    From the first full-rank update that leaves a determinant above 1, the
    engine is set aside: its lattice's HNF ``h`` is kept, a row is located
    against it by ``_det_with``, and an update takes the HNF of ``h`` and
    the row (or the engine's ``Z^dim`` state).  The engine is rebuilt from
    ``h`` at the end, as ``insert`` would have rebuilt it at each update,
    so only the swaps of the skipped rebuilds are saved.
    """
    slots: dict[tuple, int] = {}
    order = [slots.setdefault(tuple(g), len(slots)) for g in generators]
    lattice, rows = IncrementalLattice.over(slots, params)
    dim = lattice.dim
    h = None                # the lattice's HNF while the engine is set aside
    steps = []
    for i, s in enumerate(order):
        row = rows[s]
        if row is None:         # a repeat of an inserted generator
            was_update = False
        elif not any(row):
            continue
        else:
            rows[s] = None
            if h:
                g = _det_with(det, row, h, [r[j] for j, r in enumerate(h)])
                was_update = g < det
                if g == 1:
                    lattice._take_z_dim()
                    h = None
                elif was_update:
                    h, det = _column_hnf([*h, row]), g
            elif lattice.rank < dim or lattice.d[dim] == 1:
                was_update = lattice.insert(row)
            else:
                lam_row, _ = lattice._gram_schmidt_row(row)
                was_update = not lattice._reduces_to_zero(lam_row)
                if was_update:
                    det, h = lattice._full_rank_update(row, lam_row)
        r = lattice.rank
        steps.append((i, was_update, r, det * det if h else lattice.d[r]))
    if h:
        lattice._rebuild(h)
    return lattice.basis(), UpdateTrace(tuple(steps), lattice.scale,
                                        lattice.swaps)


def _bound_ratio(bound_sq, lambda1_sq) -> Fraction:
    """B^2 / lambda_1^2, for a positive ``lambda1_sq``."""
    lambda1_sq = Fraction(lambda1_sq)
    if lambda1_sq <= 0:
        raise ValueError("lambda1_sq must be positive")
    return Fraction(bound_sq) / lambda1_sq


def update_step_bound_holds(trace: UpdateTrace, d: int, bound_sq,
                            lambda1_sq) -> bool:
    """Exact check of u <= d + log2(d! (B/lambda_1)^d).

    Evaluated in the squared form 4^(u-d) <= (d!)^2 (B^2/lambda_1^2)^d so no
    irrational quantity is ever formed; trivially true when u <= d.
    """
    ratio = _bound_ratio(bound_sq, lambda1_sq)
    u = trace.update_count
    if u <= d:
        return True
    return Fraction(4) ** (u - d) <= \
        Fraction(math.factorial(d)) ** 2 * ratio ** d


def update_step_bound_value(d: int, bound_sq, lambda1_sq) -> float:
    """The bound d + log2(d! (B/lambda_1)^d) as a float, for reporting; on
    logs of the ratio's numerator and denominator, so no float overflows."""
    ratio = _bound_ratio(bound_sq, lambda1_sq)
    log2_ratio = math.log2(ratio.numerator) - math.log2(ratio.denominator)
    return d + math.log2(math.factorial(d)) + d * log2_ratio / 2


def update_step_bound(generators: Sequence, basis: LatticeBasis,
                      trace: UpdateTrace, cap: int = DEFAULT_CAP
                      ) -> tuple[float, bool]:
    """The bound for ``incremental_basis(generators)``, whose result is
    ``basis``, and whether ``trace`` keeps to it: ``d`` is the rank, ``B``
    the longest generator and ``lambda_1`` the first minimum, found under
    ``cap``.  Raises ``ValueError`` at rank zero, as ``first_minimum_sq``
    does."""
    d, lambda1_sq = basis.rank, first_minimum_sq(basis, cap)
    rows, scale = integerize(dict.fromkeys(map(tuple, generators)))
    bound_sq = Fraction(max(map(_idot, rows, rows)), scale * scale)
    return (update_step_bound_value(d, bound_sq, lambda1_sq),
            update_step_bound_holds(trace, d, bound_sq, lambda1_sq))


def generating_subset(generators: Sequence, trace: UpdateTrace
                      ) -> tuple:
    """The generators whose insertion was an update step, as given.

    This subset regenerates the lattice; its size is ``update_count``.
    """
    return tuple(tuple(generators[i])
                 for i, was_update, _, _ in trace.steps if was_update)
