import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from latkit import LatticeBasis, mlll, rank_of


def d4_basis() -> LatticeBasis:
    return LatticeBasis([(1, -1, 0, 0), (0, 1, -1, 0),
                         (0, 0, 1, -1), (0, 0, 1, 1)])


@pytest.fixture
def d4() -> LatticeBasis:
    return d4_basis()


@pytest.fixture
def z2() -> LatticeBasis:
    return LatticeBasis([(1, 0), (0, 1)])


def random_full_rank_rows(rng: random.Random, d: int, entry: int = 3):
    """Random integer rows forming a full-rank d x d matrix."""
    while True:
        rows = [tuple(rng.randint(-entry, entry) for _ in range(d))
                for _ in range(d)]
        if rank_of([tuple(map(Fraction, r)) for r in rows]) == d:
            return rows


def random_reduced_basis(rng: random.Random, d: int,
                         entry: int = 3) -> LatticeBasis:
    return mlll(random_full_rank_rows(rng, d, entry))


def embed_block(vectors, offset: int, total: int):
    """Place vectors of a small lattice into an orthogonal coordinate block."""
    out = []
    for v in vectors:
        k = len(v)
        out.append(tuple([Fraction(0)] * offset) + tuple(v)
                   + tuple([Fraction(0)] * (total - offset - k)))
    return out


@st.composite
def scrambled(draw, basis):
    """The same lattice under a random unimodular change of basis."""
    rows = [list(v) for v in basis.vectors]
    n = len(rows)
    for _ in range(draw(st.integers(0, 2 * n)) if n > 1 else 0):
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        s = draw(st.sampled_from([-2, -1, 1, 2]))
        rows[a] = [x + s * y for x, y in zip(rows[a], rows[b])]
    rows = draw(st.permutations(rows))
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    return LatticeBasis([[s * x for x in r] for s, r in zip(signs, rows)])
