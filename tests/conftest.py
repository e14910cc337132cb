import argparse
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from latkit import LatticeBasis, mlll, norm_sq

from reference_linalg import rank_of


def d4_basis() -> LatticeBasis:
    return LatticeBasis([(1, -1, 0, 0), (0, 1, -1, 0),
                         (0, 0, 1, -1), (0, 0, 1, 1)])


@pytest.fixture(scope="module")
def parse_as_top_level():
    """For a module's tests: each parse ``main`` makes with a subcommand's
    parser must give the namespace of the top-level parser's parse of the
    whole command line, less ``command``, or raise its refusal.  A help
    request exits inside the first parse and is not compared here."""
    from latkit import cli
    parser = cli.build_parser()
    names = {id(p): name for name, p in parser.subcommands.items()}
    plain = argparse.ArgumentParser.parse_args

    def parse_args(self, args=None, namespace=None):
        name = names.get(id(self))
        if name is None:
            return plain(self, args, namespace)
        argv = [name, *args]
        try:
            got = plain(self, args, namespace)
        except cli.UsageError as exc:
            with pytest.raises(cli.UsageError) as want:
                plain(parser, argv)
            assert (str(want.value), want.value.code) == (str(exc), exc.code)
            raise
        want = vars(plain(parser, argv))
        del want["command"]
        assert vars(got) == want, argv
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli._Parser, "parse_args", parse_args)
        yield


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


# Blocks of the orthogonal sums below: scaled copies of Z, Lagrange-reduced
# rank-2 blocks (orthogonal or not), a scaled copy of D4, and an
# indecomposable rank-3 block whose two shortest vectors are orthogonal: the
# merge scan starts a component with each, and a later vector must join both
# at once.
BLOCKS = [[(2,)], [(3,)],
          [(2, 0), (1, 3)], [(2, 1), (-2, 2)], [(3, 0), (1, 3)],
          [(2, 1), (1, -2)], [(2, 2), (-2, 1)],
          [tuple(2 * c for c in v) for v in d4_basis().vectors],
          [(2, 0, 0), (0, 2, 0), (1, 1, 2)]]


@st.composite
def scrambled_block_lattices(draw):
    """An orthogonal sum of two to four blocks of total rank at most 6,
    scrambled by unimodular row operations, and the largest squared norm of
    a block basis vector: the enumeration up to it contains the block bases,
    so the set it returns generates the whole lattice."""
    parts = draw(st.lists(st.sampled_from(BLOCKS), min_size=2, max_size=4)
                 .filter(lambda ps: sum(len(p) for p in ps) <= 6))
    n = sum(len(p) for p in parts)
    rows, offset = [], 0
    for p in parts:
        rows += embed_block(p, offset, n)
        offset += len(p)
    bound = max(norm_sq(r) for r in rows)
    return draw(scrambled(LatticeBasis(rows))), bound
