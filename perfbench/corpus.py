"""Seeded corpus generator for the four benchmark workloads.

Standard library only: it never imports latkit, so set-up time measures no
program code and the inputs are identical on every commit.  Each workload
cycles a fixed list of shapes (dimension, generator count, block layout) and
draws the entries from ``random.Random(f"{workload}:{seed}")``.  Fixing the
shape mix keeps the cost of a corpus steady from one seed to the next, while
the seed still changes every instance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ENTRY = 20          # basis-update entries lie in [-ENTRY, ENTRY]
POOL_ENTRY = 5      # basis-member pool entries lie in [-POOL_ENTRY, ...]
BASIS_DIMS = (4, 5, 6, 7, 8)

# Block layouts for the minima/decompose family, total rank 4..6.  "Z" is a
# scaled copy of Z, "A" a random rank-2 block, "D4" a scaled copy of D4.
LAYOUTS = (
    ("Z", "Z", "A"),
    ("D4",),
    ("A", "A"),
    ("Z", "A", "Z", "Z"),
    ("D4", "Z"),
    ("A", "A", "Z"),
    ("Z", "Z", "Z", "A"),
    ("D4", "A"),
    ("A", "A", "A"),
    ("Z", "D4", "Z"),
)
D4 = ((1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 1, 1))


@dataclass(frozen=True)
class Instance:
    """One CLI call: the lattice file text and the extra arguments."""

    name: str
    text: str
    args: tuple[str, ...]
    rank: int


def lattice_text(rows, comment: str) -> str:
    d = len(rows[0])
    lines = [f"# {comment}", f"{d} {len(rows)}"]
    lines += [" ".join(str(c) for c in r) for r in rows]
    return "\n".join(lines) + "\n"


def _nonzero_row(rng: random.Random, d: int, entry: int) -> tuple[int, ...]:
    while True:
        v = tuple(rng.randint(-entry, entry) for _ in range(d))
        if any(v):
            return v


def _rank(rows) -> int:
    """Rank over Q by fraction-free elimination on integers."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [p[col] * a - f * b for a, b in zip(rows[i], p)]
        rank += 1
    return rank


def basis_update(rng: random.Random, i: int) -> Instance:
    """Fresh random generators: d in [4, 8], m in [2d, 4d]."""
    d = BASIS_DIMS[i % len(BASIS_DIMS)]
    m = 2 * d + (i // len(BASIS_DIMS) * 3) % (2 * d + 1)
    rows = [_nonzero_row(rng, d, ENTRY) for _ in range(m)]
    return Instance(f"bu{i:04d}", lattice_text(rows, f"basis-update {i}"),
                    ("basis",), _rank(rows))


def basis_member(rng: random.Random, i: int) -> Instance:
    """Duplicate-heavy generators: all m drawn from a pool of 2d vectors."""
    d = BASIS_DIMS[i % len(BASIS_DIMS)]
    m = 10 * d + (i // len(BASIS_DIMS) * 7) % (6 * d + 1)
    pool = [_nonzero_row(rng, d, POOL_ENTRY) for _ in range(2 * d)]
    rows = [rng.choice(pool) for _ in range(m)]
    return Instance(f"bm{i:04d}", lattice_text(rows, f"basis-member {i}"),
                    ("basis",), _rank(rows))


def _rank2_block(rng: random.Random) -> list[tuple[int, int]]:
    """Gauss-reduced rank-2 block whose two basis norms lie in [4, 12]."""
    while True:
        u = (rng.randint(-3, 3), rng.randint(-3, 3))
        v = (rng.randint(-3, 3), rng.randint(-3, 3))
        if u[0] * v[1] - u[1] * v[0] == 0:
            continue
        while True:   # Lagrange-Gauss reduction in integers
            if u[0] ** 2 + u[1] ** 2 > v[0] ** 2 + v[1] ** 2:
                u, v = v, u
            nu = u[0] ** 2 + u[1] ** 2
            q = round((u[0] * v[0] + u[1] * v[1]) / nu)
            if q == 0:
                break
            v = (v[0] - q * u[0], v[1] - q * u[1])
        norms = (u[0] ** 2 + u[1] ** 2, v[0] ** 2 + v[1] ** 2)
        if 4 <= min(norms) and max(norms) <= 12:
            return [u, v]


def _block(rng: random.Random, kind: str) -> list[tuple[int, ...]]:
    if kind == "Z":
        return [(rng.choice((2, 3)),)]
    if kind == "D4":
        return [tuple(2 * c for c in row) for row in D4]
    return _rank2_block(rng)


def blocks(rng: random.Random, i: int, command: str) -> Instance:
    """Orthogonal sum of blocks scrambled by a unimodular matrix.

    The squared-norm bound is the largest squared norm of a block basis
    vector: those vectors generate the lattice, so the enumeration reaches
    full rank and every successive minimum.
    """
    layout = LAYOUTS[i % len(LAYOUTS)]
    parts = [_block(rng, kind) for kind in layout]
    n = sum(len(p) for p in parts)
    rows: list[list[int]] = []
    offset = 0
    for p in parts:
        k = len(p)
        for v in p:
            rows.append([0] * offset + list(v) + [0] * (n - offset - k))
        offset += k
    bound_sq = max(sum(c * c for c in r) for r in rows)
    for _ in range(n):   # unimodular scramble: row_a += s * row_b
        a, b = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        rows[a] = [x + s * y for x, y in zip(rows[a], rows[b])]
    rng.shuffle(rows)
    tag = "mb" if command == "minima" else "db"
    return Instance(f"{tag}{i:04d}",
                    lattice_text(rows, f"{'+'.join(layout)} {i}"),
                    (command, "--bound-sq", str(bound_sq)), n)


def minima_blocks(rng: random.Random, i: int) -> Instance:
    return blocks(rng, i, "minima")


def decompose_blocks(rng: random.Random, i: int) -> Instance:
    return blocks(rng, i, "decompose")


GENERATORS = {
    "basis-update": basis_update,
    "basis-member": basis_member,
    "minima-blocks": minima_blocks,
    "decompose-blocks": decompose_blocks,
}


def make_corpus(workload: str, seed: int, size: int) -> list[Instance]:
    rng = random.Random(f"{workload}:{seed}")
    gen = GENERATORS[workload]
    return [gen(rng, i) for i in range(size)]
