"""Command-line front end.

Subcommands: ``basis`` (incremental construction with optional trace and
oracle verification), ``minima``, ``decompose`` and ``bench``.  Lattice
files are plain text: a header line "d m", then m whitespace-separated rows
of d rational literals; '#' starts a comment.  All primary output is itself
a valid lattice file (metadata goes into comment lines).

Exit codes: 0 ok, 2 parse error, bad option value or unreadable input,
3 verification mismatch, 4 insufficient bound, 5 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import random
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

# The builtin SHA-256 module, as ``random`` takes its SHA-512: ``hashlib``
# loads OpenSSL, several MB of resident memory for one digest per call.
try:
    from _sha2 import sha256 as _sha256          # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256    # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

from .core import (
    LatticeBasis,
    Vector,
    is_zero_vector,
    lattice_equal,
    norm_sq,
    volume_sq,
)
from .decompose import (
    canonical_component_forms,
    graph_decomposition_oracle,
    orthogonal_decomposition,
)
from .enumeration import (
    DEFAULT_CAP,
    EnumerationCapExceeded,
    EnumerationRequest,
    enumerate_up_to,
    first_minimum_sq,
)
from .incremental import (
    generating_subset,
    incremental_basis,
    update_step_bound_holds,
    update_step_bound_value,
)
from .minima import greedy_minima_oracle, minkowski_check, successive_minima
from .reduction import IncrementalLattice, ReductionParams

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VERIFY = 3
EXIT_BOUND = 4
EXIT_CAP = 5


class LatticeFileError(Exception):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class UsageError(Exception):
    """An option value or input file the command cannot use (exit 2)."""


def format_scalar(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def format_vector(v: Vector) -> str:
    return " ".join(format_scalar(c) for c in v)


def parse_lattice_file(text: str) -> tuple[int, int, list[Vector]]:
    """Parse header 'd m' plus m rows of d rational literals."""
    header: Optional[tuple[int, int]] = None
    header_line = 1
    rows: list[Vector] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 2:
                raise LatticeFileError(
                    line_no, "header must be two integers 'd m'")
            try:
                d, m = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise LatticeFileError(
                    line_no, "header must be two integers 'd m'")
            if d < 1 or m < 1:
                raise LatticeFileError(line_no, "header requires d>=1, m>=1")
            header, header_line = (d, m), line_no
            continue
        d, m = header
        if len(tokens) != d:
            raise LatticeFileError(
                line_no, f"expected {d} entries, got {len(tokens)}")
        try:
            rows.append(tuple(Fraction(t) for t in tokens))
        except (ValueError, ZeroDivisionError) as exc:
            raise LatticeFileError(line_no, f"bad rational literal: {exc}")
        if len(rows) > m:
            raise LatticeFileError(line_no, f"more than {m} data rows")
    if header is None:
        raise LatticeFileError(1, "missing header line 'd m'")
    if len(rows) != header[1]:
        raise LatticeFileError(
            header_line,
            f"header promises {header[1]} rows, file has {len(rows)}")
    return header[0], header[1], rows


def render_lattice(vectors: Sequence[Vector], dim: int) -> list[str]:
    lines = [f"{dim} {len(vectors)}"]
    lines.extend(format_vector(v) for v in vectors)
    return lines


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}")


def _digest(text: str) -> str:
    return _sha256(text.encode()).hexdigest()[:16]


def _rational_option(name: str, value: str) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{name} must be a rational number, got {value!r}")


def _int_list(name: str, value: str) -> list[int]:
    try:
        return [int(x) for x in value.split(",")]
    except ValueError:
        raise UsageError(
            f"{name} must be comma-separated integers, got {value!r}")


def _params(args) -> ReductionParams:
    try:
        return ReductionParams(_rational_option("--delta", args.delta))
    except ValueError as exc:
        raise UsageError(f"--delta: {exc}")


def _bound_sq(args) -> Fraction:
    if args.bound_sq is not None:
        b = _rational_option("--bound-sq", args.bound_sq)
        if b <= 0:
            raise UsageError("--bound-sq must be positive")
        return b
    if args.bound is not None:
        b = _rational_option("--bound", args.bound)
        if b <= 0:
            raise UsageError("--bound must be positive")
        return b * b
    raise UsageError("one of --bound-sq / --bound is required")


def cmd_basis(args) -> int:
    params = _params(args)
    _at_least("--cap", [args.cap], 0)
    text = _read_input(args.file)
    d, _, rows = parse_lattice_file(text)
    t0 = time.perf_counter()
    basis, trace = incremental_basis(rows, params)
    t1 = time.perf_counter()
    lines = [
        f"# command: basis",
        f"# input: {_digest(text)}",
        f"# rank: {basis.rank}",
        f"# volume_sq: {format_scalar(volume_sq(basis))}",
    ]
    lines += render_lattice(basis.vectors, d)
    if args.trace:
        for rec in trace.insertions:
            kind = "update" if rec.was_update else "member"
            lines.append(
                f"# insert i={rec.index} {kind} rank={rec.rank_after} "
                f"volume_sq={format_scalar(rec.volume_sq_after)}")
        lines.append(f"# update_count: {trace.update_count}")
        if basis.rank >= 1:
            lam1 = first_minimum_sq(basis, params, args.cap)
            bsq = max(norm_sq(v) for v in rows)
            holds = update_step_bound_holds(trace, basis.rank, bsq, lam1)
            value = update_step_bound_value(basis.rank, bsq, lam1)
            lines.append(f"# bound_value: {value:.6f}")
            lines.append(f"# bound_holds: {'true' if holds else 'false'}")
        lines.append(f"# time_compute: {t1 - t0:.6f}")
    print("\n".join(lines))
    if args.verify:
        subset = generating_subset(rows, trace)
        if not lattice_equal(basis, rows) or not lattice_equal(subset, rows):
            print("verification failed: basis does not match the HNF oracle",
                  file=sys.stderr)
            return EXIT_VERIFY
    return EXIT_OK


def _input_basis(args) -> tuple[str, int, LatticeBasis]:
    """The input file as a basis, for ``minima`` and ``decompose``."""
    text = _read_input(args.file)
    d, _, rows = parse_lattice_file(text)
    try:
        return text, d, LatticeBasis(rows)
    except ValueError as exc:
        raise UsageError(str(exc))


def cmd_minima(args) -> int:
    bound_sq = _bound_sq(args)
    _at_least("--cap", [args.cap], 0)
    text, d, basis = _input_basis(args)
    s = enumerate_up_to(EnumerationRequest(basis, bound_sq, args.cap))
    if not s.vectors:
        print("error: bound below first minimum", file=sys.stderr)
        return EXIT_BOUND
    result = successive_minima(s, expected_rank=basis.rank)
    lines = [
        f"# command: minima",
        f"# input: {_digest(text)}",
        "# minima_sq: " + " ".join(format_scalar(x)
                                   for x in result.minima_sq),
        f"# rank: {result.rank}",
        f"# partial: {'true' if result.partial else 'false'}",
    ]
    lines += render_lattice(result.witnesses, d)
    print("\n".join(lines))
    if args.verify:
        oracle = greedy_minima_oracle(s)
        ok = oracle.minima_sq == result.minima_sq
        if ok and not result.partial:
            ok = minkowski_check(basis, result)
        if not ok:
            print("verification failed: oracle or Minkowski check",
                  file=sys.stderr)
            return EXIT_VERIFY
    return EXIT_OK


def cmd_decompose(args) -> int:
    params = _params(args)
    bound_sq = _bound_sq(args)
    _at_least("--cap", [args.cap], 0)
    text, d, basis = _input_basis(args)
    s = enumerate_up_to(EnumerationRequest(basis, bound_sq, args.cap))
    decomp = orthogonal_decomposition(s, params) if s.vectors else None
    # s lies in L and the components are pairwise orthogonal: s generates L
    # iff their ranks sum to L's and their squared volumes multiply to L's.
    comps = decomp.components if decomp else ()
    if not comps or sum(c.rank for c in comps) != basis.rank or \
            math.prod(c.volume_sq for c in comps) != basis.volume_sq:
        got = len({v for v in s.vectors})
        print(
            f"error: insufficient bound: the {got} enumerated vectors do "
            f"not generate the full rank-{basis.rank} lattice",
            file=sys.stderr)
        return EXIT_BOUND
    lines = [
        f"# command: decompose",
        f"# input: {_digest(text)}",
        f"# r: {decomp.r}",
        "# indices: " + " ".join(str(i) for i in decomp.indices),
    ]
    lines.append(f"{d} {len(decomp.grouped_basis)}")
    for j, comp in enumerate(decomp.components, start=1):
        lines.append(f"# component {j} rank {comp.rank}")
        lines.extend(format_vector(v) for v in comp.vectors)
    print("\n".join(lines))
    if args.verify:
        oracle = graph_decomposition_oracle(s)
        if canonical_component_forms(decomp) != \
                canonical_component_forms(oracle):
            print("verification failed: graph oracle disagrees",
                  file=sys.stderr)
            return EXIT_VERIFY
    return EXIT_OK


def random_instance(rng: random.Random, d: int, m: int, entry_range: int,
                    duplicates: bool) -> list[Vector]:
    """Random generator family; 'duplicates' draws all m vectors from a
    small pool so most insertions are localization-only."""

    def row() -> Vector:
        while True:
            v = tuple(Fraction(rng.randint(-entry_range, entry_range))
                      for _ in range(d))
            if not is_zero_vector(v):
                return v

    if duplicates:
        pool = [row() for _ in range(2 * d)]
        return [rng.choice(pool) for _ in range(m)]
    return [row() for _ in range(m)]


def bench_row(seed: int, d: int, m: int, entry_range: int,
              duplicates: bool, params: ReductionParams) -> dict:
    rng = random.Random(seed)
    gens = random_instance(rng, d, m, entry_range, duplicates)
    # Time with the garbage collector paused, as timeit does: a full
    # collection of a large heap left by earlier work (such as a pytest
    # run) takes longer than either run and would land in one timing.
    gc_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        basis, trace = incremental_basis(gens, params)
        t1 = time.perf_counter()
        batch = IncrementalLattice.from_generators(gens, params)
        batch_basis = batch.basis()
        t2 = time.perf_counter()
    finally:
        if gc_enabled:
            gc.enable()
    assert lattice_equal(basis, batch_basis)
    lam1 = first_minimum_sq(basis, params)
    bsq = max(norm_sq(v) for v in gens)
    return {
        "seed": seed,
        "d": d,
        "m": m,
        "update_count": trace.update_count,
        "membership_tests": trace.localization_count,
        "theorem_bound": update_step_bound_value(basis.rank, bsq, lam1),
        "bound_holds": update_step_bound_holds(trace, basis.rank, bsq, lam1),
        "t_incremental": t1 - t0,
        "t_batch_mlll": t2 - t1,
        "swaps_incremental": trace.swaps,
        "swaps_batch": batch.swaps,
    }


def _at_least(name: str, values: list[int], low: int) -> None:
    for x in values:
        if x < low:
            raise UsageError(f"{name} must be at least {low}, got {x}")


def cmd_bench(args) -> int:
    dims = _int_list("--dims", args.dims)
    counts = _int_list("--gen-counts", args.gen_counts)
    _at_least("--dims", dims, 1)
    _at_least("--gen-counts", counts, 1)
    _at_least("--entry-range", [args.entry_range], 1)
    _at_least("--reps", [args.reps], 0)
    params = _params(args)
    print("seed,d,m,update_count,theorem_bound,t_incremental,t_batch_mlll")
    idx = 0
    for d in dims:
        for m in counts:
            for _ in range(args.reps):
                seed = args.seed + 1009 * idx
                idx += 1
                row = bench_row(seed, d, m, args.entry_range,
                                args.duplicates, params)
                print(
                    f"{row['seed']},{row['d']},{row['m']},"
                    f"{row['update_count']},{row['theorem_bound']:.6f},"
                    f"{row['t_incremental']:.6f},{row['t_batch_mlll']:.6f}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after."""
    parser = argparse.ArgumentParser(
        prog="latkit",
        description="Exact incremental lattice algorithms: basis, "
                    "successive minima, orthogonal decomposition.")
    sub = parser.add_subparsers(dest="command", required=True)

    def delta(p):
        p.add_argument("--delta", default="3/4",
                       help="Lovász parameter (rational, default 3/4)")

    def common(p, bound=False):
        p.add_argument("--verify", action="store_true",
                       help="cross-check against the independent oracle")
        p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                       help="enumeration vector cap")
        if bound:
            p.add_argument("--bound-sq", help="squared norm bound (rational)")
            p.add_argument("--bound",
                           help="norm bound (rational; squared internally)")

    p = sub.add_parser("basis", help="incremental lattice basis")
    p.add_argument("file", help="lattice file ('-' for stdin)")
    p.add_argument("--trace", action="store_true",
                   help="print the localization/update trace and bound check")
    delta(p)
    common(p)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("minima", help="successive minima")
    p.add_argument("file")
    common(p, bound=True)
    p.set_defaults(func=cmd_minima)

    p = sub.add_parser("decompose", help="orthogonal decomposition")
    p.add_argument("file")
    delta(p)
    common(p, bound=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("bench", help="incremental vs batch benchmark (CSV)")
    p.add_argument("--dims", default="4")
    p.add_argument("--gen-counts", default="50,100,200")
    p.add_argument("--entry-range", type=int, default=10)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duplicates", action="store_true",
                   help="duplicates-heavy generator families")
    delta(p)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LatticeFileError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except EnumerationCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
