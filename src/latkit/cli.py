"""Command-line front end.

Subcommands: ``basis`` (incremental construction with optional trace and
oracle verification), ``minima``, ``decompose`` and ``bench``.  Lattice
files are plain text: a header line "d m", then m whitespace-separated rows
of d rational literals.  A line whose first non-blank character is '#' is a
comment; a '#' later in a line is read as an entry.  All primary output is
itself a valid lattice file (metadata goes into comment lines).

Exit codes: 0 ok, 2 refused command line or option value, parse error,
unreadable input or unwritable standard output, 3 verification mismatch,
4 insufficient bound, 5 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import decimal
import errno
import functools
import gc
import itertools
import math
import os
import re
import sys
import time
from collections.abc import Sequence
from fractions import Fraction

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
    GeneratingSet,
    LatticeBasis,
    lattice_equal,
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
)
from .incremental import (
    generating_subset,
    incremental_basis,
    update_step_bound,
)
from .minima import greedy_minima_oracle, minkowski_check, successive_minima
from .reduction import DEFAULT_PARAMS, IncrementalLattice, ReductionParams

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VERIFY = 3
EXIT_BOUND = 4
EXIT_CAP = 5


class UsageError(Exception):
    """A failure that ends the command: ``main`` prints ``prefix: message``
    as the one line on stderr and returns ``code``.  By default an option
    value or input file the command cannot use (exit 2)."""

    def __init__(self, message: str, code: int = EXIT_PARSE,
                 prefix: str = "error"):
        super().__init__(message)
        self.code, self.prefix = code, prefix


class LatticeFileError(UsageError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}", prefix="parse error")


def format_scalar(x) -> str:
    try:
        return str(x)
    except ValueError:
        # An integer past the interpreter's int-to-str digit limit (4300
        # digits by default): Decimal's str has no such limit, and the
        # limit, a process-wide setting, is left as it is.
        n, q = map(str, map(decimal.Decimal, x.as_integer_ratio()))
        return n if q == "1" else f"{n}/{q}"


def format_vector(v: Sequence, scale: int = 1) -> str:
    """The entries of ``v / scale``, for an integer row over ``scale``."""
    if scale != 1:
        v = [Fraction(c, scale) for c in v]
    return " ".join(map(format_scalar, v))


class ExponentLimitError(ValueError):
    """A decimal exponent past the int-to-str digit limit in magnitude."""


def _literal(token: str):
    """The value of one rational literal, a file entry or an option value:
    an ``int`` when the token is an integer literal, else a ``Fraction``,
    always equal to ``Fraction(token)``.

    ``int`` takes only ASCII tokens without ``_``: on Python 3.10
    ``int('1_000')`` is 1000 but ``Fraction('1_000')`` raises.  Every other
    token, and every token ``int`` rejects (``3/0``, ``1.5``, more digits
    than the conversion limit), goes to ``Fraction``, which raises the
    error.  Before that, a decimal exponent past the int-to-str digit limit
    in magnitude raises ``ExponentLimitError``, before ``Fraction`` raises
    10 to it (seconds for ``1e10000000``), as the value in digits would.  A
    token malformed with its digits zeroed is malformed as is: ``Fraction``
    reports it."""
    if token.isascii() and "_" not in token:
        try:
            return int(token)
        except ValueError:
            pass
    m = re.search(r"[eE][-+]?([\d_]+)\s*\Z", token)
    limit = sys.get_int_max_str_digits()
    if m and limit:
        try:
            Fraction(re.sub(r"\d", "0", token))
        except ValueError:
            return Fraction(token)
        if int(m[1]) > limit:
            raise ExponentLimitError(
                f"decimal exponent exceeds the limit ({limit})")
    return Fraction(token)


def parse_lattice_file(text: str) -> tuple[int, int, list[tuple]]:
    """Parse header 'd m' plus m rows of d rational literals; each entry is
    an ``int`` for an integer literal and a ``Fraction`` otherwise.

    A data line whose text (line end excluded) was read before in the same
    call appends the row tuple read then, with no token work; the header
    line is never reused, and the row count is checked on every line.
    Nothing is kept between calls."""
    header: tuple[int, int] | None = None
    header_line = 1
    rows: list[tuple] = []
    read: dict[str, tuple] = {}     # data line text -> its row
    for line_no, raw in enumerate(text.splitlines(), start=1):
        row = read.get(raw)
        if row is None:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if header is None:
                try:
                    d, m = map(int, tokens)
                except ValueError:
                    raise LatticeFileError(
                        line_no, "header must be two integers 'd m'")
                if d < 1 or m < 0:      # m = 0: the zero lattice, no rows
                    raise LatticeFileError(
                        line_no, "header requires d>=1, m>=0")
                header, header_line = (d, m), line_no
                continue
            if len(tokens) != d:
                raise LatticeFileError(
                    line_no, f"expected {d} entries, got {len(tokens)}")
            try:
                try:    # one int pass, or _literal per token if int rejects
                    if not line.isascii() or "_" in line:
                        raise ValueError
                    row = tuple(map(int, tokens))
                except ValueError:
                    row = tuple(map(_literal, tokens))
            except (ValueError, ZeroDivisionError) as exc:
                raise LatticeFileError(
                    line_no, f"bad rational literal: {exc}")
            read[raw] = row
        rows.append(row)
        if len(rows) > m:
            raise LatticeFileError(line_no, f"more than {m} data rows")
    if header is None:
        raise LatticeFileError(1, "missing header line 'd m'")
    if len(rows) != header[1]:
        raise LatticeFileError(
            header_line,
            f"header promises {header[1]} rows, file has {len(rows)}")
    return header[0], header[1], rows


def _read_input(path: str) -> str:
    """The input's bytes decoded as strict UTF-8, whatever the locale, with
    line ends as they are."""
    try:
        if path != "-":
            with open(path, "rb") as fh:
                return fh.read().decode()
        if sys.stdin is None:       # started with standard input closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        if hasattr(sys.stdin, "buffer"):
            return sys.stdin.buffer.read().decode()
        # A text stream in place of stdin: a byte that is not UTF-8 arrives
        # as a lone surrogate, as a POSIX locale's stdin decodes it.
        text = sys.stdin.read()
        if not text.isascii():
            text = text.encode("utf-8", "surrogateescape").decode()
        return text
    except (OSError, UnicodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise UsageError(f"cannot read {path}: {reason}")


def _digest(text: str) -> str:
    return _sha256(text.encode()).hexdigest()[:16]


# Option readers; argparse reports an ArgumentTypeError as "argument --X: ...".

def _positive(value: str) -> Fraction:
    try:
        b = Fraction(_literal(value))
    except ExponentLimitError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {value!r}")
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"must be a rational number, got {value!r}")
    if b <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value!r}")
    return b


def _delta(value: str) -> ReductionParams:
    try:
        return ReductionParams(_positive(value))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _at_least(low: int):
    """The reader of an integer option value at or above ``low``."""
    def read(value: str) -> int:
        try:
            if (x := int(value)) >= low:
                return x
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"must be an integer at least {low}, got {value!r}")
    return read


def cmd_basis(args) -> None:
    text = _read_input(args.file)
    d, _, rows = parse_lattice_file(text)
    t0 = time.perf_counter()
    basis, trace = incremental_basis(rows, args.delta)
    t1 = time.perf_counter()
    lines = [
        f"# command: basis",
        f"# input: {_digest(text)}",
        f"# rank: {basis.rank}",
        f"# volume_sq: {format_scalar(basis.volume_sq)}",
        f"{d} {basis.rank}",
    ]
    lines += (format_vector(r, basis.scale) for r in basis.rows)
    if args.trace:
        for rec in trace.insertions:
            kind = "update" if rec.was_update else "member"
            lines.append(
                f"# insert i={rec.index} {kind} rank={rec.rank_after} "
                f"volume_sq={format_scalar(rec.volume_sq_after)}")
        lines.append(f"# update_count: {trace.update_count}")
        if basis.rank >= 1:
            value, holds = update_step_bound(rows, basis, trace, args.cap)
            lines.append(f"# bound_value: {value:.6f}")
            lines.append(f"# bound_holds: {'true' if holds else 'false'}")
        lines.append(f"# time_compute: {t1 - t0:.6f}")
    print("\n".join(lines))
    if args.verify:
        subset = generating_subset(rows, trace)
        # By transitivity, with one HNF of the distinct generators, which
        # generate the same lattice as all m.
        if not (lattice_equal(subset, basis)
                and lattice_equal(basis, dict.fromkeys(rows))):
            raise UsageError("basis does not match the HNF oracle",
                             EXIT_VERIFY, "verification failed")


def _input_lattice(args) -> tuple[str, int, list[tuple], IncrementalLattice,
                                  GeneratingSet]:
    """The input of ``minima`` and ``decompose``: the file's text,
    dimension and rows, the engine holding their reduced basis, and the
    complete set enumerated on it up to the bound.  The rows must be a
    basis: one to ``d`` of them (checked first), of full rank."""
    text = _read_input(args.file)
    d, m, rows = parse_lattice_file(text)
    if m == 0:
        raise UsageError("no basis vectors")
    if m > d:
        raise UsageError("more basis vectors than the dimension")
    lat = IncrementalLattice.from_generators(rows)
    if lat.rank < m:
        raise UsageError("basis vectors are linearly dependent")
    s = enumerate_up_to(EnumerationRequest(lat, args.bound_sq, args.cap))
    return text, d, rows, lat, s


def cmd_minima(args) -> None:
    text, d, rows, lat, s = _input_lattice(args)
    if not s.rows:
        raise UsageError("bound below first minimum", EXIT_BOUND)
    result = successive_minima(s, expected_rank=lat.rank)
    lines = [
        f"# command: minima",
        f"# input: {_digest(text)}",
        "# minima_sq: " + " ".join(map(format_scalar, result.minima_sq)),
        f"# rank: {result.rank}",
        f"# partial: {'true' if result.partial else 'false'}",
        f"{d} {result.rank}",
    ]
    lines += (format_vector(r, result.scale) for r in result.rows)
    print("\n".join(lines))
    if args.verify:
        oracle = greedy_minima_oracle(s)
        ok = oracle.minima_sq == result.minima_sq
        if ok and not result.partial:
            # The volume comes from the Bareiss check of LatticeBasis,
            # never from the engine the minima were found on.
            ok = minkowski_check(LatticeBasis(rows), result)
        if not ok:
            raise UsageError("oracle or Minkowski check", EXIT_VERIFY,
                             "verification failed")


def cmd_decompose(args) -> None:
    text, d, _, lat, s = _input_lattice(args)
    decomp = (orthogonal_decomposition(s, args.delta, lattice=lat)
              if s.rows else None)
    # s lies in L and the components are pairwise orthogonal: s generates L
    # iff their ranks sum to L's and their squared volumes multiply to L's.
    comps = decomp.components if decomp else ()
    if not comps or sum(c.rank for c in comps) != lat.rank or \
            math.prod(c.volume_sq for c in comps) != lat.volume_sq:
        raise UsageError(
            f"insufficient bound: the {len(s.rows)} enumerated vectors do "
            f"not generate the full rank-{lat.rank} lattice", EXIT_BOUND)
    lines = [
        f"# command: decompose",
        f"# input: {_digest(text)}",
        f"# r: {decomp.r}",
        "# indices: " + " ".join(str(i) for i in decomp.indices),
        f"{d} {lat.rank}",
    ]
    for j, comp in enumerate(decomp.components, start=1):
        lines.append(f"# component {j} rank {comp.rank}")
        lines.extend(format_vector(r, comp.scale) for r in comp.rows)
    print("\n".join(lines))
    if args.verify:
        # The oracle builds each component from its Hermite normal form
        # already, so its bases are its canonical forms.
        oracle = graph_decomposition_oracle(s)
        if canonical_component_forms(decomp) != \
                tuple(c.vectors for c in oracle.components):
            raise UsageError("graph oracle disagrees", EXIT_VERIFY,
                             "verification failed")


def random_instance(rng: random.Random, d: int, m: int, entry_range: int,
                    duplicates: bool) -> list[tuple[int, ...]]:
    """Random generator family; 'duplicates' draws all m vectors from a
    small pool so most insertions are localization-only."""

    def row() -> tuple[int, ...]:
        while True:
            v = tuple(rng.randint(-entry_range, entry_range)
                      for _ in range(d))
            if any(v):
                return v

    if duplicates:
        pool = [row() for _ in range(2 * d)]
        return [rng.choice(pool) for _ in range(m)]
    return [row() for _ in range(m)]


def bench_row(seed: int, d: int, m: int, entry_range: int,
              duplicates: bool, params: ReductionParams) -> dict:
    import random       # only bench draws instances: not at start-up
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
    if not lattice_equal(basis, batch_basis):
        raise UsageError("batch MLLL gives another lattice", EXIT_VERIFY,
                         "verification failed")
    value, holds = update_step_bound(gens, basis, trace)
    return {
        "seed": seed,
        "d": d,
        "m": m,
        "update_count": trace.update_count,
        "membership_tests": trace.localization_count,
        "theorem_bound": value,
        "bound_holds": holds,
        "t_incremental": t1 - t0,
        "t_batch_mlll": t2 - t1,
        "swaps_incremental": trace.swaps,
        "swaps_batch": batch.swaps,
    }


def cmd_bench(args) -> None:
    print("seed,d,m,update_count,theorem_bound,t_incremental,t_batch_mlll")
    cases = itertools.product(args.dims, args.gen_counts, range(args.reps))
    for idx, (d, m, _) in enumerate(cases):
        row = bench_row(args.seed + 1009 * idx, d, m, args.entry_range,
                        args.duplicates, args.delta)
        print(f"{row['seed']},{row['d']},{row['m']},"
              f"{row['update_count']},{row['theorem_bound']:.6f},"
              f"{row['t_incremental']:.6f},{row['t_batch_mlll']:.6f}")


class _Parser(argparse.ArgumentParser):
    """Its refusals, and its subparsers', raise ``UsageError`` for ``main``."""

    def error(self, message: str):
        raise UsageError(message)

    def _get_values(self, action, arg_strings):
        # Before 3.13 argparse drops the value of "--opt=--" and stores [].
        if action.option_strings and arg_strings == ["--"]:
            return self._get_value(action, "--")
        return super()._get_values(action, arg_strings)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after; its
    ``subcommands`` maps each subcommand's name to that command's parser
    (the ``choices`` of its subparsers action)."""
    parser = _Parser(
        prog="latkit",
        description="Exact incremental lattice algorithms: basis, "
                    "successive minima, orthogonal decomposition.")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices

    def delta(p):
        p.add_argument("--delta", type=_delta, default=DEFAULT_PARAMS,
                       help="Lovász parameter (rational, default 3/4)")

    def common(p, func, bound=False):
        p.add_argument("file", help="lattice file ('-' for stdin)")
        p.add_argument("--verify", action="store_true",
                       help="cross-check against the independent oracle")
        p.add_argument("--cap", type=_at_least(0), default=DEFAULT_CAP,
                       help="enumeration vector cap")
        if bound:
            g = p.add_mutually_exclusive_group(required=True)
            g.add_argument("--bound-sq", type=_positive, metavar="Q",
                           help="squared norm bound (rational)")
            g.add_argument("--bound", type=lambda v: _positive(v) ** 2,
                           dest="bound_sq", metavar="Q",
                           help="norm bound (rational; squared internally)")
        p.set_defaults(func=func)

    def ints(value: str) -> list[int]:      # comma-separated, each >= 1
        return list(map(_at_least(1), value.split(",")))

    p = sub.add_parser("basis", help="incremental lattice basis")
    p.add_argument("--trace", action="store_true",
                   help="print the localization/update trace and bound check")
    delta(p)
    common(p, cmd_basis)

    p = sub.add_parser("minima", help="successive minima")
    common(p, cmd_minima, bound=True)

    p = sub.add_parser("decompose", help="orthogonal decomposition")
    delta(p)
    common(p, cmd_decompose, bound=True)

    p = sub.add_parser("bench", help="incremental vs batch benchmark (CSV)")
    p.add_argument("--dims", type=ints, default=(4,))
    p.add_argument("--gen-counts", type=ints, default=(50, 100, 200))
    p.add_argument("--entry-range", type=_at_least(1), default=10)
    p.add_argument("--reps", type=_at_least(0), default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duplicates", action="store_true",
                   help="duplicates-heavy generator families")
    delta(p)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; the one place where a failure becomes an exit code
    and a line on stderr.

    ``argv`` defaults to ``sys.argv[1:]``.  When its first item names a
    subcommand, that command's parser reads the rest, the one parse the
    top-level parser would hand it; any other command line (empty, ``-h``,
    an unknown name, ``--``) goes to the top-level parser."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        parser = build_parser()
        command = parser.subcommands.get(argv[0]) if argv else None
        args = (command.parse_args(argv[1:]) if command
                else parser.parse_args(argv))
        try:
            args.func(args)
        finally:
            # A closed stdout fails here if no print has filled the buffer.
            if sys.stdout is not None:
                sys.stdout.flush()
        if sys.stdout is None:      # started with standard output closed
            raise UsageError("cannot write standard output: "
                             + os.strerror(errno.EBADF))
        return EXIT_OK
    except BrokenPipeError as exc:
        # The reader of stdout has exited.  What is left in the buffer goes
        # to the null device, so that the flush at exit cannot fail again.
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        code = EXIT_PARSE
        line = f"error: cannot write standard output: {exc.strerror}"
    except EnumerationCapExceeded as exc:
        code, line = EXIT_CAP, f"error: {exc}"
    except UsageError as exc:
        code, line = exc.code, f"{exc.prefix}: {exc}"
    try:
        print(line, file=sys.stderr)
    except OSError:
        # Stderr is closed too: its buffer goes to the null device as well.
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stderr.fileno())
        os.close(null)
    return code


if __name__ == "__main__":
    sys.exit(main())
