"""Write the golden inputs and pins that ``tests/test_golden.py`` checks.

Run from the repository root, on the commit whose output is to be pinned:

    PYTHONPATH=src python3 tests/golden/pin.py

The inputs are the first five ``basis-update`` and ``basis-member``
instances and the first ten ``minima-blocks`` and ``decompose-blocks``
instances of ``perfbench/corpus.py`` at seed 1, plus the small hand-written
files of ``HAND_INPUTS``.  Each pin is the exit code, stdout without
its ``# time_compute:`` line, and stderr of one ``latkit.cli.main`` call.
Re-pin only for a deliberate output change, and say so where the change is
described.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from latkit import cli

HERE = Path(__file__).resolve().parent

# Small inputs written by hand, each for one path through the program, and
# the squared norm bound minima/decompose run at; a generating set with more
# rows than its dimension (no bound) runs under basis only.  The pins are
# the one statement of what latkit prints for them: a deliberate output
# change is re-pinned here and nowhere else.
HAND_INPUTS = {
    # Rational entries put the rows over scale 2; (1/2, 1/2, 1) joins the
    # two unit components.
    "half.lat": ("3 3\n1 0 0\n0 1 0\n1/2 1/2 1\n", "3/2"),
    # The engine runs coarse.lat at scale 2; the set enumerated on it up to
    # squared norm 1 is {(1, 0), (-1, 0)}, at scale 1.
    "coarse.lat": ("2 2\n1 0\n1/2 9\n", "1"),
    # Indecomposable rank-3 block whose two shortest vectors are
    # orthogonal: (1, 1, 2) joins both.
    "joined.lat": ("3 3\n2 0 0\n0 2 0\n1 1 2\n", "6"),
    # Rank 2 in dimension 3 over scale 2: the minima scan stops at the
    # second minimum, the rank of the input.
    "rank2_half.lat": ("3 2\n1/2 1/2 0\n0 0 1\n", "4"),
    # Two rank-1 components at two scales: the merge's both sit at scale 2,
    # the oracle's at 2 and 1.  The order does not read the scales:
    # (-1/2, 0), the shorter least vector, comes first.  The minima
    # witnesses print over the set's scale 2; (0, -1) is integral there.
    "cross.lat": ("2 2\n1/2 0\n0 1\n", "1"),
    # Integer and rational literals mixed, with signs, leading zeros and
    # Arabic-Indic digits; the printed digits at scale above 1, which
    # --verify does not check.
    "mixed.lat": ("3 3\n1/2 -3 +5\n\u0663/\u0664 007 -0\n-0 +5 1/2\n", "50"),
    # Rows repeated and negated; basis records a repeat as a member without
    # running the membership test.
    "pool.lat": ("3 8\n1 2 3\n-1 -2 -3\n0 1 1\n1 2 3\n0 -1 -1\n2 4 6\n"
                 "1 3 4\n-1 -2 -3\n", None),
    # Lines of ASCII integers (signs, leading zeros, -0) take one int pass;
    # the Arabic-Indic line goes through each token's literal.
    "intlines.lat": ("3 4\n-0 014 +10\n4 -6 02\n\u0663 9 -12\n-8 +0 -16\n",
                     None),
    # Every row is an update: (1, 1, 0) and (1, 0, 0) rebuild at rank 2,
    # (0, 0, 3) raises the rank and (0, 1, 1) rebuilds at rank 3.
    "rebuilds.lat": ("3 6\n2 0 0\n0 2 0\n1 1 0\n1 0 0\n0 0 3\n0 1 1\n",
                     None),
    # Once the rows span Z^3 (at i=3), or Z^2 over scale 2 (half_z2.lat, at
    # i=1), every later row is a member with no localization arithmetic;
    # the trace reads as it did when each was localized.
    "z3.lat": ("3 7\n2 1 1\n1 1 0\n0 1 1\n5 7 9\n-5 -7 -9\n2 1 1\n"
               "3 -4 8\n", None),
    "half_z2.lat": ("2 4\n1/2 0\n1/2 1/2\n3/2 -1/2\n1 1\n", None),
    # Components come in the order of their least vectors: at equal norm 9,
    # (-3, 0) precedes (0, -3) lexicographically, where their Hermite
    # normal forms, (3, 0) and (0, 3), order the other way.
    "axes.lat": ("2 2\n0 3\n3 0\n", "9"),
    # rank2_half.lat at scale 1.
    "rank2.lat": ("3 2\n1 1 0\n0 0 2\n", "4"),
    # One row spelled three ways, then written again after a comment, and
    # a zero row twice: the parser reads a repeated line once, basis
    # integerizes and localizes a repeated generator once, and a zero row
    # leaves no trace record.
    "repeats.lat": ("3 8\n1 2 3\n  1 2 3\n0 0 0\n+1 2 3\n0 1 1\n"
                    "# the first row again\n1 2 3\n0 0 0\n2 0 1\n", None),
}


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout without ``# time_compute:`` and stderr of one
    ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    stdout = "".join(line for line in out.getvalue().splitlines(True)
                     if not line.startswith("# time_compute:"))
    return code, stdout, err.getvalue()


def calls(command: str, bound: str | None) -> list[list[str]]:
    """The option lists pinned for one input under one command."""
    if command == "basis":
        return [[], ["--trace"], ["--verify"]]
    half = str(Fraction(bound) / 2)
    return [["--bound-sq", bound], ["--bound-sq", bound, "--verify"],
            ["--bound-sq", half]]


def main() -> None:
    sys.path.insert(0, str(HERE.parents[1]))
    from perfbench.corpus import make_corpus

    inputs: list[tuple[str, str, list[str], str | None]] = []
    for workload, size in (("basis-update", 5), ("basis-member", 5),
                           ("minima-blocks", 10), ("decompose-blocks", 10)):
        for inst in make_corpus(workload, 1, size):
            bound = inst.args[2] if len(inst.args) > 1 else None
            inputs.append((f"{inst.name}.lat", inst.text, [inst.args[0]],
                           bound))
    for name, (text, bound) in HAND_INPUTS.items():
        commands = ["basis", "minima", "decompose"] if bound else ["basis"]
        inputs.append((name, text, commands, bound))
    cases = []
    for name, text, commands, bound in inputs:
        path = HERE / "inputs" / name
        path.write_text(text, encoding="utf-8")
        for command in commands:
            for options in calls(command, bound):
                code, stdout, stderr = run(
                    [command, str(path), *options])
                cases.append({"input": name, "command": command,
                              "options": options, "exit": code,
                              "stdout": stdout, "stderr": stderr})
    with open(HERE / "pins.json", "w") as fh:
        json.dump(cases, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
