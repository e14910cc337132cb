"""Write the golden inputs and pins that ``tests/test_golden.py`` checks.

Run from the repository root, on the commit whose output is to be pinned:

    PYTHONPATH=src python3 tests/golden/pin.py

The inputs are the first five ``basis-update`` and ``basis-member``
instances and the first ten ``minima-blocks`` and ``decompose-blocks``
instances of ``perfbench/corpus.py`` at seed 1, plus the small files of the
CI job whose output it checks.  Each pin is the exit code, stdout without
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

# CI inputs and the squared norm bound CI runs minima/decompose at; a
# generating set with more rows than its dimension (no bound) runs under
# basis only.
CI_INPUTS = {
    "half.lat": ("3 3\n1 0 0\n0 1 0\n1/2 1/2 1\n", "3/2"),
    "coarse.lat": ("2 2\n1 0\n1/2 9\n", "1"),
    "joined.lat": ("3 3\n2 0 0\n0 2 0\n1 1 2\n", "6"),
    "rank2_half.lat": ("3 2\n1/2 1/2 0\n0 0 1\n", "4"),
    "cross.lat": ("2 2\n1/2 0\n0 1\n", "1"),
    "mixed.lat": ("3 3\n1/2 -3 +5\n\u0663/\u0664 007 -0\n-0 +5 1/2\n", "50"),
    "pool.lat": ("3 8\n1 2 3\n-1 -2 -3\n0 1 1\n1 2 3\n0 -1 -1\n2 4 6\n"
                 "1 3 4\n-1 -2 -3\n", None),
    "intlines.lat": ("3 4\n-0 014 +10\n4 -6 02\n\u0663 9 -12\n-8 +0 -16\n",
                     None),
    "rebuilds.lat": ("3 6\n2 0 0\n0 2 0\n1 1 0\n1 0 0\n0 0 3\n0 1 1\n",
                     None),
    "z3.lat": ("3 7\n2 1 1\n1 1 0\n0 1 1\n5 7 9\n-5 -7 -9\n2 1 1\n"
               "3 -4 8\n", None),
    "half_z2.lat": ("2 4\n1/2 0\n1/2 1/2\n3/2 -1/2\n1 1\n", None),
    "axes.lat": ("2 2\n0 3\n3 0\n", "9"),
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
    for name, (text, bound) in CI_INPUTS.items():
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
