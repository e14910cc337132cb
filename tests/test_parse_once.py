"""``main`` parses a command line once: when its first item names a
subcommand, that command's parser reads the rest, which is the parse the
top-level parser would hand it.  Any other command line goes to the
top-level parser.  Here the golden command lines are parsed both ways, and
the command lines that name no subcommand, plus ``basis -h``, must give the
same exit code and output as the top-level parse alone.  The command lines
of ``test_cli.py`` are checked as they run (``conftest.parse_as_top_level``).
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from latkit import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
ARGVS = sorted({(c["command"], str(GOLDEN / "inputs" / c["input"]),
                 *c["options"])
                for c in json.loads((GOLDEN / "pins.json").read_text())})


class _Parsed(Exception):
    """Stops ``main`` once its parse is done."""


def main_namespace(argv, monkeypatch) -> dict:
    """The namespace of the parse ``main`` makes, from whichever parser."""
    plain = cli._Parser.parse_args

    def parse_args(self, args=None, namespace=None):
        raise _Parsed(plain(self, args, namespace))

    with monkeypatch.context() as mp:
        mp.setattr(cli._Parser, "parse_args", parse_args)
        with pytest.raises(_Parsed) as parsed:
            cli.main(list(argv))
    return vars(parsed.value.args[0])


@pytest.mark.parametrize("argv", ARGVS,
                         ids=[" ".join((a[0], Path(a[1]).name, *a[2:]))
                              for a in ARGVS])
def test_golden_command_lines_parse_as_at_top_level(argv, monkeypatch):
    want = vars(cli.build_parser().parse_args(argv))
    del want["command"]
    assert main_namespace(argv, monkeypatch) == want


def run(argv) -> tuple:
    """Exit code (``SystemExit``'s for a help request), stdout and stderr
    of one ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [[], ["-h"], ["--help"], ["nope"], ["--"],
                                  ["--", "basis"], ["basis", "-h"]],
                         ids=["empty", "-h", "--help", "unknown", "--",
                              "-- basis", "basis -h"])
def test_top_level_command_lines_are_unchanged(argv, monkeypatch):
    """The same exit code, stdout and stderr as when every command line
    goes through the top-level parser, which is what ``main`` does with an
    empty subcommand map."""
    got = run(argv)
    monkeypatch.setattr(cli.build_parser(), "subcommands", {})
    assert got == run(argv)
    code, out, err = got
    if argv in (["-h"], ["--help"], ["basis", "-h"]):
        assert code == ("SystemExit", 0)
        assert out.startswith(" ".join(["usage: latkit", *argv[:-1]]))
        assert err == ""
    else:
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
