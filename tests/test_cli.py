import codecs
import contextlib
import hashlib
import importlib
import io
import json
import locale
import math
import os
import re
import subprocess
import sys
import sysconfig
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from latkit import LatticeBasis, cli, enumerate_up_to, lattice_equal
from latkit.enumeration import EnumerationRequest
from latkit.cli import (
    EXIT_BOUND,
    EXIT_CAP,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VERIFY,
    LatticeFileError,
    format_scalar,
    format_vector,
    main,
    parse_lattice_file,
)
from latkit.decompose import graph_decomposition_oracle
from latkit.minima import MinimaResult, minkowski_check
from latkit.reduction import IncrementalLattice

import reference_format
import reference_parse

# Every command line these tests hand to main in this process is also
# parsed whole by the top-level parser, and the two must agree.
pytestmark = pytest.mark.usefixtures("parse_as_top_level")

# The package source, put on PYTHONPATH where a test starts a fresh
# interpreter.
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(args, tmp_path, content=None, capsys=None):
    if content is not None:
        path = tmp_path / "input.lat"
        path.write_text(content)
        args = [a if a != "FILE" else str(path) for a in args]
    return main(args)


Z2_REDUNDANT = "# comment line\n2 3\n1 0\n0 1\n1 1\n"
DIAG = "2 2\n1 0\n0 2\n"
Z2 = "2 2\n1 0\n0 1\n"
GCD = "1 2\n4\n6\n"
# 2Z^5 glued by (1,1,1,1,1), of norm 5: the vectors of squared norm at most
# 4 span it but generate only the index-2 sublattice 2Z^5.
GLUE5 = ("5 5\n2 0 0 0 0\n0 2 0 0 0\n0 0 2 0 0\n0 0 0 2 0\n"
         "1 1 1 1 1\n")


# Digits the parser may meet: ASCII, Arabic-Indic and fullwidth digits
# (Fraction reads any Unicode decimal digit), and two that are not decimal.
DIGITS = "0123456789" + "٠١٢٣٤" + "１９"
NOT_DIGITS = "½²"


@st.composite
def literal_tokens(draw):
    """Whitespace-free tokens: signed integers, fractions, decimals and
    exponents with leading zeros and '_' in any place, and free mixtures of
    their characters.  Exponents stay below five digits: Fraction('1e99999')
    builds a 100000-digit integer."""
    if draw(st.booleans()):
        alphabet = DIGITS + NOT_DIGITS + "+-_/.eEx"
        return draw(st.text(alphabet, min_size=1, max_size=6))
    chars = DIGITS[:10] if draw(st.booleans()) else DIGITS + "_"
    digits = st.text(chars, min_size=1, max_size=8)
    token = draw(st.sampled_from(["", "+", "-"])) + draw(digits)
    tail = draw(st.sampled_from(["", "/", ".", "e", "e-", "E+"]))
    if tail:
        token += tail + draw(digits if tail in "/." else
                             st.text(chars, min_size=1, max_size=3))
    return token


# Entries for files whose lines repeat: integer, rational, non-ASCII and
# '_' literals; then an exponent past the digit limit and two bad tokens.
POOL_TOKENS = ["0", "1", "-2", "+3", "007", "1/2", "-3/4", "1.5", "1_0",
               "\u0663", "\u0663/\u0664", "\uff11"]
POOL_BAD_TOKENS = ["1e5000", "x", "3/0"]


@st.composite
def repeating_lattice_files(draw):
    """A lattice file of 1-3 columns whose lines come from a small pool, so
    that they repeat: data rows, an indented and a CR LF copy of one row,
    comment and blank lines, and, in some files, that row with one entry
    too many and a line whose text is the header's.  The header promises
    the number of data lines, give or take one."""
    d = draw(st.integers(1, 3))
    tokens = st.sampled_from(
        POOL_TOKENS + draw(st.sampled_from([[], POOL_BAD_TOKENS])))
    row = st.lists(tokens, min_size=d, max_size=d).map(" ".join)
    rows = draw(st.lists(row, min_size=1, max_size=3))
    twin = rows[0]
    pool = [*rows, f"  {twin}", f"{twin}\r", "", "  ", "# note", "# HEADER"]
    if draw(st.booleans()):
        pool += [f"{twin} 1", "HEADER"]
    body = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=10))
    n = sum(bool(line.strip()) and not line.strip().startswith("#")
            for line in body)
    header = f"{d} {max(0, n + draw(st.sampled_from([0, 0, -1, 1])))}"
    lines = [line.replace("HEADER", header) for line in [header, *body]]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


class TestParsing:
    def test_round_trip(self):
        d, m, rows = parse_lattice_file("2 2\n1/2 -3\n0 7/5\n")
        assert (d, m) == (2, 2)
        assert rows == [(F(1, 2), F(-3)), (F(0), F(7, 5))]
        text = "\n".join([f"{d} {len(rows)}", *map(format_vector, rows)])
        assert parse_lattice_file(text)[2] == rows

    def test_comments_and_blanks_skipped(self):
        d, m, rows = parse_lattice_file("# hi\n\n1 1\n# mid\n5\n")
        assert rows == [(F(5),)]

    def test_comment_only_at_line_start(self):
        # An indented '#' starts a comment line; one after an entry is read
        # as an entry, as the README says.
        assert parse_lattice_file("2 1\n  # note\n1 2\n")[2] == [(1, 2)]
        with pytest.raises(LatticeFileError,
                           match=r"^line 2: expected 2 entries, got 4$"):
            parse_lattice_file("2 1\n1 2 # note\n")

    def test_bad_token(self):
        with pytest.raises(LatticeFileError) as err:
            parse_lattice_file("2 1\n1 2 x\n")
        assert "line 2" in str(err.value)

    def test_missing_rows(self):
        with pytest.raises(LatticeFileError):
            parse_lattice_file("2 2\n1 0\n")

    def test_missing_header(self):
        with pytest.raises(LatticeFileError):
            parse_lattice_file("# nothing here\n")

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(literal_tokens(), st.lists(
        literal_tokens(), min_size=2, max_size=4).map(" ".join)))
    @example("-0")
    @example("007")
    @example("+5")
    @example("1_000")
    @example("_1")
    @example("1__0")
    @example("1_")
    @example("١٢")
    @example("٣/٤")
    @example("1e3")
    @example("1.5")
    @example("3/0")
    @example("0x10")
    @example("9" * 5000)
    @example("-" + "9" * 4300)
    @example("1e4300")
    @example("1e-4300")
    @example("1e4301")
    @example("-1e-4301")
    @example("1.5E+4301")
    @example(".5e-4301")
    @example("١e٤٣٠١")
    @example("1e5000")
    @example("E5000")
    @example("-0 007 +5 12")
    @example("1 ٣/٤")
    @example("1/2 -3")
    @example("1 3/0")
    @example("1_0 2")
    @example("2 " + "9" * 5000)
    @example("--")
    def test_entry_equals_fraction_of_token(self, line):
        # A line of 1-4 tokens reads as _literal reads each token, with the
        # same type per entry, or fails with _literal's message: a line of
        # ASCII integers takes one int pass, any other line _literal.
        tokens = line.split()
        text = f"{len(tokens)} 1\n{line}\n"
        try:
            want = tuple(map(cli._literal, tokens))
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(LatticeFileError) as err:
                parse_lattice_file(text)
            assert str(err.value) == f"line 2: bad rational literal: {exc}"
        else:
            [row] = parse_lattice_file(text)[2]
            assert row == want
            assert list(map(type, row)) == list(map(type, want))
        if len(tokens) > 1:
            return
        # The parser's value of a token is Fraction(token), an int when it
        # is integral; where Fraction(token) raises, the parser reports the
        # same error type and message.  A well-formed decimal exponent past
        # the int-to-str digit limit is refused instead.  The parser reads a
        # rational option value alike, with its own messages.
        [token] = tokens

        def read_bound_sq():
            argv = ["minima", "FILE", f"--bound-sq={token}"]
            return cli.build_parser().parse_args(argv).bound_sq

        try:
            want = F(token)
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(LatticeFileError) as err:
                parse_lattice_file(f"1 1\n{token}\n")
            assert str(err.value) == f"line 2: bad rational literal: {exc}"
            assert type(err.value.__context__) is type(exc)
            with pytest.raises(cli.UsageError) as err:
                read_bound_sq()
            assert str(err.value) == (f"argument --bound-sq: must be a "
                                      f"rational number, got {token!r}")
            return
        *_, exponent = re.split("[eE]", token)
        limit = sys.get_int_max_str_digits()
        if exponent != token and abs(int(exponent)) > limit:
            with pytest.raises(LatticeFileError, match=(
                    r"^line 2: bad rational literal: decimal exponent "
                    r"exceeds the limit \(\d+\)$")):
                parse_lattice_file(f"1 1\n{token}\n")
            with pytest.raises(cli.UsageError) as err:
                read_bound_sq()
            assert str(err.value) == (
                f"argument --bound-sq: decimal exponent exceeds the limit "
                f"({limit}), got {token!r}")
            return
        [(got,)] = parse_lattice_file(f"1 1\n{token}\n")[2]
        assert got == want
        assert type(got) in (int, F)
        assert (type(got) is int) == bool(re.fullmatch(r"[+-]?[0-9]+", token))
        # Option values are read by the same code, and reach the library
        # as Fractions; a bound must be positive.
        if want <= 0:
            with pytest.raises(cli.UsageError) as err:
                read_bound_sq()
            assert str(err.value) == \
                f"argument --bound-sq: must be positive, got {token!r}"
            return
        option = read_bound_sq()
        assert option == want and type(option) is F

    @settings(max_examples=400, deadline=None)
    @given(repeating_lattice_files())
    @example("2 4\n1 2\n\n# note\n  1 2\n1 2\r\n1 2\n")
    @example("2 3\n1/2 \u0663\n1_0 1/2\n1/2 \u0663\n")
    @example("2 2\n2 2\n2 2\n")
    @example("1 1\n1 1\n")
    @example("2 3\n1 2\n1 2\n1 2 3\n")
    @example("2 1\n1 2\n1 2\n")
    @example("2 0\n# 2 0\n")
    @example("1 2\n3/0\n3/0\n")
    def test_repeated_lines_read_as_the_frozen_parser(self, text):
        # The parser reads a repeated data line once per file; it must
        # return what the frozen parser, which reads every line, returns,
        # with the same entry types, or raise the same error.
        try:
            want = reference_parse.parse_lattice_file(text)
        except LatticeFileError as exc:
            event("error")
            with pytest.raises(LatticeFileError) as err:
                parse_lattice_file(text)
            assert str(err.value) == str(exc)
            return
        got = parse_lattice_file(text)
        assert got == want
        assert [list(map(type, r)) for r in got[2]] == \
            [list(map(type, r)) for r in want[2]]
        event(f"repeated rows: {len(want[2]) > len(set(want[2]))}")

    def test_entries_are_int_or_fraction(self):
        _, _, rows = parse_lattice_file("2 3\n1/2 -3\n٣/٤ 007\n+5 -0\n")
        assert rows == [(F(1, 2), -3), (F(3, 4), 7), (5, 0)]
        assert [[type(c) for c in r] for r in rows] == \
            [[F, int], [F, int], [int, int]]

    def test_underscore_literal_exit_code(self, tmp_path, capsys):
        # Fraction accepts '_' separators from Python 3.11 on, int already
        # on 3.10; the parser follows Fraction.
        code = run_cli(["basis", "FILE"], tmp_path, "1 1\n1_000\n")
        want = EXIT_OK if sys.version_info >= (3, 11) else EXIT_PARSE
        assert code == want

    def test_format_scalar(self):
        assert format_scalar(F(3)) == "3"
        assert format_scalar(F(-1, 2)) == "-1/2"
        assert format_vector((F(1), F(2, 3))) == "1 2/3"


# 10**4300 + 1 has 4301 digits, one past the default int-to-str limit; 7
# does not divide it, so over scale 7 the numerator keeps all of them.
WIDE = 10 ** 4300 + 1


@settings(max_examples=300, deadline=None)
@example(row=[WIDE, -3, 0], scale=7)
@example(row=[0, -WIDE], scale=1)
@example(row=[3, -4, 0], scale=6)
@given(st.lists(st.integers(-40, 40) | st.integers(-10 ** 30, 10 ** 30),
                min_size=1, max_size=6),
       st.integers(1, 12))
def test_format_vector_of_rows_matches_frozen_printer(row, scale):
    """The printer of an integer row over a scale against the frozen
    printer of the Fraction vector row / scale."""
    want = reference_format.format_vector(tuple(F(c, scale) for c in row))
    assert format_vector(row, scale) == want


class TestBasisCommand:
    def test_reports_rank_and_updates(self, tmp_path, capsys):
        code = run_cli(["basis", "FILE", "--trace", "--verify"],
                       tmp_path, Z2_REDUNDANT)
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "# rank: 2" in out
        assert "# update_count: 2" in out
        assert "# bound_holds: true" in out

    @pytest.mark.parametrize("options", [[], ["--trace"], ["--verify"]])
    def test_zero_lattice_round_trips(self, options, tmp_path, capsys):
        """All-zero generators give the zero lattice: a header 'd 0' and no
        rows.  That output is a lattice file, and basis reads it back to
        the same lattice, with the same lines but for the input digest and
        the timing line."""
        code = run_cli(["basis", "FILE", *options], tmp_path,
                       "2 3\n0 0\n0 0\n-0 0/5\n")
        first = capsys.readouterr()
        assert code == EXIT_OK and first.err == ""
        assert parse_lattice_file(first.out) == (2, 0, [])
        code = run_cli(["basis", "FILE", *options], tmp_path, first.out)
        again = capsys.readouterr()
        assert code == EXIT_OK and again.err == ""

        def lines(out):
            return [line for line in out.splitlines() if not
                    line.startswith(("# input:", "# time_compute:"))]

        assert lines(again.out) == lines(first.out)
        assert "# rank: 0" in lines(first.out)

    def test_gcd_instance(self, tmp_path, capsys):
        code = run_cli(["basis", "FILE", "--trace"], tmp_path, GCD)
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "# rank: 1" in out
        assert "# update_count: 2" in out

    def test_trace_huge_entry(self, tmp_path, capsys):
        # B^2 / lambda_1^2 = 10^800 is far beyond the float range
        code = run_cli(["basis", "FILE", "--trace"], tmp_path,
                       f"1 2\n1\n{10**400}\n")
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "# bound_holds: true" in out
        value = float(out.split("# bound_value: ")[1].split()[0])
        assert value == pytest.approx(1 + 400 * math.log2(10))

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int-to-str digit limit")
    def test_values_past_the_digit_limit_print_in_full(self, tmp_path,
                                                       capsys):
        # A 4300-digit entry parses, at str(int)'s limit; the squared volume
        # has 8600 digits and the minimum 4400, and both print in full.
        big = 10**4300 - 1
        limit = sys.get_int_max_str_digits()
        for args, content, want in [
                (["basis", "FILE"], f"2 2\n{big} 1\n0 2\n",
                 ("# volume_sq: ", 4 * big**2)),
                (["basis", "FILE", "--verify", "--trace"],
                 f"2 2\n{big} 1\n0 2\n", ("# volume_sq: ", 4 * big**2)),
                (["minima", "FILE", "--bound", str(10**2200), "--verify"],
                 f"1 1\n{10**2200}\n", ("# minima_sq: ", 10**4400)),
                (["decompose", "FILE", "--bound", str(10**2200),
                  "--verify"], f"1 1\n{10**2200}\n", None)]:
            assert run_cli(args, tmp_path, content) == EXIT_OK
            out = capsys.readouterr().out
            assert sys.get_int_max_str_digits() == limit
            if want:
                prefix, value = want
                printed = next(line for line in out.splitlines()
                               if line.startswith(prefix))[len(prefix):]
                sys.set_int_max_str_digits(0)
                try:
                    assert F(printed) == value
                finally:
                    sys.set_int_max_str_digits(limit)
        # The parser still rejects what int() rejects.
        assert run_cli(["basis", "FILE"], tmp_path,
                       f"1 1\n{'9' * 5000}\n") == EXIT_PARSE

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int-to-str digit limit")
    def test_printer_leaves_the_digit_limit_alone(self, monkeypatch):
        # Past the limit the printer gives what str() gives with the limit
        # lifted, without writing the process-wide limit.
        values = [10**5000 + 7, -(10**5000 + 7), F(10**5000 + 1, 3)]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            want = [str(x) for x in values]
        finally:
            sys.set_int_max_str_digits(limit)

        def refuse(limit):
            raise AssertionError("the printer set the digit limit")

        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
        assert [format_scalar(x) for x in values] == want

    def test_output_is_reparseable(self, tmp_path, capsys):
        run_cli(["basis", "FILE"], tmp_path, Z2_REDUNDANT)
        out = capsys.readouterr().out
        d, m, rows = parse_lattice_file(out)
        assert (d, m) == (2, 2)

    def test_input_digest_is_sha256_prefix(self, tmp_path, capsys):
        run_cli(["basis", "FILE"], tmp_path, Z2_REDUNDANT)
        want = hashlib.sha256(Z2_REDUNDANT.encode()).hexdigest()[:16]
        assert f"# input: {want}" in capsys.readouterr().out.splitlines()

    def test_parse_error_exit_code(self, tmp_path, capsys):
        code = run_cli(["basis", "FILE"], tmp_path, "2 1\n1 2 x\n")
        assert code == EXIT_PARSE
        assert "line 2" in capsys.readouterr().err

    def test_verify_does_not_change_output(self, tmp_path, capsys):
        run_cli(["basis", "FILE"], tmp_path, Z2_REDUNDANT)
        plain = capsys.readouterr().out
        run_cli(["basis", "FILE", "--verify"], tmp_path, Z2_REDUNDANT)
        verified = capsys.readouterr().out
        assert plain == verified


class TestExitCodes:
    """Bad option values and unreadable input end in a one-line error and a
    documented exit code, never a traceback."""

    def _check(self, code, expected, capsys):
        err = capsys.readouterr().err
        assert code == expected
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_delta_above_one(self, tmp_path, capsys):
        code = run_cli(["basis", "FILE", "--delta", "2"],
                       tmp_path, Z2_REDUNDANT)
        self._check(code, EXIT_PARSE, capsys)

    def test_delta_quarter_in_decompose(self, tmp_path, capsys):
        code = run_cli(["decompose", "FILE", "--delta", "1/4",
                        "--bound-sq", "2"], tmp_path, DIAG)
        self._check(code, EXIT_PARSE, capsys)

    def test_delta_not_rational(self, tmp_path, capsys):
        code = run_cli(["basis", "FILE", "--delta", "x"],
                       tmp_path, Z2_REDUNDANT)
        self._check(code, EXIT_PARSE, capsys)

    @pytest.mark.parametrize("options", [
        ["--bound-sq", "1e4301"], ["--bound", "1e-4301"],
        ["--bound-sq", "2", "--delta", "75e-4302"],
        ["--bound-sq", " 2E+99999 "]])
    def test_exponent_option_past_digit_limit(self, options, tmp_path,
                                              capsys):
        code = run_cli(["decompose", "FILE", *options], tmp_path, DIAG)
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        name, value = options[-2:]
        limit = sys.get_int_max_str_digits()
        assert err == (f"error: argument {name}: decimal exponent exceeds "
                       f"the limit ({limit}), got {value!r}\n")

    @pytest.mark.parametrize("args, message", [
        (["basis", "FILE", "--cap", "x"],
         "argument --cap: must be an integer at least 0, got 'x'"),
        # Before Python 3.13 argparse drops the value of "--opt=--" unread.
        (["basis", "FILE", "--cap=--"],
         "argument --cap: must be an integer at least 0, got '--'"),
        (["minima", "FILE", "--bound-sq=--"],
         "argument --bound-sq: must be a rational number, got '--'"),
        (["minima", "FILE", "--bound-sq", "4", "--cap", "-1"],
         "argument --cap: must be an integer at least 0, got '-1'"),
        (["basis", "FILE", "--delta", "2"],
         "argument --delta: delta must satisfy 1/4 < delta <= 1"),
        (["decompose", "FILE", "--bound-sq", "4", "--delta", "1/0"],
         "argument --delta: must be a rational number, got '1/0'"),
        (["minima", "FILE", "--bound", "0"],
         "argument --bound: must be positive, got '0'"),
        (["decompose", "FILE", "--bound-sq=-1/2"],
         "argument --bound-sq: must be positive, got '-1/2'"),
        (["bench", "--dims", "3,0"],
         "argument --dims: must be an integer at least 1, got '0'"),
        (["bench", "--gen-counts", "4,x"],
         "argument --gen-counts: must be an integer at least 1, got 'x'"),
        (["bench", "--entry-range", "0"],
         "argument --entry-range: must be an integer at least 1, got '0'"),
        (["bench", "--reps", "-1"],
         "argument --reps: must be an integer at least 0, got '-1'"),
    ])
    def test_option_value_message(self, args, message, tmp_path, capsys):
        code = run_cli(args, tmp_path, DIAG)
        captured = capsys.readouterr()
        assert code == EXIT_PARSE
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_missing_file(self, tmp_path, capsys):
        code = main(["basis", str(tmp_path / "missing.lat")])
        self._check(code, EXIT_PARSE, capsys)

    @pytest.mark.skipif(
        codecs.lookup(locale.getpreferredencoding(False)).name != "utf-8",
        reason="files are read in the locale's encoding, here not UTF-8")
    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "bad.lat"
        path.write_bytes(b"1 1\n\xff\n")
        code = main(["basis", str(path)])
        self._check(code, EXIT_PARSE, capsys)

    def test_non_utf8_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            io.BytesIO(b"1 1\n\xff\n"), encoding="utf-8"))
        code = main(["basis", "-"])
        self._check(code, EXIT_PARSE, capsys)

    def test_closed_stdin(self, monkeypatch, capsys):
        # An interpreter started with stdin closed has sys.stdin None.
        monkeypatch.setattr(sys, "stdin", None)
        code = main(["basis", "-"])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == \
            "error: cannot read -: Bad file descriptor\n"

    def test_surrogate_escaped_stdin(self, monkeypatch, capsys):
        # Under a POSIX locale stdin decodes with surrogateescape, so the
        # byte 0xff in a comment arrives as "\udcff": the error is that of
        # decoding the original bytes, as for a file.
        monkeypatch.setattr(sys, "stdin", io.StringIO("# \udcff\n1 1\n3\n"))
        code = main(["basis", "-"])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == (
            "error: cannot read -: 'utf-8' codec can't decode byte 0xff in "
            "position 2: invalid start byte\n")

    @pytest.mark.parametrize("args", [
        ["basis", "FILE"], ["minima", "FILE", "--bound-sq", "4"],
        ["decompose", "FILE", "--bound-sq", "4"],
        ["bench", "--reps", "1", "--gen-counts", "6"]])
    def test_closed_stdout(self, args, monkeypatch, tmp_path, capsys):
        # An interpreter started with stdout closed has sys.stdout None,
        # where print writes nothing: the output would be lost.
        monkeypatch.setattr(sys, "stdout", None)
        code = run_cli(args, tmp_path, DIAG)
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == \
            "error: cannot write standard output: Bad file descriptor\n"

    @pytest.mark.parametrize("command", ["minima", "decompose"])
    def test_bound_sq_with_bound(self, command, tmp_path, capsys):
        code = run_cli([command, "FILE", "--bound-sq", "25", "--bound", "3"],
                       tmp_path, "1 1\n5\n")
        self._check(code, EXIT_PARSE, capsys)

    @pytest.mark.parametrize("command", ["minima", "decompose"])
    @pytest.mark.parametrize("content, message", [
        ("2 2\n2 2\n1 1\n", "basis vectors are linearly dependent"),
        ("2 2\n1 1\n0 0\n", "basis vectors are linearly dependent"),
        ("2 2\n0 0\n0 0\n", "basis vectors are linearly dependent"),
        ("2 3\n1 0\n0 1\n1 1\n", "more basis vectors than the dimension"),
        ("2 3\n1 1\n2 2\n3 3\n", "more basis vectors than the dimension"),
        ("1 2\n0\n0\n", "more basis vectors than the dimension"),
    ], ids=["dependent", "zero-row", "all-zero", "too-many",
            "too-many-dependent", "too-many-zero"])
    def test_input_not_a_basis(self, command, content, message, tmp_path,
                               capsys):
        code = run_cli([command, "FILE", "--bound-sq", "4"], tmp_path,
                       content)
        captured = capsys.readouterr()
        assert code == EXIT_PARSE
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["minima", "decompose"])
    def test_no_rows_is_not_a_basis(self, command, tmp_path, capsys):
        """A file with no rows is the zero lattice: it has no minima and no
        summands, so minima and decompose refuse it as they refuse any
        input that is not a basis, before an enumeration is set up."""
        code = run_cli([command, "FILE", "--bound-sq", "4", "--verify"],
                       tmp_path, "2 0\n")
        captured = capsys.readouterr()
        assert code == EXIT_PARSE
        assert captured.out == ""
        assert captured.err == "error: no basis vectors\n"

    def test_trace_cap_exceeded(self, tmp_path, capsys):
        code = run_cli(["basis", "FILE", "--trace", "--cap", "1"],
                       tmp_path, Z2_REDUNDANT)
        self._check(code, EXIT_CAP, capsys)

    def test_huge_bound_hits_cap(self, tmp_path, capsys):
        code = run_cli(["minima", "FILE", "--bound-sq", str(10**400),
                        "--cap", "10"], tmp_path, "1 1\n1\n")
        self._check(code, EXIT_CAP, capsys)

    @pytest.mark.parametrize("args, content", [
        (["basis", "FILE", "--trace"], Z2_REDUNDANT),
        (["minima", "FILE", "--bound-sq", "1"], "2 2\n1 0\n0 1\n"),
        (["decompose", "FILE", "--bound-sq", "4"], DIAG)],
        ids=["basis", "minima", "decompose"])
    def test_negative_cap(self, args, content, tmp_path, capsys):
        code = run_cli(args + ["--cap", "-1"], tmp_path, content)
        self._check(code, EXIT_PARSE, capsys)

    @pytest.mark.parametrize("option", ["--dims", "--gen-counts"])
    def test_bench_list_not_integer(self, option, capsys):
        code = main(["bench", option, "x", "--reps", "1"])
        self._check(code, EXIT_PARSE, capsys)

    @pytest.mark.parametrize("args", [
        ["--dims", "0"], ["--dims", "-2"], ["--dims", "3,0"],
        ["--gen-counts", "0"], ["--entry-range", "0"],
        ["--entry-range", "-1"], ["--reps", "-1"]])
    def test_bench_option_below_minimum(self, args, monkeypatch, capsys):
        def no_instance(*_):
            raise AssertionError("an instance was generated")

        monkeypatch.setattr(cli, "random_instance", no_instance)
        code = main(["bench", *args])
        self._check(code, EXIT_PARSE, capsys)

    def test_row_count_error_names_the_header_line(self, tmp_path, capsys):
        code = run_cli(["basis", "FILE"], tmp_path,
                       "# two rows\n\n2 3\n1 0\n0 1\n")
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == \
            "parse error: line 3: header promises 3 rows, file has 2\n"

    @pytest.mark.parametrize("content, message", [
        ("# header next\n2 x\n1 0\n",
         "line 2: header must be two integers 'd m'"),
        ("2\n1 0\n", "line 1: header must be two integers 'd m'"),
        ("2 1 1\n1 0\n", "line 1: header must be two integers 'd m'"),
        ("0 1\n\n", "line 1: header requires d>=1, m>=0"),
        ("\n2 0\n1 0\n", "line 3: more than 0 data rows"),
        ("2 -1\n1 0\n", "line 1: header requires d>=1, m>=0"),
        ("2 1\n1 0\n# one too many\n0 1\n", "line 4: more than 1 data rows"),
    ], ids=["header-token", "header-short", "header-long", "d-zero",
            "m-zero", "m-negative", "extra-row"])
    def test_bad_header_and_extra_rows(self, content, message, tmp_path,
                                       capsys):
        code = run_cli(["basis", "FILE"], tmp_path, content)
        captured = capsys.readouterr()
        assert code == EXIT_PARSE
        assert captured.out == ""
        assert captured.err == f"parse error: {message}\n"

    def test_minima_has_no_delta(self, tmp_path, capsys):
        code = run_cli(["minima", "FILE", "--bound-sq", "4", "--delta", "1/2"],
                       tmp_path, DIAG)
        assert "--delta" in capsys.readouterr().err
        assert code == EXIT_PARSE


DIAG_BASIS_OUT = """\
# command: basis
# input: 99c5f777612159b3
# rank: 2
# volume_sq: 4
2 2
1 0
0 2
"""
DIAG_MINIMA_OUT = """\
# command: minima
# input: 99c5f777612159b3
# minima_sq: 1 4
# rank: 2
# partial: false
2 2
-1 0
0 -2
"""
DIAG_DECOMPOSE_OUT = """\
# command: decompose
# input: 99c5f777612159b3
# r: 2
# indices: 1 2
2 2
# component 1 rank 1
-1 0
# component 2 rank 1
0 -2
"""


def _z2_oracle(s):
    """The graph oracle's answer for Z^2, whatever set it is given."""
    z2 = enumerate_up_to(EnumerationRequest(LatticeBasis([(1, 0), (0, 1)]),
                                            1))
    return graph_decomposition_oracle(z2)


class TestVerifyFailure:
    """An oracle that disagrees ends ``--verify`` in exit 3 and one error
    line, after the command has printed its full output."""

    @pytest.mark.parametrize("command, name, oracle, out, message", [
        ("basis", "lattice_equal", lambda a, b: False, DIAG_BASIS_OUT,
         "basis does not match the HNF oracle"),
        # Only the generating subset disagrees: the basis itself matches.
        ("basis", "lattice_equal",
         lambda a, b: isinstance(a, LatticeBasis), DIAG_BASIS_OUT,
         "basis does not match the HNF oracle"),
        ("minima", "greedy_minima_oracle",
         lambda s: MinimaResult((F(1), F(3)), (), 2), DIAG_MINIMA_OUT,
         "oracle or Minkowski check"),
        ("minima", "minkowski_check", lambda basis, result: False,
         DIAG_MINIMA_OUT, "oracle or Minkowski check"),
        ("decompose", "graph_decomposition_oracle", _z2_oracle,
         DIAG_DECOMPOSE_OUT, "graph oracle disagrees"),
    ], ids=["basis", "basis-subset", "minima-greedy", "minima-minkowski",
            "decompose"])
    def test_disagreeing_oracle_exits_3(self, command, name, oracle, out,
                                        message, tmp_path, monkeypatch,
                                        capsys):
        monkeypatch.setattr(cli, name, oracle)
        args = [command, "FILE", "--verify"]
        if command != "basis":
            args += ["--bound-sq", "4"]
        code = run_cli(args, tmp_path, DIAG)
        captured = capsys.readouterr()
        assert code == EXIT_VERIFY
        assert captured.out == out
        assert captured.err == f"verification failed: {message}\n"


class TestMinimaCommand:
    def test_printed_result_passes_minkowski(self, tmp_path, capsys):
        # A result built from the printed lines, as the benchmark's output
        # check builds one: minima and witnesses read back as Fractions.
        text = "3 3\n1/2 -3 5\n3/4 7 0\n0 5 1/2\n"
        code = run_cli(["minima", "FILE", "--bound-sq", "50"], tmp_path, text)
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        minima = tuple(map(F, lines[2].removeprefix("# minima_sq: ").split()))
        vectors = [tuple(map(F, line.split())) for line in lines[6:]]
        assert len(vectors) == len(minima) == 3
        assert any(c.denominator > 1 for v in vectors for c in v)
        result = MinimaResult(minima, tuple(vectors), len(minima))
        basis = LatticeBasis([tuple(map(F, r.split()))
                              for r in text.splitlines()[1:]])
        assert minkowski_check(basis, result)

    def test_diag(self, tmp_path, capsys):
        code = run_cli(["minima", "FILE", "--bound-sq", "4", "--verify"],
                       tmp_path, DIAG)
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "# minima_sq: 1 4" in out

    def test_unit_lattice(self, tmp_path, capsys):
        code = run_cli(["minima", "FILE", "--bound-sq", "1"],
                       tmp_path, "2 2\n1 0\n0 1\n")
        assert code == EXIT_OK
        assert "# minima_sq: 1 1" in capsys.readouterr().out

    def test_bound_flag_is_squared(self, tmp_path, capsys):
        code = run_cli(["minima", "FILE", "--bound", "2"], tmp_path, DIAG)
        assert code == EXIT_OK
        assert "# minima_sq: 1 4" in capsys.readouterr().out

    def test_bound_below_first_minimum(self, tmp_path, capsys):
        code = run_cli(["minima", "FILE", "--bound-sq", "1/2"],
                       tmp_path, DIAG)
        assert code == EXIT_BOUND

    def test_cap_exceeded(self, tmp_path):
        code = run_cli(["minima", "FILE", "--bound-sq", "4", "--cap", "3"],
                       tmp_path, DIAG)
        assert code == EXIT_CAP

    def test_cap_holds_exactly_the_set(self, tmp_path):
        # Z^2 has 8 vectors of squared norm at most 2: a cap of 8 holds
        # them, a cap of 7 is exceeded.
        args = ["minima", "FILE", "--bound-sq", "2", "--cap"]
        z2 = "2 2\n1 0\n0 1\n"
        assert run_cli([*args, "8"], tmp_path, z2) == EXIT_OK
        assert run_cli([*args, "7"], tmp_path, z2) == EXIT_CAP

    def test_verify_keeps_the_volume_off_the_engine(self, tmp_path,
                                                     monkeypatch, capsys):
        # The Minkowski check must take the squared volume from the input's
        # Bareiss determinant: an engine that misreports it changes nothing.
        monkeypatch.setattr(IncrementalLattice, "volume_sq",
                            property(lambda self: F(10**9)))
        code = run_cli(["minima", "FILE", "--bound-sq", "4", "--verify"],
                       tmp_path, DIAG)
        assert code == EXIT_OK
        assert "# minima_sq: 1 4" in capsys.readouterr().out

    def test_verify_huge_entry(self, tmp_path, capsys):
        entry = 10**300     # 301 digits: far beyond the float range squared
        code = run_cli(["minima", "FILE", "--bound-sq", str(10**600),
                        "--verify"], tmp_path, f"1 1\n{entry}\n")
        assert code == EXIT_OK
        assert f"# minima_sq: {entry**2}" in capsys.readouterr().out


class TestDecomposeCommand:
    def test_diag_two_components(self, tmp_path, capsys):
        code = run_cli(["decompose", "FILE", "--bound-sq", "4", "--verify"],
                       tmp_path, DIAG)
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "# r: 2" in out
        assert "# indices: 1 2" in out

    def test_d4_single_component(self, tmp_path, capsys):
        d4 = "4 4\n1 -1 0 0\n0 1 -1 0\n0 0 1 -1\n0 0 1 1\n"
        code = run_cli(["decompose", "FILE", "--bound-sq", "2", "--verify"],
                       tmp_path, d4)
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "# r: 1" in out
        assert "# indices: 1" in out

    def test_insufficient_bound(self, tmp_path):
        code = run_cli(["decompose", "FILE", "--bound-sq", "1"],
                       tmp_path, DIAG)
        assert code == EXIT_BOUND

    def test_verify_at_delta_one_half(self, tmp_path, capsys):
        # (1, 1, 2) joins the two orthogonal shortest vectors at any delta.
        code = run_cli(["decompose", "FILE", "--bound-sq", "6", "--delta",
                        "1/2", "--verify"], tmp_path,
                       "3 3\n2 0 0\n0 2 0\n1 1 2\n")
        assert code == EXIT_OK
        assert "# r: 1" in capsys.readouterr().out

    @pytest.mark.parametrize("content, bound_sq", [
        (GLUE5, "4"),                   # full rank, index 2
        ("2 2\n1 0\n1/2 1\n", "1"),    # rank 1, the same squared volume
    ], ids=["same-rank", "same-volume"])
    def test_insufficient_bound_needs_rank_and_volume(
            self, content, bound_sq, tmp_path, capsys):
        code = run_cli(["decompose", "FILE", "--bound-sq", bound_sq],
                       tmp_path, content)
        assert code == EXIT_BOUND
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("content, bound_sq, inserts", [
        (GLUE5, "4", 5),                        # full rank, index 2
        ("2 2\n1 0\n1/2 1\n", "1", 1),        # the same squared volume
        ("2 2\n1 0\n1/2 7/2\n", "4", 2),      # no integer target
        (Z2, "2", 2),                           # stops after (0, -1)
    ], ids=["same-rank", "same-volume", "no-integer-target", "stops"])
    def test_scan_stops_only_at_the_input_lattice(
            self, content, bound_sq, inserts, tmp_path, capsys, monkeypatch):
        """The scan inserts each enumerated row below zero until its
        lattice is the input's: where the set does not generate it, that is
        every such row (half the set, as the error line counts it) and the
        exit is 4; on Z^2 at bound 2 it is the first two of four."""
        rows = []
        original = IncrementalLattice.insert
        monkeypatch.setattr(IncrementalLattice, "insert",
                            lambda self, row: rows.append(row)
                            or original(self, row))
        code = run_cli(["decompose", "FILE", "--bound-sq", bound_sq],
                       tmp_path, content)
        err = capsys.readouterr().err
        assert len(rows) == inserts
        if code == EXIT_OK:
            assert content == Z2
            assert rows == [(-1, 0), (0, -1)]
            return
        assert code == EXIT_BOUND
        assert f"the {2 * inserts} enumerated vectors" in err


# Blocks of the orthogonal sums below: scaled copies of Z, Gauss-reduced
# rank-2 blocks, a scaled copy of D4 and the lattice of GLUE5.
BLOCKS = [[(2,)], [(3,)], [(2, 1), (-1, 2)], [(2, 1), (1, -2)],
          [(2, 0), (1, 3)], [(2, 1), (-2, 2)],
          [(2, -2, 0, 0), (0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 2, 2)],
          [(2, 0, 0, 0, 0), (0, 2, 0, 0, 0), (0, 0, 2, 0, 0),
           (0, 0, 0, 2, 0), (1, 1, 1, 1, 1)]]


@st.composite
def scrambled_blocks(draw):
    """An orthogonal sum of blocks of total rank at most 5, scrambled by
    unimodular row operations, with the largest squared norm of a block
    basis vector: the bound at which the enumeration reaches every block."""
    parts = draw(st.lists(st.sampled_from(BLOCKS), min_size=1, max_size=3)
                 .filter(lambda ps: sum(len(p) for p in ps) <= 5))
    n = sum(len(p) for p in parts)
    rows, offset = [], 0
    for p in parts:
        for v in p:
            rows.append([0] * offset + list(v) + [0] * (n - offset - len(v)))
        offset += len(p)
    bound = max(sum(c * c for c in r) for r in rows)
    if n > 1:
        for a, b, s in draw(st.lists(st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 2),
                st.sampled_from([-1, 1])), max_size=n)):
            b += b >= a     # any row other than a
            rows[a] = [x + s * y for x, y in zip(rows[a], rows[b])]
    return rows, bound


@settings(max_examples=60, deadline=None)
@given(scrambled_blocks(), st.data())
def test_decompose_exit_code_matches_hnf_decision(case, data):
    """``decompose`` exits 4 exactly when the enumerated vectors do not
    generate the input lattice, as the HNF oracle decides it; on exit 4 it
    prints nothing on stdout and one error line on stderr."""
    rows, bound = case
    bound_sq = data.draw(st.one_of(
        st.sampled_from([bound - 1, bound, bound + 1]),
        st.integers(1, 2 * bound)).filter(lambda b: b > 0))
    basis = LatticeBasis(rows)
    s = enumerate_up_to(EnumerationRequest(basis, bound_sq))
    want = EXIT_OK if s.vectors and lattice_equal(s, basis) else EXIT_BOUND
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.lat")
        with open(path, "w") as fh:
            fh.write("\n".join([f"{len(rows)} {len(rows)}",
                                *map(format_vector, basis.vectors)]))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["decompose", path, "--bound-sq", str(bound_sq)])
    assert code == want
    if code == EXIT_BOUND:
        assert out.getvalue() == ""
        assert err.getvalue() == (
            f"error: insufficient bound: the {len(set(s.vectors))} "
            f"enumerated vectors do not generate the full rank-{len(rows)} "
            "lattice\n")


# Entries of the exit-code fuzz: small values, wide ones (spelt with '_',
# or needing big-number arithmetic) and tokens the parser refuses (a zero
# denominator, infinity, an exponent past the digit limit); each file draws
# the last two kinds only sometimes, so that many files parse and have
# short vectors.
SMALL_TOKENS = ["0", "1", "-1", "2", "-2", "3/2", "-1/2", "١"]
WIDE_TOKENS = ["1_0", str(10 ** 30 + 7), "-" + "9" * 60]
BAD_TOKENS = ["1/0", "inf", "1e999999999"]


@st.composite
def lattice_files(draw):
    """A lattice file of 1-4 columns and 1-5 rows."""
    d = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
    tokens = st.sampled_from(
        SMALL_TOKENS + draw(st.sampled_from([[], WIDE_TOKENS]))
        + draw(st.sampled_from([[], BAD_TOKENS])))
    rows = [" ".join(draw(st.lists(tokens, min_size=d, max_size=d)))
            for _ in range(m)]
    return "\n".join([f"{d} {m}", *rows]) + "\n"


# Command lines the argument parser refuses: an unknown option, a value
# that is not an integer, an option the command does not have, both bounds,
# no bound, no file operand and a list item below its floor.
REFUSED = [["basis", "FILE", "--unknown"], ["basis", "FILE", "--cap", "x"],
           ["minima", "FILE", "--bound-sq", "2", "--delta", "1/2"],
           ["decompose", "FILE", "--bound-sq", "2", "--bound", "1"],
           ["minima", "FILE"], ["decompose", "--bound-sq", "2"],
           ["basis"], ["bench", "--dims", "3,0"]]


def refused_examples(test):
    """Run each refused command line once, as an explicit example; the
    random draws fuzz the file and the option values."""
    for line in REFUSED:
        test = example(DIAG, "basis", None, None, False, 2000, line)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(lattice_files(), st.sampled_from(["basis", "minima", "decompose"]),
       st.sampled_from(["2", "1", "5/2", "4", "9", None, "0", "-1", "1/0",
                        "inf"]),
       st.sampled_from([None, "3/4", "99/100", "1", "1/4", "0"]),
       st.booleans(), st.sampled_from([2000, 40, 1]),
       st.none())
@refused_examples
def test_main_returns_a_documented_exit_code(text, command, bound_sq, delta,
                                             verify, cap, refused):
    """On any lattice file and option values, ``main`` returns one of the
    documented exit codes instead of raising, and a failure writes one line
    on stderr; a command line the parser refuses returns 2 and one line
    ``error: ...``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.lat")
        with open(path, "w") as fh:
            fh.write(text)
        argv = [command, path, f"--cap={cap}"]
        if command != "basis" and bound_sq is not None:
            argv.append(f"--bound-sq={bound_sq}")
        if command != "minima" and delta is not None:
            argv.append(f"--delta={delta}")
        if verify:
            argv.append("--verify")
        if refused is not None:
            argv = [path if a == "FILE" else a for a in refused]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
    event(f"{command} exit {code}" if refused is None
          else f"refused: {' '.join(refused)}")
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_VERIFY, EXIT_BOUND, EXIT_CAP)
    assert err.getvalue().count("\n") == (code != EXIT_OK)
    if refused is not None:
        assert code == EXIT_PARSE
        assert err.getvalue().startswith("error: ")


class TestBenchCommand:
    def test_deterministic_instances(self, tmp_path, capsys):
        args = ["bench", "--dims", "3", "--gen-counts", "12", "--reps", "2",
                "--seed", "5", "--duplicates"]
        assert main(args) == EXIT_OK
        first = capsys.readouterr().out
        assert main(args) == EXIT_OK
        second = capsys.readouterr().out

        def stable(text):
            rows = [line.split(",") for line in text.strip().splitlines()]
            return [row[:5] for row in rows]  # drop timing columns

        assert stable(first) == stable(second)

    def test_header_and_row_count(self, capsys):
        main(["bench", "--dims", "2", "--gen-counts", "4,6", "--reps", "3",
              "--seed", "1"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ("seed,d,m,update_count,theorem_bound,"
                            "t_incremental,t_batch_mlll")
        assert len(lines) == 1 + 2 * 3

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
    def test_batch_basis_mismatch_exits_3(self, flags):
        """A batch basis that spans another lattice than the incremental
        one ends ``bench`` in exit 3 and one error line, also under ``-O``,
        which strips ``assert`` statements.  Run in a fresh interpreter, so
        that the flag applies to latkit's own modules."""
        code = ("import sys; from latkit import cli; "
                "cli.lattice_equal = lambda a, b: False; "
                "sys.exit(cli.main(['bench', '--dims', '2', "
                "'--gen-counts', '4', '--reps', '1']))")
        proc = subprocess.run(
            [sys.executable, *flags, "-c", code], capture_output=True,
            text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert proc.returncode == EXIT_VERIFY
        assert proc.stdout == ("seed,d,m,update_count,theorem_bound,"
                               "t_incremental,t_batch_mlll\n")
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("verification failed: ")


# Run in a fresh interpreter: the modules that importing latkit.cli and one
# verified decompose call load, by file origin, as the last line of stdout.
STDLIB_PROBE = """
import io, json, sys
before = set(sys.modules)
from latkit import cli
sys.stdin = io.StringIO("2 2\\n1 0\\n0 2\\n")
code = cli.main(["decompose", "-", "--bound-sq", "4", "--verify"])
new = [m for name, m in list(sys.modules.items()) if name not in before]
print(json.dumps([code, [m.__spec__.origin for m in new
                         if getattr(m, "__spec__", None)
                         and m.__spec__.has_location]]))
"""


class TestEntryPoint:
    def test_cli_does_not_load_hashlib(self):
        """The digest uses the builtin SHA-256 module where the interpreter
        has one, so a ``latkit`` process does not load OpenSSL."""
        code = ("import importlib.util, sys, latkit.cli; "
                "builtin = any(importlib.util.find_spec(m) "
                "for m in ('_sha2', '_sha256')); "
                "print(builtin, 'hashlib' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, check=True)
        builtin, loaded = proc.stdout.split()
        if builtin == "False":
            pytest.skip("this interpreter has no builtin SHA-256 module")
        assert loaded == "False"

    def test_loads_only_the_standard_library(self):
        """Importing ``latkit.cli`` and running a verified ``decompose``
        loads no module from outside the standard library and ``latkit``
        (the package has no dependencies).  Modules the interpreter loaded
        before the import, such as ``.pth`` hooks of ``site``, are not
        latkit's and are left out."""
        proc = subprocess.run(
            [sys.executable, "-c", STDLIB_PROBE], capture_output=True,
            text=True, check=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
        code, origins = json.loads(proc.stdout.splitlines()[-1])
        assert code == EXIT_OK
        stdlib = [Path(sysconfig.get_paths()[k]).resolve()
                  for k in ("stdlib", "platstdlib")]

        def allowed(origin):
            # Third-party packages install under the stdlib directory too.
            p = Path(origin).resolve()
            return p.is_relative_to(SRC / "latkit") or (
                any(map(p.is_relative_to, stdlib))
                and not {"site-packages", "dist-packages"} & set(p.parts))

        assert any(Path(o).resolve().is_relative_to(SRC / "latkit")
                   for o in origins)
        assert [o for o in origins if not allowed(o)] == []

    @pytest.mark.parametrize("args, content", [
        (["basis", "FILE"], "1 1\n1e999999999\n"),
        (["minima", "FILE", "--bound-sq", "1e999999999", "--cap", "5"],
         DIAG),
    ])
    def test_huge_exponent_exits_at_once(self, args, content, tmp_path):
        """An exponent far past the digit limit exits 2 with one error
        line, before any power of ten is formed.  Run in a subprocess with
        a timeout, so that a regression fails instead of hanging."""
        path = tmp_path / "input.lat"
        path.write_text(content)
        proc = subprocess.run(
            [sys.executable, "-m", "latkit.cli",
             *(str(path) if a == "FILE" else a for a in args)],
            capture_output=True, text=True, timeout=30,
            env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert proc.returncode == EXIT_PARSE
        assert proc.stdout == ""
        assert re.fullmatch(r"(parse )?error: [^\n]*\n", proc.stderr)

    @pytest.mark.parametrize("unbuffered", [False, True],
                             ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("args, content", [
        # Over 8 KB of output: a print fills the buffer of a buffered
        # stdout before the last flush.
        (["basis", "FILE", "--trace"], f"2 2\n{'9' * 4300} 1\n0 2\n"),
        (["minima", "FILE", "--bound-sq", "4"], DIAG),
        (["decompose", "FILE", "--bound-sq", "4", "--verify"], DIAG),
        (["bench", "--reps", "1", "--gen-counts", "6"], None),
    ], ids=["basis", "minima", "decompose", "bench"])
    def test_closed_stdout_exits_2(self, args, content, unbuffered,
                                   tmp_path):
        """A reader of stdout that has exited (``latkit ... | head -1``)
        ends the command in exit 2 and one error line, from a print or
        from the last flush; with stderr closed too, still in exit 2.  The
        read ends are closed before the run, where ``head`` would race the
        writer."""
        path = tmp_path / "input.lat"
        if content is not None:
            path.write_text(content)
        env = {k: v for k, v in os.environ.items()
               if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(SRC)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        argv = [sys.executable, "-m", "latkit.cli",
                *(str(path) if a == "FILE" else a for a in args)]
        out_read, out = os.pipe()
        err_read, err = os.pipe()
        os.close(out_read)
        os.close(err_read)
        try:
            proc = subprocess.run(argv, stdout=out, stderr=subprocess.PIPE,
                                  env=env, timeout=60)
            both = subprocess.run(argv, stdout=out, stderr=err, env=env,
                                  timeout=60)
        finally:
            os.close(out)
            os.close(err)
        assert proc.returncode == EXIT_PARSE
        assert proc.stderr == \
            b"error: cannot write standard output: Broken pipe\n"
        assert both.returncode == EXIT_PARSE

    def test_non_utf8_comment_on_stdin_exits_2(self, tmp_path):
        """The bytes that fail as a file fail alike on stdin, which the
        interpreter decodes with surrogateescape under the C locale."""
        path = tmp_path / "comment_ff.lat"
        path.write_bytes(b"1 1\n# \xff\n3\n")
        env = dict(os.environ, PYTHONPATH=str(SRC), LC_ALL="C")
        for var in ("PYTHONIOENCODING", "PYTHONUTF8"):
            env.pop(var, None)
        for name in ("-", str(path)):
            with path.open("rb") as stdin:
                proc = subprocess.run(
                    [sys.executable, "-m", "latkit.cli", "basis", name],
                    stdin=stdin, capture_output=True, env=env, timeout=60)
            assert proc.returncode == EXIT_PARSE
            assert proc.stdout == b""
            assert proc.stderr == (
                f"error: cannot read {name}: 'utf-8' codec can't decode "
                f"byte 0xff in position 6: invalid start byte\n").encode()

    @pytest.mark.parametrize("data", [
        b"# caf\xc3\xa9\n2 2\n1 0\n0 1\n",
        (Path(__file__).parent / "golden" / "inputs" / "mixed.lat")
        .read_bytes(),
    ], ids=["comment", "mixed.lat"])
    def test_utf8_input_whatever_the_locale(self, data, tmp_path):
        """Input is read as UTF-8 bytes under the C locale and under a
        non-UTF-8 stdio encoding: on stdin and as a path, each run prints
        what the run under a UTF-8 locale prints."""
        path = tmp_path / "input.lat"
        path.write_bytes(data)
        base = dict(os.environ, PYTHONPATH=str(SRC))
        for var in ("PYTHONIOENCODING", "PYTHONUTF8", "PYTHONCOERCECLOCALE"):
            base.pop(var, None)

        def run(name, **env):
            with path.open("rb") as stdin:
                proc = subprocess.run(
                    [sys.executable, "-m", "latkit.cli", "basis", name],
                    stdin=stdin, capture_output=True, env={**base, **env},
                    timeout=60)
            assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
            return proc.stdout

        want = run(str(path), LC_ALL="C.UTF-8")
        for env in ({"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
                     "PYTHONUTF8": "0"},
                    {"LC_ALL": "C.UTF-8", "PYTHONIOENCODING": "latin-1"}):
            for name in ("-", str(path)):
                assert run(name, **env) == want, (name, env)

    def test_module_entry_point(self, tmp_path):
        path = tmp_path / "z2.lat"
        path.write_text(Z2_REDUNDANT)
        proc = subprocess.run(
            [sys.executable, "-m", "latkit.cli", "basis", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "# rank: 2" in proc.stdout

    @pytest.mark.parametrize("command", [[], ["basis"], ["minima"],
                                         ["decompose"], ["bench"]],
                             ids=["latkit", "basis", "minima", "decompose",
                                  "bench"])
    def test_help_exits_0(self, command, capsys):
        """``--help`` prints the usage on stdout and nothing on stderr;
        argparse ends it with ``SystemExit(0)``, which ``main`` lets
        through to the interpreter."""
        with pytest.raises(SystemExit) as exc:
            main([*command, "--help"])
        captured = capsys.readouterr()
        assert exc.value.code == 0
        assert captured.out.startswith(" ".join(["usage: latkit", *command]))
        assert captured.err == ""

    def test_module_entry_point_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "latkit.cli", "--help"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert proc.returncode == EXIT_OK
        assert proc.stdout.startswith("usage: latkit")
        assert proc.stderr == ""

    @pytest.mark.skipif(os.name != "posix",
                        reason="closes a descriptor between fork and exec")
    @pytest.mark.parametrize("fd, args, line", [
        (0, ["basis", "-"], "error: cannot read -: Bad file descriptor"),
        (1, ["basis", "FILE"],
         "error: cannot write standard output: Bad file descriptor"),
    ], ids=["stdin", "stdout"])
    def test_closed_descriptor_exits_2(self, fd, args, line, tmp_path):
        """An interpreter started with descriptor 0 or 1 closed (``latkit
        basis - <&-``, ``latkit basis FILE >&-``) has ``sys.stdin`` or
        ``sys.stdout`` None, as ``test_closed_stdin`` and
        ``test_closed_stdout`` set it in-process: exit 2 and one error
        line."""
        path = tmp_path / "input.lat"
        path.write_text(Z2_REDUNDANT)
        proc = subprocess.run(
            [sys.executable, "-m", "latkit.cli",
             *(str(path) if a == "FILE" else a for a in args)],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            preexec_fn=lambda: os.close(fd))
        assert proc.returncode == EXIT_PARSE
        assert proc.stdout == ""
        assert proc.stderr == line + "\n"

    def test_script_declaration_names_main(self):
        """``pyproject.toml`` declares the ``latkit`` executable as
        ``latkit.cli:main``, which imports to the ``main`` the tests call.
        The line is read with a regex: Python 3.10 has no ``tomllib``."""
        text = (Path(__file__).resolve().parent.parent
                / "pyproject.toml").read_text()
        scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        m = re.fullmatch(r'latkit = "([\w.]+):(\w+)"', scripts.strip())
        assert m, scripts
        assert getattr(importlib.import_module(m[1]), m[2]) is main
