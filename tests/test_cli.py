import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import sysconfig
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latkit import LatticeBasis, cli, enumerate_up_to, lattice_equal
from latkit.enumeration import EnumerationRequest
from latkit.cli import (
    EXIT_BOUND,
    EXIT_CAP,
    EXIT_OK,
    EXIT_PARSE,
    LatticeFileError,
    format_scalar,
    format_vector,
    main,
    parse_lattice_file,
    render_lattice,
)


def run_cli(args, tmp_path, content=None, capsys=None):
    if content is not None:
        path = tmp_path / "input.lat"
        path.write_text(content)
        args = [a if a != "FILE" else str(path) for a in args]
    return main(args)


Z2_REDUNDANT = "# comment line\n2 3\n1 0\n0 1\n1 1\n"
DIAG = "2 2\n1 0\n0 2\n"
GCD = "1 2\n4\n6\n"
# 2Z^5 glued by (1,1,1,1,1), of norm 5: the vectors of squared norm at most
# 4 span it but generate only the index-2 sublattice 2Z^5.
GLUE5 = ("5 5\n2 0 0 0 0\n0 2 0 0 0\n0 0 2 0 0\n0 0 0 2 0\n"
         "1 1 1 1 1\n")


class TestParsing:
    def test_round_trip(self):
        d, m, rows = parse_lattice_file("2 2\n1/2 -3\n0 7/5\n")
        assert (d, m) == (2, 2)
        assert rows == [(F(1, 2), F(-3)), (F(0), F(7, 5))]
        text = "\n".join(render_lattice(rows, d))
        assert parse_lattice_file(text)[2] == rows

    def test_comments_and_blanks_skipped(self):
        d, m, rows = parse_lattice_file("# hi\n\n1 1\n# mid\n5\n")
        assert rows == [(F(5),)]

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

    def test_format_scalar(self):
        assert format_scalar(F(3)) == "3"
        assert format_scalar(F(-1, 2)) == "-1/2"
        assert format_vector((F(1), F(2, 3))) == "1 2/3"


class TestBasisCommand:
    def test_reports_rank_and_updates(self, tmp_path, capsys):
        code = run_cli(["basis", "FILE", "--trace", "--verify"],
                       tmp_path, Z2_REDUNDANT)
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "# rank: 2" in out
        assert "# update_count: 2" in out
        assert "# bound_holds: true" in out

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

    def test_missing_file(self, tmp_path, capsys):
        code = main(["basis", str(tmp_path / "missing.lat")])
        self._check(code, EXIT_PARSE, capsys)

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

    def test_minima_has_no_delta(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["minima", "FILE", "--bound-sq", "4", "--delta", "1/2"],
                    tmp_path, DIAG)
        assert exc.value.code == EXIT_PARSE
        assert "--delta" in capsys.readouterr().err


class TestMinimaCommand:
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
            fh.write("\n".join(render_lattice(basis.vectors, len(rows))))
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
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", STDLIB_PROBE], capture_output=True,
            text=True, check=True, env=dict(os.environ, PYTHONPATH=str(src)))
        code, origins = json.loads(proc.stdout.splitlines()[-1])
        assert code == EXIT_OK
        stdlib = [Path(sysconfig.get_paths()[k]).resolve()
                  for k in ("stdlib", "platstdlib")]

        def allowed(origin):
            # Third-party packages install under the stdlib directory too.
            p = Path(origin).resolve()
            return p.is_relative_to(src / "latkit") or (
                any(map(p.is_relative_to, stdlib))
                and not {"site-packages", "dist-packages"} & set(p.parts))

        assert any(Path(o).resolve().is_relative_to(src / "latkit")
                   for o in origins)
        assert [o for o in origins if not allowed(o)] == []

    def test_console_script_installed(self, tmp_path):
        path = tmp_path / "z2.lat"
        path.write_text(Z2_REDUNDANT)
        proc = subprocess.run(
            [sys.executable, "-m", "latkit.cli", "basis", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "# rank: 2" in proc.stdout
