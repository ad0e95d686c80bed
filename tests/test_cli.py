"""CLI front end: problem-file parsing, deriv/solve/check commands, CSV
format, exit codes, determinism."""

import argparse
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import speculus.cli as cli
from speculus.cli import (
    EXIT_CHECK_FAIL,
    EXIT_MATH_DOMAIN,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    ProblemFileError,
    cmd_check,
    cmd_deriv,
    cmd_solve,
    fmt,
    load_problem,
    main,
    parse_problem_file,
)
import speculus.piecewise as piecewise
import speculus.specular as specular
from speculus.expr import Expr, ExprError
from speculus.piecewise import PiecewiseFn
from speculus.specular import partial_field
from speculus.waves import hypothesis_h_check, transport_operator, transport_operator_many

REPO = Path(__file__).resolve().parents[1]
PROBLEMS = REPO / "problems"
# fixture outputs recorded by perfbench/make_reference.py
REFERENCE = json.loads((REPO / "perfbench" / "reference.json").read_text(encoding="utf-8"))
# full deriv stdout, both axes, at off-line points, on-line points and line
# crossings of corner2d and table2d, recorded while from_expression still
# pinned every sign pattern at construction
DERIV_REFERENCE = json.loads((REPO / "tests" / "deriv_reference.json").read_text(encoding="utf-8"))


def run(argv):
    out = io.StringIO()
    old = sys.stdout
    sys.stdout = out
    try:
        code = main(argv)
    finally:
        sys.stdout = old
    return code, out.getvalue()


def kv(text):
    pairs = {}
    for line in text.splitlines():
        if " = " in line:
            k, v = line.split(" = ", 1)
            pairs[k.strip()] = v.strip()
    return pairs


class TestProblemFileParsing:
    def test_sections_and_keys(self):
        sections = parse_problem_file(
            "[problem]\nkind = wave\nphi = 0\npsi = 0\n"
            "[grid]\nx-range = -1, 1\nnx = 5\n"
        )
        assert "problem" in sections and "grid" in sections
        assert sections["problem"].values["kind"] == "wave"
        # hyphens in keys normalize to underscores
        assert sections["grid"].values["x_range"] == "-1, 1"

    def test_repeated_keys_collect(self):
        sections = parse_problem_file(
            "[problem]\nkind = wave\nphi = 0\npsi = 0\n"
            "[f]\nvars = x, t\nforms = x - t\nbranch = + : 1\nbranch = - : 0\n"
        )
        assert len(sections["f"].repeated["branch"]) == 2

    def test_unknown_kind_rejected(self, tmp_path):
        p = tmp_path / "bad.prob"
        p.write_text("[problem]\nkind = heat\nphi = 0\npsi = 0\n")
        with pytest.raises(ProblemFileError):
            load_problem(str(p))

    def test_bad_expression_exit_2(self, tmp_path):
        p = tmp_path / "bad.prob"
        p.write_text("[problem]\nu = x^2/(x+1\nvars = x\n")
        code, _ = run(["check", str(p)])
        assert code == EXIT_PARSE

    def test_superscript_digit_exit_2(self, tmp_path, capsys):
        """'²' is a digit to str.isdigit but not to float: it is no number."""
        p = tmp_path / "sup.prob"
        p.write_text("[problem]\nu = 2²*abs(x)\nvars = x, y\n", encoding="utf-8")
        code, _ = run(["check", str(p)])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == "error: unexpected character '²' (offset 1)\n"

    def test_uncovered_region_exit_2(self, tmp_path, capsys):
        p = tmp_path / "gap.prob"
        p.write_text(
            "[problem]\nu = @g\n"
            "[g]\nvars = x, y\nforms = x; y\n"
            "branch = ++ : 1\nbranch = +- : 2\nbranch = -+ : 3\n"
        )
        code, _ = run(["check", str(p)])
        err = capsys.readouterr().err
        assert code == EXIT_PARSE
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_uncovered_region_far_from_origin_exit_2(self, tmp_path, capsys):
        p = tmp_path / "far.prob"
        p.write_text("[problem]\nu = @g\n[g]\nvars = x\nforms = x - 20000\nbranch = - : 0\n")
        code, _ = run(["check", str(p)])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: no branch covers")

    def test_missing_file_exit_2(self):
        code, _ = run(["check", "no/such/file.prob"])
        assert code == EXIT_PARSE


class TestDeriv:
    def test_table_crossing_point(self):
        out = io.StringIO()
        code = cmd_deriv(f"{PROBLEMS}/table2d.prob", "3,6", "x", out=out)
        assert code == EXIT_OK
        pairs = kv(out.getvalue())
        assert float(pairs["alpha"]) == 3.0
        assert float(pairs["beta"]) == -3.0
        assert float(pairs["specular"]) == 0.0

    def test_corner_prints_four_planes(self):
        out = io.StringIO()
        code = cmd_deriv(f"{PROBLEMS}/corner2d.prob", "0,0", "x", out=out)
        assert code == EXIT_OK
        text = out.getvalue()
        pairs = kv(text)
        assert float(pairs["alpha"]) == 1.0
        assert float(pairs["beta"]) == 0.0
        assert float(pairs["specular"]) == pytest.approx(math.sqrt(2) - 1)
        assert float(pairs["criterion_residual"]) == pytest.approx(
            math.sqrt(5) - 2 * math.sqrt(2) - 3, abs=1e-12
        )
        assert pairs["weak_planes"] == "4"
        assert text.count("plane: z =") == 4

    def test_smooth_point_classical(self, tmp_path):
        p = tmp_path / "smooth.prob"
        p.write_text("[problem]\nu = x^2*y\nvars = x, y\n")
        out = io.StringIO()
        code = cmd_deriv(str(p), "2,3", "x", out=out)
        assert code == EXIT_OK
        pairs = kv(out.getvalue())
        assert float(pairs["specular"]) == pytest.approx(12.0)
        assert "normal" in pairs

    def test_math_domain_exit_3(self, tmp_path):
        p = tmp_path / "dom.prob"
        p.write_text("[problem]\nu = sqrt(x)\nvars = x\n")
        code, _ = run(["deriv", str(p), "--point", "-4", "--axis", "x"])
        assert code == EXIT_MATH_DOMAIN

    def test_point_outside_domain_exit_3(self, capsys):
        # the half-line solution lives on x > 0
        code, _ = run(["deriv", str(PROBLEMS / "halfline.prob"), "--point=-1,1", "--axis", "x"])
        err = capsys.readouterr().err
        assert code == EXIT_MATH_DOMAIN
        assert err.startswith("math-domain error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("func, message", [
        ("sin", "cos of infinite value inf"), ("cos", "sin of infinite value inf")])
    def test_trig_of_infinity_exit_3(self, func, message, tmp_path, capsys):
        # 10^300*10^300 overflows to inf without raising; the first value
        # deriv needs is the x-partial, where sin' = cos and cos' = -sin
        p = tmp_path / "trig.prob"
        p.write_text(f"[problem]\nu = {func}(10^300*10^300*x) + abs(y)\nvars = x, y\n")
        code, _ = run(["deriv", str(p), "--point=1,1", "--axis", "y"])
        assert code == EXIT_MATH_DOMAIN
        assert capsys.readouterr().err == f"math-domain error: {message}\n"

    @pytest.mark.parametrize(
        "u, point",
        [
            ("exp(700*x)*exp(700*x)*abs(x-1)", "1"),  # non-finite semi-derivative
            ("(x^2)^200*abs(x-1)", "1e100"),  # a power overflows
        ],
    )
    def test_overflow_exit_3(self, u, point, tmp_path, capsys):
        p = tmp_path / "big.prob"
        p.write_text(f"[problem]\nu = {u}\nvars = x\n")
        code, _ = run(["deriv", str(p), f"--point={point}", "--axis", "x"])
        err = capsys.readouterr().err
        assert code == EXIT_MATH_DOMAIN
        assert err.startswith("math-domain error: ") and err.count("\n") == 1


def count_semi_derivatives(monkeypatch):
    """A list whose length is the number of ``semi_derivative_one_sided``
    calls made from now on."""
    calls = []
    real = specular.semi_derivative_one_sided

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(specular, "semi_derivative_one_sided", spy)
    return calls


class TestSemiDerivativeWork:
    """Each semi-derivative pair is computed once per point and axis."""

    @pytest.mark.parametrize("name, point", [("table2d", "3,6"), ("corner2d", "0,0")])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_deriv_2d(self, name, point, axis, monkeypatch):
        calls = count_semi_derivatives(monkeypatch)
        assert cmd_deriv(str(PROBLEMS / f"{name}.prob"), point, axis, out=io.StringIO()) == EXIT_OK
        assert len(calls) == 4  # 6 when the tangent code recomputed both pairs

    @pytest.mark.parametrize("name, count", [
        pytest.param("halfline", 72, id="halfline-288"),
        pytest.param("wave_fullline", 48, id="wave_fullline-144"),
        pytest.param("counterexample", 24, id="counterexample-144"),
    ])
    def test_hypothesis_h_check(self, name, count, monkeypatch):
        """Two pairs per edge sample.  The id holds the count of the
        box-sampled check with the pairs computed twice."""
        u = cli.solve_problem(load_problem(str(PROBLEMS / f"{name}.prob")))
        calls = count_semi_derivatives(monkeypatch)
        rep = hypothesis_h_check(u)
        assert len(calls) == count
        assert len(calls) == 4 * len(rep.rows)

    def test_other_axis_raises_after_the_report(self, tmp_path, capsys):
        # the x pair exists at (1, 0); the right y slope of y*sqrt(y) divides by 0
        p = tmp_path / "dy.prob"
        p.write_text("[problem]\nu = abs(x) + y*sqrt(y)\nvars = x, y\n")
        for axis, report in (("x", "point = 1.0, 0.0\naxis = x\nalpha = 1.0\nbeta = 1.0\n"
                                   "specular = 0.9999999999999999\n"), ("y", "")):
            out = io.StringIO()
            with pytest.raises(ExprError, match="^division by zero$"):
                cmd_deriv(str(p), "1,0", axis, out=out)
            assert out.getvalue() == report
            assert run(["deriv", str(p), "--point", "1,0", "--axis", axis])[0] == EXIT_MATH_DOMAIN
            assert capsys.readouterr().err == "math-domain error: division by zero\n"


@pytest.mark.parametrize("case", sorted(DERIV_REFERENCE))
def test_deriv_report_is_line_identical(case):
    name, point, axis = case.split()
    out = io.StringIO()
    assert cmd_deriv(str(PROBLEMS / f"{name}.prob"), point, axis, out=out) == EXIT_OK
    assert out.getvalue() == DERIV_REFERENCE[case]


class TestLazyPins:
    """A formula function pins a sign vector when first asked for it."""

    FOUR_LINES = ("1.5*abs(x - y - 0.5)*sqrt(1 + (x/2)^2) - sgn(2*x + y - 1)"
                  " + abs(x + 2*y + 0.5)*exp(x/2) - 2*abs(y - 1)")

    @pytest.mark.parametrize("point, pins", [
        ("2,3", 1),    # off every line: its one pattern
        ("1,1", 3),    # on y = 1: the pattern a step along x keeps, and one per side
        ("0.5,0", 4),  # where x - y = 0.5 crosses 2x + y = 1: the four cells
    ])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_deriv_pins_only_what_it_reads(self, point, pins, axis, tmp_path, monkeypatch):
        """All 16 open patterns were pinned at construction before."""
        p = tmp_path / "four.prob"
        p.write_text(f"[problem]\nu = {self.FOUR_LINES}\nvars = x, y\n")
        calls, real = [], piecewise.pin_signs
        monkeypatch.setattr(piecewise, "pin_signs", lambda *args: calls.append(args) or real(*args))
        assert cmd_deriv(str(p), point, axis, out=io.StringIO()) == EXIT_OK
        assert len(calls) == pins

    def test_failing_pattern_is_met_only_where_read(self, tmp_path, capsys):
        """1/(sgn(x) + 1) divides by a constant zero where x < 0: deriv off
        that half-plane succeeds, and deriv and check there give the
        one-line error (at construction, before)."""
        p = tmp_path / "half.prob"
        p.write_text("[problem]\nu = 1/(sgn(x) + 1) + abs(y)\nvars = x, y\n")
        out = io.StringIO()
        assert cmd_deriv(str(p), "1,1", "x", out=out) == EXIT_OK
        assert kv(out.getvalue())["specular"] == "0.0"
        for argv in (["deriv", str(p), "--point=-1,1", "--axis", "x"], ["check", str(p)]):
            assert run(argv)[0] == EXIT_MATH_DOMAIN
            assert capsys.readouterr().err == "math-domain error: division by constant zero\n"


@pytest.fixture(scope="module")
def halfline_csv(tmp_path_factory):
    out_path = tmp_path_factory.mktemp("csv") / "halfline.csv"
    out = io.StringIO()
    code = cmd_solve(f"{PROBLEMS}/halfline.prob", str(out_path), out=out)
    assert code == EXIT_OK
    assert "wrote" in out.getvalue()
    return out_path.read_bytes()


class TestSolveCSV:
    def test_header_and_line_endings(self, halfline_csv):
        assert halfline_csv.startswith(b"x,t,u,ux,ut,residual\n")
        assert b"\r" not in halfline_csv

    # the fixture file declares a 9 x 5 grid
    NX, NT = 9, 5

    def test_grid_order_t_outer_x_inner(self, halfline_csv):
        lines = halfline_csv.decode().strip().split("\n")[1:]
        grid = [
            tuple(map(float, ln.split(",")[:2]))
            for ln in lines[: self.NX * self.NT]
        ]
        # first block: t = 0, x ascending
        assert all(t == 0.0 for _, t in grid[: self.NX])
        xs = [x for x, _ in grid[: self.NX]]
        assert xs == sorted(xs)
        # second block starts the next t level
        assert grid[self.NX][1] > 0.0

    def test_spot_value_row(self, halfline_csv):
        lines = halfline_csv.decode().strip().split("\n")[1:]
        row = next(
            ln for ln in lines if ln.startswith("2.0,1.0,")
        )
        u = float(row.split(",")[2])
        assert u == pytest.approx(4.0, abs=1e-10)

    def test_all_values_finite_and_round_trip(self, halfline_csv):
        lines = halfline_csv.decode().strip().split("\n")[1:]
        for ln in lines:
            for tok in ln.split(","):
                v = float(tok)
                assert math.isfinite(v)
                # shortest round-trip representation
                assert fmt(v) == tok

    def test_supplement_rows_straddle_lines(self, halfline_csv):
        lines = halfline_csv.decode().strip().split("\n")[1:]
        assert len(lines) > self.NX * self.NT  # on-line supplements present
        supplements = lines[self.NX * self.NT:]
        # rows come in (-delta, on-line, +delta) triples
        assert len(supplements) % 3 == 0

    def test_s2_warning_for_counterexample(self, tmp_path):
        out = io.StringIO()
        code = cmd_solve(
            f"{PROBLEMS}/counterexample.prob", str(tmp_path / "ce.csv"), out=out
        )
        assert code == EXIT_OK
        assert "not S2" in out.getvalue()

    def test_zero_problem_all_zero_field(self, tmp_path):
        path = tmp_path / "zero.csv"
        out = io.StringIO()
        assert cmd_solve(f"{PROBLEMS}/zero.prob", str(path), out=out) == EXIT_OK
        lines = path.read_text().strip().split("\n")[1:]
        for ln in lines:
            x, t, u, ux, ut, r = map(float, ln.split(","))
            assert u == 0.0 and ux == 0.0 and ut == 0.0 and r == 0.0

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param("[problem]\nkind = transport\nh = sqrt(x + 1)\n"
                         "[grid]\nx_range = -3, 3\nnx = 5\nnt = 3\n",
                         "sqrt of negative value -2.0", id="transport-sqrt"),
            pytest.param("[problem]\nkind = wave\nphi = 1/(x - 1.5)\npsi = 0\n",
                         "division by zero", id="wave-division"),
        ],
    )
    def test_math_domain_error_writes_no_csv(self, text, message, tmp_path, capsys):
        p = tmp_path / "dom.prob"
        p.write_text(text)
        csv = tmp_path / "o.csv"
        code, _ = run(["solve", str(p), "--out", str(csv)])
        assert code == EXIT_MATH_DOMAIN
        assert capsys.readouterr().err == f"math-domain error: {message}\n"
        assert not csv.exists()

    def test_precondition_exit_4(self, tmp_path):
        p = tmp_path / "bad.prob"
        # phi(0) != 0 violates half-line compatibility
        p.write_text(
            "[problem]\nkind = wave-halfline\nphi = x^2 + 1\npsi = 0\n"
        )
        code, _ = run(["solve", str(p), "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_PRECONDITION


class TestCheck:
    def test_zero_problem_passes(self):
        out = io.StringIO()
        code = cmd_check(f"{PROBLEMS}/zero.prob", out=out)
        pairs = kv(out.getvalue())
        assert code == EXIT_OK
        assert pairs["all.pass"] == "true"

    def test_halfline_checks_pass(self):
        out = io.StringIO()
        code = cmd_check(f"{PROBLEMS}/halfline.prob", out=out)
        pairs = kv(out.getvalue())
        assert code == EXIT_OK
        assert pairs["residual.pass"] == "true"
        assert pairs["boundary.pass"] == "true"
        assert pairs["initial.pass"] == "true"
        assert pairs["hypothesis-h.pass"] == "true"
        assert pairs["all.pass"] == "true"

    def test_transport_checks_pass(self):
        out = io.StringIO()
        code = cmd_check(f"{PROBLEMS}/transport_abs.prob", out=out)
        assert code == EXIT_OK
        assert kv(out.getvalue())["all.pass"] == "true"

    def test_wave_fullline_checks_pass(self):
        out = io.StringIO()
        code = cmd_check(f"{PROBLEMS}/wave_fullline.prob", out=out)
        assert code == EXIT_OK
        assert kv(out.getvalue())["all.pass"] == "true"

    def test_counterexample_s2_fails_exit_1(self):
        out = io.StringIO()
        code = cmd_check(f"{PROBLEMS}/counterexample.prob", out=out)
        pairs = kv(out.getvalue())
        assert code == EXIT_CHECK_FAIL
        assert pairs["residual.pass"] == "true"
        assert pairs["s2.pass"] == "false"
        assert "x - t" in pairs["s2.failure_forms"]
        assert "x + t" in pairs["s2.failure_forms"]
        assert pairs["all.pass"] == "false"

    def test_bare_function_check(self):
        out = io.StringIO()
        code = cmd_check(f"{PROBLEMS}/table2d.prob", out=out)
        pairs = kv(out.getvalue())
        assert code == EXIT_OK
        assert pairs["continuity.verdict"] == "continuous"


def write_csv_rowwise(rows, out_path):
    """The row-by-row CSV writer that ``write_csv`` replaced: one ``fmt``
    per cell."""
    lines = ["x,t,u,ux,ut,residual"]
    for row in rows:
        for v in row:
            if not math.isfinite(v):
                raise ProblemFileError("non-finite value in sample table")
        lines.append(",".join(fmt(v) for v in row))
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                  1e-300, 1e308, -1e308, 1.7976931348623157e308, 0.1, 1.0, -1.0]
CELL = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def sample_tables(draw):
    """(n, 6) float tables whose columns are all equal, all distinct (by bit
    pattern) or drawn freely from values that include -0.0 and 0.0,
    subnormals, +-1e308 and 1e-300."""
    n = draw(st.integers(1, 40))
    columns = []
    for _ in range(6):
        kind = draw(st.sampled_from(["equal", "distinct", "free"]))
        if kind == "equal":
            columns.append([draw(CELL)] * n)
        else:
            columns.append(draw(st.lists(CELL, min_size=n, max_size=n,
                                         unique_by=(lambda v: np.float64(v).view(np.int64).item())
                                         if kind == "distinct" else None)))
    return np.array(columns, dtype=float).T


def csv_bytes(writer, table):
    """The bytes ``writer`` writes for table, or the message it raises and
    whether a file was left behind."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "o.csv"
        try:
            writer(table, str(path))
        except ProblemFileError as exc:
            return str(exc), path.exists()
        return path.read_bytes()


class TestWriteCsv:
    """``write_csv`` formats each distinct value of a column once; its bytes
    must be those of the row-by-row writer."""

    @settings(max_examples=200, deadline=None)
    @given(sample_tables())
    def test_matches_rowwise_writer(self, table):
        assert csv_bytes(cli.write_csv, table) == csv_bytes(write_csv_rowwise, table.tolist())

    @settings(max_examples=50, deadline=None)
    @given(sample_tables(), st.sampled_from([math.inf, -math.inf, math.nan]), st.data())
    def test_non_finite_raises_and_writes_nothing(self, table, bad, data):
        i = data.draw(st.integers(0, len(table) - 1))
        j = data.draw(st.integers(0, 5))
        table[i, j] = bad
        want = ("non-finite value in sample table", False)
        assert csv_bytes(cli.write_csv, table) == want
        assert csv_bytes(write_csv_rowwise, table.tolist()) == want

    def test_zero_and_negative_zero_stay_apart(self, tmp_path):
        table = np.array([[0.0, -0.0, 0.0, -0.0, 5e-324, 1e308]] * 2)
        table[1] *= -1
        cli.write_csv(table, str(tmp_path / "o.csv"))
        assert (tmp_path / "o.csv").read_text().splitlines()[1:] == [
            "0.0,-0.0,0.0,-0.0,5e-324,1e+308",
            "-0.0,0.0,-0.0,0.0,-5e-324,-1e+308",
        ]

    def test_zero_101_formats_each_distinct_value_once(self, tmp_path, monkeypatch):
        text = (PROBLEMS / "zero.prob").read_text(encoding="utf-8")
        path = tmp_path / "zero.prob"
        path.write_text(re.sub(r"(?m)^(nx|nt) = \d+$", r"\1 = 101", text), encoding="utf-8")
        calls = []
        real = cli.fmt
        monkeypatch.setattr(cli, "fmt", lambda v: calls.append(v) or real(v))
        out = io.StringIO()
        assert cmd_solve(str(path), str(tmp_path / "o.csv"), out=out) == EXIT_OK
        assert out.getvalue().startswith("wrote 10201 rows")
        # 101 x values, 101 t values and one 0.0 in each of the four fields;
        # the row-by-row writer formatted all 61 206 cells
        assert len(calls) == 206


class TestHoleOrder:
    """Entries the batch leaves uncovered are evaluated row by row, and
    within a row column by column, so ``solve`` fails with the error a
    row-major scalar pass meets first."""

    # h is undefined left of x = -1.  At (0, 1), x - t = -1: u is covered,
    # and ux, ut and the residual are holes whose scalar path divides by 0.
    # Further down, at (0, 2), u itself raises.
    TEXT = ("[problem]\nkind = transport\nh = abs(x) + sqrt(x + 1)\n"
            "[grid]\nx_range = 0, 2\nt_range = 0, 2\nnx = 5\nnt = 3\n")

    @staticmethod
    def scalar_pass(path, row_major):
        """The first error of the scalar callables over the grid points,
        taken row-major or column-major."""
        prob = load_problem(path)
        u, g = cli.solve_problem(prob), prob.grid
        points = [(x, t) for t in cli._linspace(*g.t_range, g.nt)
                  for x in cli._linspace(*g.x_range, g.nx)]
        columns = [lambda p, fld=fld: cli._safe_eval(fld, p)
                   for fld in (u, partial_field(u, 0), partial_field(u, 1))]
        columns.append(lambda p: transport_operator(u, p))
        cells = ([(p, fn) for p in points for fn in columns] if row_major
                 else [(p, fn) for fn in columns for p in points])
        for p, fn in cells:
            try:
                fn(p)
            except ExprError as exc:
                return p, f"math-domain error: {exc}\n"
        raise AssertionError("the scalar pass raised nothing")

    def test_first_error_is_row_major(self, tmp_path, capsys):
        path = tmp_path / "holes.prob"
        path.write_text(self.TEXT)
        point, want = self.scalar_pass(str(path), row_major=True)
        assert point == (0.0, 1.0)
        # the case tells the orders apart
        assert self.scalar_pass(str(path), row_major=False) == (
            (0.0, 2.0), "math-domain error: sqrt of negative value -1.0\n")
        csv = tmp_path / "o.csv"
        code, _ = run(["solve", str(path), "--out", str(csv)])
        assert code == EXIT_MATH_DOMAIN
        assert capsys.readouterr().err == want == "math-domain error: division by zero\n"
        assert not csv.exists()

    def test_row_has_holes_in_several_columns(self, tmp_path):
        path = tmp_path / "holes.prob"
        path.write_text(self.TEXT)
        u = cli.solve_problem(load_problem(str(path)))
        cols = [np.array([0.0]), np.array([1.0])]
        covered = [fld.evaluate_many(cols)[1][0] for fld in (u, partial_field(u, 0), partial_field(u, 1))]
        covered.append(transport_operator_many(u, cols)[1][0])
        assert covered == [True, False, False, False]


def test_transport_solve_evaluates_each_field_once(monkeypatch):
    """The residual column reuses the ux and ut columns of the table."""
    prob = load_problem(str(PROBLEMS / "transport_abs.prob"))
    sol = cli.solve_problem(prob)
    calls = []
    real = PiecewiseFn.evaluate_batch

    def counted(self, cols, axes=()):
        calls.append(id(self))
        return real(self, cols, axes)

    monkeypatch.setattr(PiecewiseFn, "evaluate_batch", counted)
    cli._solution_rows(sol, prob)
    assert len(calls) == len(set(calls)) == 3


def test_main_builds_the_argument_parser_once(monkeypatch):
    built = []
    real = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for _ in range(3):
        assert run(["check", str(PROBLEMS / "zero.prob")])[0] == EXIT_OK
    assert built == []


def solve_fields(path, csv, monkeypatch):
    """The report and CSV bytes of ``solve``, and the solution with every
    derivative field the command built from it (kept in ``derived``)."""
    sols = []
    real = cli.solve_problem

    def keep(prob):
        sols.append(real(prob))
        return sols[-1]

    monkeypatch.setattr(cli, "solve_problem", keep)
    out = io.StringIO()
    assert cmd_solve(str(path), str(csv), out=out) == EXIT_OK
    fields, stack = [], [sols[0]]
    while stack:
        fields.append(stack.pop())
        stack.extend(fields[-1].derived.values())
    return out.getvalue(), csv.read_bytes(), fields


def assert_expression_branches(fields):
    assert len(fields) > 1
    for fld in fields:
        for _, rhs in fld.branches:
            assert isinstance(rhs, Expr), rhs


class TestBranchesAreExpressions:
    @pytest.mark.parametrize(
        "name", ["counterexample", "halfline", "transport_abs", "wave_fullline", "zero"]
    )
    def test_fixture_solve(self, name, monkeypatch, tmp_path):
        _, _, fields = solve_fields(PROBLEMS / f"{name}.prob", tmp_path / "o.csv", monkeypatch)
        assert_expression_branches(fields)


class TestClosureSolution:
    """psi = exp(x^2) has no symbolic antiderivative, so the solution's
    velocity term is an Opaque quadrature leaf, differentiated by finite
    differences."""

    TEXT = "[problem]\nkind = wave\nphi = 0\npsi = exp(x^2)\n[grid]\nnx = 3\nnt = 3\n"
    CSV_SHA256 = "963a8fe05ba4689958a8143144726a57f63e59141f7e7338b3e586508221c8d5"

    def test_solve(self, tmp_path, monkeypatch):
        p = tmp_path / "expsq.prob"
        p.write_text(self.TEXT)
        text, data, fields = solve_fields(p, tmp_path / "o.csv", monkeypatch)
        assert text.startswith("wrote 9 rows")
        assert "not S2" not in text
        assert hashlib.sha256(data).hexdigest() == self.CSV_SHA256
        assert_expression_branches(fields)

    def test_deriv(self, tmp_path):
        p = tmp_path / "expsq.prob"
        p.write_text(self.TEXT)
        out = io.StringIO()
        assert cmd_deriv(str(p), "0.5,0.5", "x", out=out) == EXIT_OK
        # u_x = (psi(x + t) - psi(x - t)) / 2
        want = 0.5 * (math.e - 1.0)
        pairs = kv(out.getvalue())
        assert float(pairs["alpha"]) == pytest.approx(want, abs=1e-6)
        assert float(pairs["beta"]) == pytest.approx(want, abs=1e-6)


class TestDuhamelFallback:
    """A force that is not piecewise constant between characteristic lines
    gives a Duhamel term with an Opaque quadrature leaf."""

    TEXT = ("[problem]\nkind = wave-nonhomogeneous\nphi = 0\npsi = 0\nf = abs(x)*t\n"
            "[grid]\nnx = 3\nnt = 3\n")
    CSV_SHA256 = "578cd7020a59ea8209d07abed31ce36964186063bc7826bdc3fef151f4fba424"

    def test_solve(self, tmp_path, monkeypatch, capsys):
        # includes the real S^2 check of the solution (second differences
        # of the quadrature leaf), which finds no failure
        p = tmp_path / "duhamel.prob"
        p.write_text(self.TEXT)
        text, data, fields = solve_fields(p, tmp_path / "o.csv", monkeypatch)
        assert text == f"wrote 9 rows to {tmp_path / 'o.csv'}\n"
        assert capsys.readouterr().err == ""
        assert hashlib.sha256(data).hexdigest() == self.CSV_SHA256
        assert_expression_branches(fields)

    def test_check(self, tmp_path):
        p = tmp_path / "duhamel.prob"
        p.write_text(self.TEXT)
        out = io.StringIO()
        assert cmd_check(str(p), out=out) == EXIT_CHECK_FAIL
        # the residual is the error of nested finite differences of the
        # quadrature leaf; the exact residual is 0
        assert out.getvalue() == (
            "residual.max = 0.0009939720267855279\nresidual.pass = false\nall.pass = false\n"
        )


class TestLinprogCount:
    """No command solves a linear program: the runtime loads no scipy.

    Each case ran under a bound on its `linprog` calls (the number in its
    id) while regions were decided by LP; the exact face enumerator makes
    that count zero, so the case now checks that scipy is never imported."""

    @pytest.mark.parametrize(
        "command",
        [pytest.param("solve", id="solve-417"), pytest.param("check", id="check-271")],
    )
    def test_halfline(self, command, tmp_path):
        # in a fresh interpreter, so that no other test's imports count
        args = [command, str(PROBLEMS / "halfline.prob")]
        if command == "solve":
            args += ["--out", str(tmp_path / "o.csv")]
        script = (
            "import sys; from speculus.cli import main; "
            f"assert main({args!r}) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, cwd=REPO, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


class TestDeterminism:
    FIXTURES = [
        "table2d.prob",
        "corner2d.prob",
        "transport_abs.prob",
        "halfline.prob",
        "wave_fullline.prob",
        "counterexample.prob",
        "zero.prob",
    ]

    def test_solve_and_check_byte_identical(self, tmp_path):
        for name in self.FIXTURES:
            path = f"{PROBLEMS}/{name}"
            prob = load_problem(path)
            if prob.kind is not None:
                blobs = []
                for k in (0, 1):
                    csv = tmp_path / f"{name}.{k}.csv"
                    out = io.StringIO()
                    assert cmd_solve(path, str(csv), out=out) == EXIT_OK
                    blobs.append(csv.read_bytes())
                assert blobs[0] == blobs[1], name
            reports = []
            for _ in (0, 1):
                out = io.StringIO()
                cmd_check(path, out=out)
                reports.append(out.getvalue())
            assert reports[0] == reports[1], name


class TestReference:
    """Fixture reports and CSVs against the recorded reference, byte for
    byte; a ``solve101`` entry solves the fixture with its grid set to
    101 x 101."""

    @pytest.mark.parametrize(
        "ref", sorted(k for k in REFERENCE if k.split(":")[0] in ("check", "solve", "solve101"))
    )
    def test_matches_reference(self, ref, tmp_path):
        command, name = ref.split(":")
        want = REFERENCE[ref]
        path = str(PROBLEMS / f"{name}.prob")
        if command == "solve101":
            text = (PROBLEMS / f"{name}.prob").read_text(encoding="utf-8")
            text = re.sub(r"(?m)^(nx|nt) = \d+$", r"\1 = 101", text)
            path = str(tmp_path / f"{name}.prob")
            Path(path).write_text(text, encoding="utf-8")
        out = io.StringIO()
        if command == "check":
            assert cmd_check(path, out=out) == want["exit"]
            assert out.getvalue() == want["stdout"]
            return
        csv = tmp_path / "out.csv"
        assert cmd_solve(path, str(csv), out=out) == want["exit"]
        assert out.getvalue().replace(str(csv), "<out>") == want["stdout"]
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == want["csv_sha256"]


def declared_scripts():
    """``[project.scripts]`` of the checkout's ``pyproject.toml``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def run_check_zero(command):
    """Run ``<command> check zero.prob`` as a separate process from the repo
    root, with this checkout's ``src`` first on the child's import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [*command, "check", str(PROBLEMS / "zero.prob")],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=env,
    )
    assert proc.returncode == 0
    assert "all.pass = true" in proc.stdout
    return proc


class TestEntryPoint:
    def test_console_script(self):
        scripts = declared_scripts()
        assert "speculus" in scripts
        module, _, attr = scripts["speculus"].partition(":")
        # what the wrapper that installers generate for the entry point runs
        wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        proc = run_check_zero([sys.executable, "-c", wrapper])
        as_module = run_check_zero([sys.executable, "-m", "speculus"])
        assert (as_module.returncode, as_module.stdout) == (
            proc.returncode,
            proc.stdout,
        )

    @pytest.mark.skipif(
        shutil.which("speculus") is None,
        reason="no speculus executable on PATH (package not installed)",
    )
    def test_installed_console_script(self):
        run_check_zero([shutil.which("speculus")])
