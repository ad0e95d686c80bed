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
from dataclasses import replace
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
import speculus.waves as waves
from speculus.expr import AffineForm, EvalDomainError, Expr, ExprError, normalize_affine, parse
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

    @pytest.mark.parametrize("forms, repeat", [("x; 2*x", "2*x"), ("x; -x + 0*y", "-x + 0*y")])
    def test_repeated_form_exit_2(self, forms, repeat, tmp_path, capsys):
        """A form that repeats an earlier one, flipped or scaled, is an
        error: each copy's edge samples lie on the other and were dropped,
        so the jump between ++ and -- was never sampled (exit 0,
        continuous and proper)."""
        p = tmp_path / "repeat.prob"
        p.write_text(f"[problem]\nu = @g\n[g]\nvars = x, y\nforms = {forms}\n"
                     "branch = ++ : 1\nbranch = -- : -1\n")
        assert run(["check", str(p)]) == (EXIT_PARSE, "")
        assert capsys.readouterr().err == f"error: [g] form {repeat!r} repeats an earlier form\n"

    def test_bare_function_of_three_variables(self, tmp_path, capsys):
        """check samples the lines of a bare function in one or two
        variables; three died with a ValueError traceback (exit 1).  deriv
        takes any number."""
        p = tmp_path / "three.prob"
        p.write_text("[problem]\nu = abs(x) + abs(y - t)\n")
        assert run(["check", str(p)]) == (EXIT_PARSE, "")
        assert capsys.readouterr().err == (
            "error: check takes a function of one or two variables, not of x, y, t\n")
        out = io.StringIO()
        assert cmd_deriv(str(p), "1,2,3", "y", out=out) == EXIT_OK
        assert float(kv(out.getvalue())["specular"]) == pytest.approx(-1.0)

    @pytest.mark.parametrize("data, table, message", [
        # a transposed force was solved as a function of (t, x): exit 0
        ("kind = wave-nonhomogeneous\nphi = 0\npsi = 0\nf = @g", "vars = t, x\nforms = x - 0.5",
         "f must be a function of x, t, not of t, x"),
        # a force of one variable died in _meet with a ValueError (exit 1)
        ("kind = wave-nonhomogeneous\nphi = 0\npsi = 0\nf = @g", "vars = x\nforms = x - 0.5",
         "f must be a function of x, t, not of x"),
        # a solver precondition on the displacement derivative (exit 4)
        ("kind = wave\nphi = @g\npsi = 0", "vars = x, y\nforms = x - y",
         "phi must be a function of one variable, not of x, y"),
        ("kind = wave-halfline\nphi = 0\npsi = @g", "vars = x, y\nforms = y",
         "psi must be a function of one variable, not of x, y"),
        # "transport data must be 1D" (exit 4)
        ("kind = transport\nh = @g", "vars = x, t\nforms = x - t",
         "h must be a function of one variable, not of x, t"),
    ])
    def test_data_variables_exit_2(self, data, table, message, tmp_path, capsys):
        p = tmp_path / "data.prob"
        p.write_text(f"[problem]\n{data}\n[g]\n{table}\nbranch = + : 1\nbranch = - : 0\n")
        for argv in (["check", str(p)], ["solve", str(p), "--out", str(tmp_path / "o.csv")]):
            assert run(argv) == (EXIT_PARSE, "")
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o.csv").exists()

    def test_one_variable_data_under_any_name(self, tmp_path):
        p = tmp_path / "s.prob"
        p.write_text("[problem]\nkind = transport\nh = @g\n"
                     "[g]\nvars = s\nforms = s\nbranch = + : s\nbranch = - : -s\n")
        out = io.StringIO()
        assert cmd_check(str(p), out=out) == EXIT_OK
        assert out.getvalue() == "residual.max = 0.0\nresidual.pass = true\nall.pass = true\n"

    def test_repeated_variable_name_exit_2(self, tmp_path, capsys):
        """vars = x, x read the form x as x + x and bound x to the second
        coordinate: |x| was reported piecewise-continuous, exit 0."""
        p = tmp_path / "xx.prob"
        p.write_text("[problem]\nu = @g\n[g]\nvars = x, x\nforms = x\nbranch = + : x\nbranch = - : -x\n")
        assert run(["check", str(p)]) == (EXIT_PARSE, "")
        assert capsys.readouterr().err == "error: vars x, x repeats a name\n"

    def test_uncovered_region_far_from_origin_exit_2(self, tmp_path, capsys):
        p = tmp_path / "far.prob"
        p.write_text("[problem]\nu = @g\n[g]\nvars = x\nforms = x - 20000\nbranch = - : 0\n")
        code, _ = run(["check", str(p)])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: no branch covers")

    @pytest.mark.parametrize("grid, message", [
        ("x_range = abc, 1", "[grid] x_range: could not convert string to float: 'abc'"),
        ("nx = 3.5", "[grid] nx: invalid literal for int() with base 10: '3.5'"),
        ("x_range = -inf, 1", "[grid] x_range has a value that is not finite"),
        ("x_range = 0, 1e400", "[grid] x_range has a value that is not finite"),
        ("t_range = nan, 1", "[grid] t_range has a value that is not finite"),
        ("delta = inf", "[grid] delta has a value that is not finite"),
    ])
    def test_malformed_grid_exit_2(self, grid, message, tmp_path, capsys):
        """An unparsable or non-finite grid value is a parse error with one
        line (it was a traceback, or a Duhamel quadrature that never
        converged, exit 3)."""
        p = tmp_path / "grid.prob"
        p.write_text("[problem]\nkind = wave-nonhomogeneous\nphi = 0\npsi = 0\n"
                     f"f = x*t + abs(x - 0.5*t)\n[grid]\n{grid}\n")
        for argv in (["check", str(p)], ["solve", str(p), "--out", str(tmp_path / "o.csv")]):
            assert run(argv) == (EXIT_PARSE, "")
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o.csv").exists()

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

    @pytest.mark.parametrize("point, message", [
        ("abc,1", "point 'abc,1': could not convert string to float: 'abc'"),
        ("nan,0", "point 'nan,0' has a coordinate that is not finite"),
        ("inf,0", "point 'inf,0' has a coordinate that is not finite"),
        ("1,2,3", "point has 3 coordinates but the function has 2"),
    ])
    def test_bad_point_exit_2(self, point, message, capsys):
        code, out = run(["deriv", str(PROBLEMS / "corner2d.prob"), f"--point={point}", "--axis", "x"])
        assert (code, out) == (EXIT_PARSE, "")
        assert capsys.readouterr().err == f"error: {message}\n"

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
        pytest.param("halfline", 18, id="halfline-288"),
        pytest.param("wave_fullline", 12, id="wave_fullline-144"),
        pytest.param("counterexample", 6, id="counterexample-144"),
    ])
    def test_hypothesis_h_check(self, name, count, monkeypatch):
        """No scalar semi-derivative at any edge sample: the pairs come from
        the batches of v's partial fields.  The id holds the count of the
        box-sampled check with the pairs computed twice (then 72, 48 and 24
        calls, two pairs per edge sample)."""
        u = cli.solve_problem(load_problem(str(PROBLEMS / f"{name}.prob")))
        calls = count_semi_derivatives(monkeypatch)
        rep = hypothesis_h_check(u)
        assert calls == []
        assert len(rep.rows) == count

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

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        csv = tmp_path / "no" / "dir" / "x.csv"
        code, out = run(["solve", str(PROBLEMS / "zero.prob"), "--out", str(csv)])
        assert (code, out) == (EXIT_PARSE, "")
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {csv}: ") and err.count("\n") == 1
        assert not csv.parent.exists()

    def test_quadrature_failure_exit_3(self, tmp_path, capsys):
        # sin(1/x) has no symbolic antiderivative, and its quadrature from 0
        # does not converge near 0
        p = tmp_path / "osc.prob"
        p.write_text("[problem]\nkind = wave\nphi = 0\npsi = sin(1/x)\n"
                     "[grid]\nx_range = 0.5, 1\nt_range = 0, 1\nnx = 2\nnt = 2\n")
        code, _ = run(["solve", str(p), "--out", str(tmp_path / "o.csv")])
        err = capsys.readouterr().err
        assert code == EXIT_MATH_DOMAIN
        assert err.startswith("math-domain error: quadrature panel") and err.count("\n") == 1

    def test_non_finite_quadrature_exit_3(self, tmp_path, capsys):
        """1e308 x^3 - 1e308 x^3 is inf - inf, NaN, for x > 1, and psi has no
        symbolic antiderivative: the first quadrature panel past x = 1 fails
        at once with one math-domain line."""
        big = f"1{'0' * 308}*x*x*x"
        p = tmp_path / "nan.prob"
        p.write_text(f"[problem]\nkind = wave\nphi = 0\npsi = ({big} - {big})*sin(x)\n"
                     "[grid]\nx_range = 0.5, 1\nt_range = 0, 1\nnx = 2\nnt = 2\n")
        assert run(["solve", str(p), "--out", str(tmp_path / "o.csv")]) == (EXIT_MATH_DOMAIN, "")
        assert capsys.readouterr().err == ("math-domain error: quadrature panel [0.0, 1.5] has a "
                                           "non-finite rule value (nan, estimate nan)\n")

    def test_non_finite_sample_exit_3(self, tmp_path, capsys):
        """phi = 1e308 x^3 overflows, and every residual row is NaN: check
        and solve both stop with one math-domain line, and no CSV is left
        (check printed residual.max = 0.0 and passed; solve exited 2)."""
        path = tmp_path / "nan.prob"
        path.write_text(f"[problem]\nkind = wave\nphi = 1{'0' * 308}*x*x*x\npsi = 0\n"
                        "[grid]\nx_range = -2, 2\nt_range = 0, 1\nnx = 3\nnt = 2\n")
        assert run(["check", str(path)]) == (EXIT_MATH_DOMAIN, "")
        assert capsys.readouterr().err == "math-domain error: non-finite residual nan\n"
        csv = tmp_path / "o.csv"
        assert run(["solve", str(path), "--out", str(csv)]) == (EXIT_MATH_DOMAIN, "")
        assert capsys.readouterr().err == "math-domain error: non-finite value in sample table\n"
        assert not csv.exists()

    def test_discontinuous_displacement_exit_4(self, tmp_path, capsys):
        p = tmp_path / "jump.prob"
        p.write_text("[problem]\nkind = wave\nphi = sgn(x)\npsi = 0\n")
        assert run(["check", str(p)])[0] == EXIT_PRECONDITION
        assert capsys.readouterr().err == (
            "solver precondition failed: initial displacement is discontinuous\n")

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
                raise EvalDomainError("non-finite value in sample table")
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
        except EvalDomainError as exc:
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
        monkeypatch.setattr(cli, "repr", lambda v: calls.append(v) or repr(v), raising=False)
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

    def counted(self, cols, *args):
        calls.append(id(self))
        return real(self, cols, *args)

    monkeypatch.setattr(PiecewiseFn, "evaluate_batch", counted)
    cli._solution_rows(sol, prob)
    assert len(calls) == len(set(calls)) == 3


def test_transport_solve_groups_its_points_once(monkeypatch):
    """u, ux, ut and the residual column of a transport table share one
    sign matrix of the sample points (4 before: one per column); the
    residual's off-line points are the groups whose pattern has no 0."""
    prob = load_problem(str(PROBLEMS / "transport_abs.prob"))
    sol = cli.solve_problem(prob)
    sizes, real = [], piecewise.sign_matrix

    def counted(forms, cols, *args):
        sizes.append(len(cols[0]))
        return real(forms, cols, *args)

    monkeypatch.setattr(piecewise, "sign_matrix", counted)
    cli._solution_rows(sol, prob)
    assert len(sizes) == 1 and sizes[0] > prob.grid.nx * prob.grid.nt


def test_transport_101_a_combines_each_distinct_pair_once(tmp_path, monkeypatch):
    """On a seeded transport problem at 101 x 101, the residual column runs
    ``a_combine`` twice (along t and along x) per distinct bit pattern of
    the four own-axis limits of the partial fields, not per row."""
    rng = np.random.default_rng(11)
    kinks = " + ".join(f"{c}*abs(x - {a})" for c, a in zip(rng.choice([-1.5, 0.5, 2.0], 2),
                                                           rng.choice([-1.0, 0.0, 1.5], 2, replace=False)))
    path = tmp_path / "transport.prob"
    path.write_text(f"[problem]\nkind = transport\nh = {kinks} + 0.25*x^2 - 0.5*x\n"
                    "[grid]\nx_range = -3, 3\nt_range = 0, 2\nnx = 101\nnt = 101\n")
    quads, calls = set(), []
    real_many, real_combine = cli.transport_operator_many, waves.a_combine

    def spied(u, cols, partials, *groups):
        limits = [partials[axis][axis, d][0].view(np.int64).tolist() for axis in (1, 0) for d in (1, -1)]
        quads.update(zip(*limits))
        return real_many(u, cols, partials, *groups)

    monkeypatch.setattr(cli, "transport_operator_many", spied)
    monkeypatch.setattr(waves, "a_combine", lambda a, b: calls.append((a, b)) or real_combine(a, b))
    out = io.StringIO()
    assert cmd_solve(str(path), str(tmp_path / "o.csv"), out=out) == EXIT_OK
    rows = int(out.getvalue().split()[1])
    assert rows > 101 * 101 > 5 * len(quads)
    assert len(calls) == 2 * len(quads)


def test_run_returns_the_report(monkeypatch):
    """The commands print to the ``sys.stdout`` of the call, so ``run``
    reads the report."""
    monkeypatch.chdir(REPO)
    want = io.StringIO()
    assert cmd_check("problems/zero.prob", out=want) == EXIT_OK
    assert run(["check", "problems/zero.prob"]) == (EXIT_OK, want.getvalue())
    assert want.getvalue().startswith("residual.max = ") and want.getvalue().endswith("all.pass = true\n")


def online_reference(u, g):
    """The on-line supplements by the per-parameter loop that ``solve``
    once ran: per form and parameter, the domain and other-line tests on
    ``in_domain`` and ``AffineForm.value``, then the -delta, 0, +delta
    points."""
    points, ns = [], max(g.nx, g.nt)
    for form in u.forms:
        if (segment := cli._grid_segment(form, g)) is None:
            continue
        nhat, p0, d, lo, hi = segment
        for s in cli._linspace(lo, hi, ns):
            base = p0 + s * d
            if not u.in_domain(tuple(base), margin=2 * g.delta):
                continue
            if any(h is not form and abs(h.value(base)) <= 2 * g.delta for h in u.forms):
                continue
            points += [base + side * g.delta * nhat for side in (-1, 0, 1)]
    return np.reshape(points, (-1, 2)).T


def shifted(text: str, dx: float) -> str:
    """A wave or transport problem moved by (dx, 0): its data at x - dx, its x range by dx."""
    data = re.compile(r"(?m)^(phi|psi|h) = (.*)$")
    text = data.sub(lambda m: m.group(1) + " = " + re.sub(r"\bx\b", f"(x - {dx})", m.group(2)), text)
    return re.sub(r"(?m)^x_range = (.*), (.*)$",
                  lambda m: f"x_range = {float(m.group(1)) + dx}, {float(m.group(2)) + dx}", text)


class TestOnlinePoints:
    """``_online_points`` equals the per-parameter loop bit for bit: the
    same points, in the same order, with the same -delta, 0, +delta
    triples."""

    @staticmethod
    def assert_matches(u, g):
        got = cli._online_points(u, g)
        want = online_reference(u, g)
        assert [c.view(np.int64).tolist() for c in got] == [c.view(np.int64).tolist() for c in want]
        return len(want[0])

    @pytest.mark.parametrize("name", ["halfline", "wave_fullline", "counterexample", "transport_abs"])
    @pytest.mark.parametrize("n", [None, 101])
    @pytest.mark.parametrize("dx", [0.0, 1e4])
    def test_fixtures(self, name, n, dx, tmp_path):
        text = (PROBLEMS / f"{name}.prob").read_text(encoding="utf-8")
        if n:
            text = re.sub(r"(?m)^(nx|nt) = \d+$", rf"\1 = {n}", text)
        if dx and name in ("wave_fullline", "transport_abs"):  # data given as formulas
            text = shifted(text, dx)
        path = tmp_path / "p.prob"
        path.write_text(text, encoding="utf-8")
        prob = load_problem(str(path))
        u = cli.solve_problem(prob)
        assert self.assert_matches(u, prob.grid) > 0

    def test_half_line_domain(self):
        """A domain line cuts the supplements: u lives on x > 0.5."""
        xt = ("x", "t")
        u = piecewise.from_expression(parse("abs(x - t) + abs(x + 2*t - 1)", xt), xt,
                                      domain=((AffineForm((1.0, 0.0), 0.5), 1),))
        g = cli.Grid((-1.0, 3.0), (0.0, 2.0), 41, 21, 1e-3)
        assert 0 < self.assert_matches(u, g) < 2 * 3 * 41

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_lines(self, data):
        """Lines a*(x - shift) + b*t + c = 0, a domain side among them."""
        coef = st.floats(-3.0, 3.0, allow_subnormal=False)
        lines = data.draw(st.lists(st.tuples(st.sampled_from((0.0, 1.0, -0.5, 2.0)), coef, coef)
                                   .filter(lambda line: line[:2] != (0.0, 0.0)), min_size=1, max_size=5))
        shift = data.draw(st.sampled_from((0.0, 1e4)))
        forms = [normalize_affine((a, b), c - a * shift)[0] for a, b, c in lines]
        domain = tuple((f, 1) for f in forms[4:])
        u = PiecewiseFn(("x", "t"), tuple(forms[:4]), (), "specular", domain=domain)
        nx, nt = data.draw(st.integers(2, 40)), data.draw(st.integers(2, 40))
        delta = data.draw(st.sampled_from((1e-6, 1e-3, 0.05)))
        self.assert_matches(u, cli.Grid((shift - 2.0, shift + 3.0), (0.0, 2.0), nx, nt, delta))

    def test_no_per_parameter_work(self, monkeypatch):
        """No ``in_domain`` or ``AffineForm.value`` call, where the loop
        made them per parameter."""
        prob = load_problem(str(PROBLEMS / "halfline.prob"))
        u, calls = cli.solve_problem(prob), []
        for cls, name in ((PiecewiseFn, "in_domain"), (AffineForm, "value")):
            real = getattr(cls, name)
            monkeypatch.setattr(cls, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
        assert len(cli._online_points(u, prob.grid)[0]) > 0
        assert calls == []


class TestNoScalarWork:
    """``solve`` on the solver fixtures at 101 x 101 takes the transport
    residual with no scalar ``transport_operator`` (135 calls on
    transport_abs before the batch covered the lines), and
    ``evaluate_batch`` reads its trees without ``np.searchsorted``; the CSV
    bytes are those of ``TestReference``."""

    @pytest.mark.parametrize("name", ["halfline", "wave_fullline", "counterexample", "transport_abs"])
    def test_solve_101(self, name, tmp_path, monkeypatch):
        text = (PROBLEMS / f"{name}.prob").read_text(encoding="utf-8")
        path = tmp_path / "p.prob"
        path.write_text(re.sub(r"(?m)^(nx|nt) = \d+$", r"\1 = 101", text), encoding="utf-8")
        calls = []

        def spy(name, real):
            return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

        monkeypatch.setattr(cli, "transport_operator", spy("transport_operator", transport_operator))
        monkeypatch.setattr(np, "searchsorted", spy("searchsorted", np.searchsorted))
        csv = tmp_path / "out.csv"
        assert cmd_solve(str(path), str(csv), out=io.StringIO()) == EXIT_OK
        assert calls == []
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == REFERENCE[f"solve101:{name}"]["csv_sha256"]


class TestTransportOnLines:
    def test_transport_abs_101_on_line_rows(self):
        """At the on-line rows of transport_abs at 101 x 101 the batch
        covers every point, bitwise ``transport_operator``."""
        prob = load_problem(str(PROBLEMS / "transport_abs.prob"))
        u, g = cli.solve_problem(prob), replace(prob.grid, nx=101, nt=101)
        cols = list(cli._online_points(u, g))
        points = [tuple(p) for p in np.array(cols).T.tolist()]
        assert sum(0 in u.sign_vector(p) for p in points) == len(points) // 3 > 0
        values, covered = transport_operator_many(u, cols)
        assert covered.all()
        want = np.array([transport_operator(u, p) for p in points])
        assert values.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_line_along_an_axis_stays_uncovered(self):
        """On t = 1 the x limits of u_x stay on the line, where the field's
        value is not u's semi-derivative: the scalar path takes the point."""
        xt = ("x", "t")
        u = piecewise.from_expression(parse("abs(x - t) + x*(sgn(t - 1) + 2)", xt), xt)
        points = [(0.3, 1.0), (0.5, 0.5), (2.0, 0.25)]
        values, covered = transport_operator_many(u, np.array(points).T)
        assert covered.tolist() == [False, True, True]
        assert values[1:].tolist() == [transport_operator(u, p) for p in points[1:]]
        assert transport_operator(u, points[0]) != values[0]


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


def csv_rows(data: bytes) -> list:
    return [tuple(map(float, line.split(","))) for line in data.decode().splitlines()[1:]]


def erfi_integral(z: float) -> float:
    """int_0^z exp(y^2) dy from its power series sum z^(2n+1) / (n! (2n+1))."""
    return math.fsum(z ** (2 * n + 1) / (math.factorial(n) * (2 * n + 1)) for n in range(120))


class TestClosureSolution:
    """psi = exp(x^2) has no symbolic antiderivative, so the solution's
    velocity term is an Opaque quadrature leaf; its partial is psi, so
    u_x = (psi(x + t) - psi(x - t)) / 2 and u_t = (psi(x + t) + psi(x - t)) / 2
    are exact expressions."""

    TEXT = "[problem]\nkind = wave\nphi = 0\npsi = exp(x^2)\n[grid]\nnx = 3\nnt = 3\n"

    def test_solve(self, tmp_path, monkeypatch):
        p = tmp_path / "expsq.prob"
        p.write_text(self.TEXT)
        text, data, fields = solve_fields(p, tmp_path / "o.csv", monkeypatch)
        assert text.startswith("wrote 9 rows")
        assert "not S2" not in text
        rows = csv_rows(data)
        assert len(rows) == 9
        for x, t, u, ux, ut, residual in rows:
            a, b = math.exp((x + t) ** 2), math.exp((x - t) ** 2)
            assert u == pytest.approx(0.5 * (erfi_integral(x + t) - erfi_integral(x - t)), rel=1e-10)
            assert ux == pytest.approx(0.5 * (a - b), rel=1e-14)
            assert ut == pytest.approx(0.5 * (a + b), rel=1e-14)
            assert residual == 0.0
        assert_expression_branches(fields)

    def test_check(self, tmp_path):
        # failed with residual.max = 15.99 (u_tt about 3.6e7) and
        # initial.velocity = 1.1e-8 while the slopes were finite differences
        p = tmp_path / "expsq.prob"
        p.write_text(self.TEXT + "[check]\nchecks = residual, initial\n")
        out = io.StringIO()
        assert cmd_check(str(p), out=out) == EXIT_OK
        pairs = kv(out.getvalue())
        assert float(pairs["residual.max"]) <= 1e-8 and float(pairs["initial.velocity"]) <= 1e-8
        assert pairs["all.pass"] == "true"

    def test_deriv(self, tmp_path):
        p = tmp_path / "expsq.prob"
        p.write_text(self.TEXT)
        out = io.StringIO()
        assert cmd_deriv(str(p), "0.5,0.5", "x", out=out) == EXIT_OK
        # u_x = (psi(x + t) - psi(x - t)) / 2
        want = 0.5 * (math.e - 1.0)
        pairs = kv(out.getvalue())
        assert float(pairs["alpha"]) == pytest.approx(want, rel=1e-14)
        assert float(pairs["beta"]) == pytest.approx(want, rel=1e-14)


class TestDuhamelFallback:
    """A force that is not piecewise constant between characteristic lines
    gives a Duhamel term with an Opaque quadrature leaf, differentiated
    through its Leibniz partials.  The oracle is sympy's closed form of
    w = 0.5 * iint |y| s over the dependence triangle: X t^3 / 6 for
    X = |x| >= t, split at s = t - X below."""

    TEXT = ("[problem]\nkind = wave-nonhomogeneous\nphi = 0\npsi = 0\nf = abs(x)*t\n"
            "[grid]\nnx = 3\nnt = 3\n")

    @staticmethod
    def oracle(x, t):
        """(w, w_x, w_t) at (x, t)."""
        sympy = pytest.importorskip("sympy")
        X, T, s = sympy.symbols("X T s", nonnegative=True)
        if abs(x) >= t:
            w = X * T ** 3 / 6
        else:
            w = (sympy.integrate(s * (X ** 2 + (T - s) ** 2), (s, 0, T - X))
                 + sympy.integrate(s * 2 * X * (T - s), (s, T - X, T))) / 2
        at = {X: abs(x), T: t}
        sign = math.copysign(1.0, x) if x else 0.0
        return float(w.subs(at)), sign * float(w.diff(X).subs(at)), float(w.diff(T).subs(at))

    def test_solve(self, tmp_path, monkeypatch, capsys):
        # includes the S^2 check of the solution, which finds no failure
        p = tmp_path / "duhamel.prob"
        p.write_text(self.TEXT)
        text, data, fields = solve_fields(p, tmp_path / "o.csv", monkeypatch)
        assert text == f"wrote 27 rows to {tmp_path / 'o.csv'}\n"
        assert capsys.readouterr().err == ""
        rows = csv_rows(data)
        assert len(rows) == 27  # the grid, then the on-line rows of x = 0 and x -+ t = 0
        for x, t, u, ux, ut, residual in rows:
            assert (u, ux, ut) == pytest.approx(self.oracle(x, t), abs=1e-10)
            assert abs(residual) <= 1e-10
        assert_expression_branches(fields)

    def test_check(self, tmp_path):
        # failed with residual.max = 0.0009939720267855279 while u_tt and
        # u_xx were nested finite differences of the quadrature leaf
        p = tmp_path / "duhamel.prob"
        p.write_text(self.TEXT)
        out = io.StringIO()
        assert cmd_check(str(p), out=out) == EXIT_OK
        pairs = kv(out.getvalue())
        assert float(pairs["residual.max"]) <= 1e-10
        assert pairs["all.pass"] == "true"


class TestHalflineQuadratureVelocity:
    """The halfline fixture's phi with psi = sqrt(x + 1) - 1, which has no
    symbolic antiderivative: the solve exited 3 where the slope of the
    velocity leaf was a stencil that stepped below t = 0.  The oracle is the
    reflection formula with Psi(y) = (2/3)((y + 1)^(3/2) - 1) - y."""

    TEXT = ("[problem]\nkind = wave-halfline\n"
            "phi = (1/2)*(x - 1)*abs(x - 1) + (1/2)*x^2 + 1/2\npsi = sqrt(x + 1) - 1\n"
            "[grid]\nx_range = 0, 4\nt_range = 0, 2\nnx = 9\nnt = 5\n"
            "[check]\nchecks = residual, boundary, initial\n")

    @staticmethod
    def oracle(x, t):
        """(u, u_x, u_t) at (x, t) from the odd reflection of the data."""
        phi = lambda y: 0.5 * (y - 1) * abs(y - 1) + 0.5 * y * y + 0.5
        dphi = lambda y: abs(y - 1) + y
        Psi = lambda y: (2.0 / 3.0) * ((y + 1) ** 1.5 - 1) - y
        psi = lambda y: math.sqrt(y + 1) - 1
        a = x + t
        if x >= t:
            b = x - t
            return (0.5 * (phi(a) + phi(b)) + 0.5 * (Psi(a) - Psi(b)),
                    0.5 * (dphi(a) + dphi(b)) + 0.5 * (psi(a) - psi(b)),
                    0.5 * (dphi(a) - dphi(b)) + 0.5 * (psi(a) + psi(b)))
        b = t - x
        return (0.5 * (phi(a) - phi(b)) + 0.5 * (Psi(a) - Psi(b)),
                0.5 * (dphi(a) + dphi(b)) + 0.5 * (psi(a) + psi(b)),
                0.5 * (dphi(a) - dphi(b)) + 0.5 * (psi(a) - psi(b)))

    def test_solve(self, tmp_path):
        p = tmp_path / "halfsqrt.prob"
        p.write_text(self.TEXT)
        csv = tmp_path / "o.csv"
        assert cmd_solve(str(p), str(csv), out=io.StringIO()) == EXIT_OK
        rows = csv_rows(csv.read_bytes())
        assert len(rows) > 45
        for x, t, u, ux, ut, _ in rows:
            assert (u, ux, ut) == pytest.approx(self.oracle(x, t), abs=1e-9), (x, t)

    def test_check(self, tmp_path):
        p = tmp_path / "halfsqrt.prob"
        p.write_text(self.TEXT)
        out = io.StringIO()
        assert cmd_check(str(p), out=out) == EXIT_OK, out.getvalue()


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
