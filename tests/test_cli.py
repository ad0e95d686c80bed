"""CLI front end: problem-file parsing, deriv/solve/check commands, CSV
format, exit codes, determinism."""

import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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

REPO = Path(__file__).resolve().parents[1]
PROBLEMS = REPO / "problems"
# fixture outputs recorded by perfbench/make_reference.py
REFERENCE = json.loads((REPO / "perfbench" / "reference.json").read_text(encoding="utf-8"))


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
    byte (the 101 x 101 grid entries are left to the benchmark)."""

    @pytest.mark.parametrize(
        "ref", sorted(k for k in REFERENCE if k.split(":")[0] in ("check", "solve"))
    )
    def test_matches_reference(self, ref, tmp_path):
        command, name = ref.split(":")
        want = REFERENCE[ref]
        path = str(PROBLEMS / f"{name}.prob")
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
