"""Check verdicts do not depend on where a problem sits in the plane: the
checks sample every edge of the line arrangement, so translating a problem
by (2e4, 0) or scaling it by 1e3 leaves each report as it was, and a short
edge is sampled like a long one."""

import io
import re
from pathlib import Path

from hypothesis import given, settings, strategies as st

from speculus.cli import _check_points, cmd_check, cmd_solve, form_str, load_problem, solve_problem
from speculus.expr import parse
from speculus.piecewise import classify_continuity, from_expression, tol_jump
from speculus.specular import s2_membership
from speculus.waves import hypothesis_h_check

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"
XY = ("x", "y")

SHIFT = (r"\bx\b", "(x - 20000)"), (r"\by\b", "y")
SCALE = (r"\bx\b", "(x/1000)"), (r"\by\b", "(y/1000)")


def moved(expr: str, how) -> str:
    """The expression of u(p - (2e4, 0)) or u(p / 1e3), by substitution."""
    (px, rx), (py, ry) = how
    return re.sub(py, ry, re.sub(px, rx, expr))


def check_report(tmp_path, expr: str) -> str:
    path = tmp_path / "u.prob"
    path.write_text(f"[problem]\nu = {expr}\nvars = x, y\n", encoding="utf-8")
    out = io.StringIO()
    cmd_check(str(path), out=out)
    return out.getvalue()


def fixture_u(name: str) -> str:
    text = (PROBLEMS / f"{name}.prob").read_text(encoding="utf-8")
    return re.search(r"(?m)^u = (.*)$", text).group(1)


def test_far_jump_is_reported(tmp_path):
    """A jump along x = 20000 is found as one along x = 2 is."""
    near = check_report(tmp_path, "sgn(x - 2) + abs(y)")
    assert near == check_report(tmp_path, "sgn(x - 20000) + abs(y)")
    assert "continuity.verdict = piecewise-continuous\nproper.u = false\n" in near


def test_bare_fixtures_move_unchanged(tmp_path):
    for name in ("corner2d", "table2d"):
        expr = fixture_u(name)
        want = check_report(tmp_path, expr)
        for how in (SHIFT, SCALE):
            assert check_report(tmp_path, moved(expr, how)) == want, (name, how)


def test_sgn_is_zero_on_its_line(tmp_path):
    """On x = 19999.9 the argument of sgn rounds to about 1e-12, not 0;
    the value there is still sgn(0) = 0, so u is proper as at the origin,
    along x and along the line."""
    report = check_report(tmp_path, "(-3)*sgn((-3)*x + (-0.3))")
    assert "proper.u = true\n" in report
    assert check_report(tmp_path, "(-3)*sgn((-3)*(x - 20000) + (-0.3))") == report


COEF = st.sampled_from((-2, -1, 1, 2.5))
LINE = st.tuples(st.sampled_from((-2, -1, 0, 0.7, 1, 2)), st.sampled_from((-2, -1, 0, 1, 2.5)),
                 st.sampled_from((-3, -1, -0.3, 0, 1, 1.7, 3))).filter(lambda line: line[:2] != (0, 0))
TERM = st.tuples(COEF, st.sampled_from(("abs", "sgn")), LINE)


@given(st.lists(TERM, min_size=1, max_size=4))
@settings(max_examples=25, deadline=None)
def test_line_sums_move_unchanged(tmp_path_factory, terms):
    """Sums of c*abs(a*x + b*y + e) and c*sgn(a*x + b*y + e)."""
    expr = " + ".join(f"({c})*{kind}(({a})*x + ({b})*y + ({e}))" for c, kind, (a, b, e) in terms)
    tmp_path = tmp_path_factory.mktemp("sums")
    want = check_report(tmp_path, expr)
    for how in (SHIFT, SCALE):
        assert check_report(tmp_path, moved(expr, how)) == want, how


def test_hypothesis_h_rows_match_scalar(scalar_h_rows, h_rows):
    """The rows of ``hypothesis_h_check`` from its batches equal those of
    the scalar oracle ``scalar_h_rows`` on the problems above, moved or not."""
    exprs = [fixture_u("corner2d"), fixture_u("table2d"), "sgn(x - 2) + abs(y)",
             "(-3)*sgn((-3)*x + (-0.3))", "sgn(x)*(sgn(y) - sgn(y - 0.001))",
             "(2.5)*abs((0.7)*x + (-1)*y + (1.7)) + (-1)*sgn((1)*x + (2.5)*y + (-0.3))"]
    notes = 0
    for expr in exprs:
        for text in (expr, moved(expr, SHIFT), moved(expr, SCALE)):
            u, fresh = (from_expression(parse(text, XY), XY) for _ in range(2))
            rows = h_rows(hypothesis_h_check(u))
            assert rows == scalar_h_rows(fresh), text
            notes += sum(note != "" for _, _, note in rows)
    assert notes > 0


def test_short_edge_is_sampled():
    """sgn(x)*(sgn(y) - sgn(y - 0.001)) jumps across x = 0 only on its
    0.001-long edge; the samples there find the jump, and those off it do
    not, so the line is indeterminate."""
    u = from_expression(parse("sgn(x)*(sgn(y) - sgn(y - 0.001))", XY), XY)
    k = next(k for k, f in enumerate(u.forms) if f.coeffs == (1.0, 0.0))
    rep = classify_continuity(u)
    short = [(left, right) for p, left, right in rep.samples[k] if 0.0 < p[1] < 0.001]
    assert short and all(abs(left - right) > tol_jump(left, right) for left, right in short)
    assert k in rep.indeterminate
    assert rep.verdict == "not-piecewise-continuous"


def test_shifted_wave_fullline(tmp_path, scalar_h_rows, h_rows):
    """wave_fullline moved to x in [9997, 10003]: the same check report,
    S1-only on the moved line, hypothesis (H) tested at as many points, and
    as many on-line residual points."""
    text = (PROBLEMS / "wave_fullline.prob").read_text(encoding="utf-8")
    text = re.sub(r"(?m)^(phi|psi) = (.*)$",
                  lambda m: f"{m.group(1)} = {moved(m.group(2), SHIFT).replace('20000', '10000')}",
                  text)
    text = text.replace("x_range = -3, 3", "x_range = 9997, 10003")
    path = tmp_path / "shifted.prob"
    path.write_text(text, encoding="utf-8")
    reports = []
    for p in (PROBLEMS / "wave_fullline.prob", path):
        out = io.StringIO()
        cmd_check(str(p), out=out)
        reports.append(out.getvalue())
    assert reports[0] == reports[1]

    base, far = (load_problem(str(p)) for p in (PROBLEMS / "wave_fullline.prob", path))
    u0, u1 = solve_problem(base), solve_problem(far)
    s0, s1 = s2_membership(u0), s2_membership(u1)
    assert s0.verdict == s1.verdict == "S1-only"
    assert [form_str(g, u0.vars) for g in s0.failure_forms] == ["x + t = 1.0"]
    assert [form_str(g, u1.vars) for g in s1.failure_forms] == ["x + t = 10001.0"]
    h0, h1 = hypothesis_h_check(u0), hypothesis_h_check(u1)
    assert len(h1.rows) == len(h0.rows) > 0 and not h1.failures
    assert h_rows(h1) == scalar_h_rows(solve_problem(far))

    def on_line(u, prob):
        return [p for p in _check_points(u, prob) if 0 in u.sign_vector(p)]
    assert len(on_line(u1, far)) == len(on_line(u0, base)) > 0

    out = io.StringIO()
    cmd_solve(str(path), str(tmp_path / "out.csv"), out=out)
    assert "verdict S1-only; failing on x + t = 10001.0" in out.getvalue()
