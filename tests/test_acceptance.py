"""Acceptance gate: one test per acceptance criterion, so `pytest -v` on
this file prints one pass/fail line per criterion.

Criterion 6 carries two strict-xfail companions.  The worked nonhomogeneous
example's printed force term shows 0 in the middle characteristic sector,
but the triangle-quadrature oracle (and exact per-region integration) give
-xt/2 there, so the middle branch of the printed solution and the printed
force-term display cannot be reproduced by a correct solver.  Everything
else about the criterion — the on-line spot values, the jump, the residual
of the printed form, the S2 failure with both characteristic lines named,
and the outer-sector force-term values — holds and is asserted in the main
criterion test.
"""

import io
import math

import numpy as np
import pytest

from speculus.cli import EXIT_CHECK_FAIL, EXIT_OK, cmd_check, cmd_solve, load_problem
from speculus.expr import parse
from speculus.piecewise import classify_continuity, from_expression
from speculus.quad import integrate_1d
from speculus.specular import (
    a_combine,
    partial_field,
    s2_membership,
    specular_field,
    specular_partial,
)
from speculus.tangent2d import tangent_data
from speculus.waves import (
    boundary_residual,
    duhamel_term,
    initial_conditions_residual,
    residual_max,
    solve_wave_homogeneous,
    wave_operator_fields,
)

from paper_checks import (
    TypeIIIRegion,
    a_combine_f1,
    antiderivative_check,
    green_check,
    mixed_partial_residual,
)

X = ("x",)
XY = ("x", "y")
SQ2, SQ5, SQ10 = math.sqrt(2), math.sqrt(5), math.sqrt(10)


def test_criterion_01_a_combination():
    assert a_combine(1.0, 0.0) == pytest.approx(SQ2 - 1, abs=1e-12)
    assert a_combine(2.0, -1.0) == pytest.approx(SQ10 - 3, abs=1e-12)
    assert a_combine(3.0, -3.0) == 0.0
    rng = np.random.default_rng(101)
    for m in rng.uniform(-100, 100, 1000):
        assert a_combine(m, m) == pytest.approx(m, abs=1e-12 * (1 + abs(m)))
    pairs = rng.uniform(-30, 30, size=(10000, 2))
    for a, b in pairs:
        if abs(a + b) <= 1e-6:
            continue
        f1, f2 = a_combine_f1(a, b), a_combine(a, b)
        assert abs(f1 - f2) <= 1e-12 * (1 + abs(f1))


def test_criterion_02_specular_field_table(table_fn):
    f = specular_field(table_fn, 0)
    cases = [
        ((5.0, 1.0), 3.0),
        ((5.0, 11.0), -1.0),
        ((1.0, -1.0), 1.0),
        ((0.0, 1.0), -3.0),
        ((4.0, 8.0), a_combine(3.0, -1.0)),
        ((1.0, 2.0), a_combine(1.0, -3.0)),
        ((3.0, 2.0), a_combine(3.0, 1.0)),
        ((3.0, 10.0), a_combine(-1.0, -3.0)),
        ((3.0, 6.0), 0.0),
    ]
    for p, want in cases:
        assert f.evaluate(p) == pytest.approx(want, abs=1e-12), p
    rep = classify_continuity(f)
    assert rep.verdict == "piecewise-continuous"
    jumps = {table_fn.forms[k] for k in rep.jump_forms}
    assert {(g.coeffs, g.offset) for g in jumps} == {
        ((1.0, -0.5), 0.0),   # 2x - y = 0, normalized
        ((1.0, 0.0), 3.0),    # x = 3
    }


def test_criterion_03_tangent_geometry(corner_fn, saddle_fn):
    corner = tangent_data(corner_fn, (0.0, 0.0))
    p1, q1, p2, q2 = corner.points
    for got, want in zip(
        (p1, q1, p2, q2),
        ((1 / SQ2, 0, 1 / SQ2), (-1, 0, 0), (0, 1 / SQ5, 2 / SQ5), (0, -1 / SQ2, 1 / SQ2)),
    ):
        assert np.allclose(got, want, atol=1e-12)
    planes = corner.planes
    printed = [
        (SQ2 - 1, -(SQ10 - SQ5 - 2), SQ2 - 1),
        (SQ2 - 1, -(SQ2 - 1), SQ2 - 1),
        (-(SQ10 - 3), SQ10 - 3, SQ5 - SQ2),
        (SQ5 - SQ2, SQ10 - 3, SQ5 - SQ2),
    ]
    assert len(planes) == 4
    for want in printed:
        assert any(
            all(abs(g - w) <= 1e-9 for g, w in zip(got, want)) for got in planes
        ), want
    assert tangent_data(saddle_fn, (0.0, 0.0)).criterion_residual == pytest.approx(
        4 * (1 + SQ5), abs=1e-12
    )
    # the printed residual omits the trailing -3; either way it is nonzero
    assert corner.criterion_residual == pytest.approx(SQ5 - 2 * SQ2 - 3, abs=1e-12)
    assert corner.normal is None


def test_criterion_04_ftc_suite():
    sgn = from_expression(parse("sgn(x)", X), X)
    absx = from_expression(parse("abs(x)", X), X)
    assert integrate_1d(sgn, -1.0, 2.0) == pytest.approx(1.0, abs=1e-10)
    assert antiderivative_check(sgn, absx, -1.0, 2.0) <= 1e-10
    elu = from_expression(parse("elu(x)", X), X)
    d1 = partial_field(elu, 0)
    assert classify_continuity(d1).verdict == "continuous"
    d2 = specular_field(d1, 0)
    assert d2.evaluate((1.0,)) == 0.0
    assert d2.evaluate((-1.0,)) == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert d2.evaluate((0.0,)) == pytest.approx(SQ2 - 1, abs=1e-12)


def test_criterion_05_halfline_wave(halfline_data, halfline_sol):
    phi, psi = halfline_data

    def q(s):
        return 0.5 * s * abs(s)

    def printed(x, t):
        if x >= t:
            return q(x + t - 1) + 0.5 * x * x + 0.5 * t * t - t + 0.5
        return q(t + x - 1) - q(t - x - 1) + x * t - x

    rng = np.random.default_rng(55)
    for x, t in rng.uniform([0.01, 0.01], [4.0, 2.0], size=(1000, 2)):
        assert halfline_sol.evaluate((x, t)) == pytest.approx(
            printed(x, t), abs=1e-10
        )
    assert halfline_sol.evaluate((2.0, 1.0)) == pytest.approx(4.0, abs=1e-10)
    assert halfline_sol.evaluate((0.5, 1.5)) == pytest.approx(0.75, abs=1e-10)
    pts = [
        (2.0, 0.5), (0.3, 0.2), (0.5, 1.0), (0.2, 1.8),
        (0.8, 0.2), (0.2, 0.8), (0.3, 1.3), (0.7, 0.7), (0.3, 0.3),
    ]
    assert residual_max(halfline_sol, "wave", None, pts) <= 1e-9
    golden = a_combine(2.0, 0.0)
    assert golden == pytest.approx((SQ5 - 1) / 2, abs=1e-12)
    wtt, wxx, _ = wave_operator_fields(halfline_sol)
    for p in ((0.8, 0.2), (0.3, 1.3)):
        assert wtt.evaluate(p) == pytest.approx(golden, abs=1e-9)
        assert wxx.evaluate(p) == pytest.approx(golden, abs=1e-9)
    assert boundary_residual(halfline_sol, np.linspace(0.01, 2, 33)) <= 1e-10
    wu, wv = initial_conditions_residual(
        halfline_sol, phi, psi, np.linspace(0.05, 4, 33)
    )
    assert wu <= 1e-10 and wv <= 1e-10


def test_criterion_06_nonhomogeneous_counterexample(
    counterexample_data, counterexample_sol, printed_counterexample_u
):
    _, _, f = counterexample_data
    # spot values on and around Gamma_1
    assert counterexample_sol.evaluate((1.0, 1.0)) == pytest.approx(2.5, abs=1e-10)
    assert printed_counterexample_u.evaluate((1.0, 1.0)) == pytest.approx(2.5)
    lim = printed_counterexample_u.one_sided_limits((1.0, 1.0), 0)
    assert lim.left == pytest.approx(3.0, abs=1e-12)
    assert abs(lim.right - lim.left) == pytest.approx(0.5, abs=1e-12)
    # residual of the printed form against the printed force: five cases
    pts = [(2.0, 1.0), (1.0, 1.0), (0.0, 1.0), (-1.0, 1.0), (-2.0, 1.0)]
    assert residual_max(printed_counterexample_u, "wave", f, pts) <= 1e-9
    assert residual_max(counterexample_sol, "wave", f, pts) <= 1e-9
    # S2 membership fails with both characteristic lines named
    for u in (printed_counterexample_u, counterexample_sol):
        rep = s2_membership(u)
        assert rep.verdict != "S2"
        named = {(g.coeffs, g.offset) for g in rep.failure_forms}
        assert ((1.0, -1.0), 0.0) in named
        assert ((1.0, 1.0), 0.0) in named
    # force term: outer sectors match the printed display
    d = duhamel_term(f)
    assert d.evaluate((2.0, 1.0)) == pytest.approx(-0.5, abs=1e-10)
    assert d.evaluate((-2.0, 1.0)) == pytest.approx(0.5, abs=1e-10)


@pytest.mark.xfail(
    strict=True,
    reason="printed force-term display shows 0 in the middle sector; the "
    "correct value is -xt/2 (triangle quadrature oracle)",
)
def test_criterion_06_printed_duhamel_middle_sector(counterexample_data):
    _, _, f = counterexample_data
    d = duhamel_term(f)
    assert d.evaluate((0.4, 1.0)) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.xfail(
    strict=True,
    reason="the printed middle-sector branch inherits the force-term error, "
    "so the solver's correct output differs there by xt/2",
)
def test_criterion_06_solver_matches_printed_middle_sector(
    counterexample_sol, printed_counterexample_u
):
    p = (0.4, 1.0)
    assert counterexample_sol.evaluate(p) == pytest.approx(
        printed_counterexample_u.evaluate(p), abs=1e-10
    )


def test_criterion_07_classical_reduction():
    phi = from_expression(parse("sin(x)", X), X)
    psi = from_expression(parse("cos(x)", X), X)
    sol = solve_wave_homogeneous(phi, psi)
    for x in np.linspace(-2, 2, 41):
        for t in np.linspace(0.01, 2, 41):
            want = 0.5 * (math.sin(x + t) + math.sin(x - t)) + 0.5 * (
                math.sin(x + t) - math.sin(x - t)
            )
            assert sol.evaluate((x, t)) == pytest.approx(want, abs=1e-8)
    u = from_expression(parse("x^2*y + sin(x)", XY), XY)
    for x, y in ((0.4, -1.2), (2.0, 0.3), (-1.0, 1.0)):
        assert specular_partial(u, (x, y), 0) == pytest.approx(
            2 * x * y + math.cos(x), rel=1e-12, abs=1e-12
        )
        data = tangent_data(u, (x, y))
        assert data.criterion_residual == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(data.normal, (2 * x * y + math.cos(x), x * x, -1.0), atol=1e-12)


def test_criterion_08_green_verifier():
    def pw(text):
        return from_expression(parse(text, XY), XY)

    box = TypeIIIRegion.from_rectangle(-1.0, 1.0, -1.0, 1.0)
    fixtures = [
        (pw("(1/2)*x*abs(x) + 0*y"), pw("0*x + 0*y"), box, 2.0),
        (pw("x^2*y"), pw("x*sin(y)"),
         TypeIIIRegion.from_rectangle(0.0, 2.0, -1.0, 1.0), -4 * math.sin(1.0)),
        (pw("abs(x) + 0*y"), pw("abs(y) + 0*x"), box, 0.0),
        (pw("0*x + 0*y"), pw("(1/2)*y*abs(y) + 0*x"),
         TypeIIIRegion.from_rectangle(-2.0, 1.0, 0.0, 3.0), -13.5),
        (pw("abs(x - y)"), pw("0*x + 0*y"),
         TypeIIIRegion.from_rectangle(0.0, 1.0, 0.0, 1.0), 0.0),
        (pw("x*y"), pw("0*x + 0*y"),
         TypeIIIRegion(-1.0, 1.0, lambda x: x * x, lambda x: 1.0,
                       0.0, 1.0, lambda y: -math.sqrt(y), lambda y: math.sqrt(y)),
         0.8),
    ]
    for P, Q, R, want in fixtures:
        lhs, rhs, gap, _ = green_check(P, Q, R)
        assert gap <= 1e-8
        if want is not None:
            assert lhs == pytest.approx(want, abs=1e-8)


def test_criterion_09_mixed_symmetry():
    fixtures = [
        from_expression(parse("(1/2)*x*abs(x) + (1/2)*y*abs(y)", XY), XY),
        from_expression(parse("x^2*y - y^3", XY), XY),
        from_expression(parse("sin(x)*cos(y)", XY), XY),
    ]
    for u in fixtures:
        rep = s2_membership(u)
        assert rep.verdict == "S2"
        assert mixed_partial_residual(u) <= 1e-9


def test_criterion_10_determinism(tmp_path):
    fixtures = [
        "table2d.prob", "corner2d.prob", "transport_abs.prob",
        "halfline.prob", "wave_fullline.prob", "counterexample.prob",
        "zero.prob",
    ]
    for name in fixtures:
        path = f"problems/{name}"
        prob = load_problem(path)
        if prob.kind is not None:
            blobs = []
            for k in (0, 1):
                csv = tmp_path / f"{name}.{k}.csv"
                out = io.StringIO()
                assert cmd_solve(path, str(csv), out=out) == EXIT_OK
                blobs.append(csv.read_bytes())
            assert blobs[0] == blobs[1], name
        reports, codes = [], []
        for _ in (0, 1):
            out = io.StringIO()
            codes.append(cmd_check(path, out=out))
            reports.append(out.getvalue())
        assert reports[0] == reports[1], name
        assert codes[0] == codes[1]
        assert codes[0] in (EXIT_OK, EXIT_CHECK_FAIL)
