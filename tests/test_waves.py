"""1D transport and wave solvers: d'Alembert, half-line reflection, Duhamel
force term, residual and hypothesis checks.

Two assertions are strict xfails: the printed closed form of the worked
nonhomogeneous example carries a force-term error in the middle
characteristic sector (the term there is -xt/2, not 0, as the triangle
quadrature oracle confirms), so the solver's correct output cannot match
those printed values.  The adjacent passing tests pin the corrected values.
"""

import math

import numpy as np
import pytest

from speculus.expr import Const, Expr, affine_arguments, parse
from speculus.piecewise import from_branches, from_expression
from speculus.quad import integrate_triangle
from speculus.specular import a_combine
from speculus.waves import (
    FORM_T,
    _duhamel_exact,
    SolutionField,
    SolverPrecondition,
    antiderivative_pw,
    boundary_residual,
    check_displacement,
    duhamel_term,
    hypothesis_h_check,
    initial_conditions_residual,
    solve_transport,
    solve_wave_halfline,
    solve_wave_homogeneous,
    solve_wave_nonhomogeneous,
    transport_residual,
    wave_residual,
)

VARS_X = ("x",)
VARS_XT = ("x", "t")


def q(s: float) -> float:
    return 0.5 * s * abs(s)


def printed_halfline(x: float, t: float) -> float:
    if x >= t:
        return q(x + t - 1) + 0.5 * x * x + 0.5 * t * t - t + 0.5
    return q(t + x - 1) - q(t - x - 1) + x * t - x


class TestTransport:
    def test_kink_travels(self):
        h = from_expression(parse("abs(x)", VARS_X), VARS_X)
        sol = solve_transport(h)
        rng = np.random.default_rng(5)
        for x, t in rng.uniform([-4, 0.1], [4, 4], size=(100, 2)):
            assert sol.evaluate((x, t)) == pytest.approx(abs(x - t), abs=1e-12)

    def test_residual_including_characteristic(self):
        h = from_expression(parse("abs(x)", VARS_X), VARS_X)
        sol = solve_transport(h)
        pts = [(2.0, 0.5), (-1.0, 3.0), (1.0, 1.0), (0.5, 0.5), (-2.0, 1.0)]
        rep = transport_residual(sol, pts)
        assert rep.max_abs <= 1e-9

    def test_jump_data_rejected(self):
        h = from_expression(parse("sgn(x)", VARS_X), VARS_X)
        with pytest.raises(SolverPrecondition):
            solve_transport(h)


class TestAntiderivative:
    def test_abs_minus_one(self):
        psi = from_expression(parse("abs(x - 1) - 1", VARS_X), VARS_X)
        Psi = antiderivative_pw(psi)
        assert Psi.evaluate((0.0,)) == pytest.approx(0.0, abs=1e-12)
        # int_0^x (|s-1| - 1) ds
        for x in (-1.0, 0.5, 1.0, 2.0, 3.5):
            want = q(x - 1) - x + 0.5
            assert Psi.evaluate((x,)) == pytest.approx(want, abs=1e-12)

    def test_continuity_at_breaks(self):
        psi = from_expression(parse("sgn(x) + abs(x - 2)", VARS_X), VARS_X)
        Psi = antiderivative_pw(psi)
        for r in (0.0, 2.0):
            lim = Psi.one_sided_limits((r,), 0)
            assert lim.left == pytest.approx(lim.right, abs=1e-12)


class TestDataChecks:
    def test_kinked_displacement_rejected(self):
        phi = from_expression(parse("abs(x)", VARS_X), VARS_X)
        assert check_displacement(phi)
        psi = from_expression(parse("0", VARS_X), VARS_X)
        with pytest.raises(SolverPrecondition):
            solve_wave_homogeneous(phi, psi)

    def test_c1_displacement_accepted(self, halfline_data):
        phi, _ = halfline_data
        assert check_displacement(phi) == []

    def test_halfline_compatibility(self):
        phi = from_expression(parse("x^2 + 1", VARS_X), VARS_X)
        psi = from_expression(parse("0", VARS_X), VARS_X)
        with pytest.raises(SolverPrecondition):
            solve_wave_halfline(phi, psi)


class TestHalflineExample:
    def test_matches_printed_closed_form(self, halfline_sol):
        rng = np.random.default_rng(19)
        pts = rng.uniform([0.01, 0.01], [4.0, 2.0], size=(1000, 2))
        for x, t in pts:
            assert halfline_sol.evaluate((x, t)) == pytest.approx(
                printed_halfline(x, t), abs=1e-10
            ), (x, t)

    def test_spot_values(self, halfline_sol):
        assert halfline_sol.evaluate((2.0, 1.0)) == pytest.approx(4.0, abs=1e-10)
        assert halfline_sol.evaluate((0.5, 1.5)) == pytest.approx(0.75, abs=1e-10)

    def test_residual_regions_and_lines(self, halfline_sol):
        pts = [
            (2.0, 0.5),    # x > t, x + t > 1
            (0.3, 0.2),    # x + t < 1
            (0.5, 1.0),    # t > x, x + t > 1, t - x < 1
            (0.2, 1.8),    # t - x > 1
            (0.8, 0.2),    # on x + t = 1, x > t
            (0.2, 0.8),    # on x + t = 1, t > x
            (0.3, 1.3),    # on t - x = 1
            (0.7, 0.7),    # on t = x, x + t > 1
            (0.3, 0.3),    # on t = x, x + t < 1
        ]
        rep = wave_residual(halfline_sol, None, pts)
        assert rep.max_abs <= 1e-9

    def test_on_line_operator_value_is_a20(self, halfline_sol):
        golden = a_combine(2.0, 0.0)
        assert golden == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-12)
        rep = wave_residual(halfline_sol, None, [(0.8, 0.2), (0.3, 1.3)])
        for _, _, _, _, d2t, d2x in rep.rows:
            assert d2t == pytest.approx(golden, abs=1e-9)
            assert d2x == pytest.approx(golden, abs=1e-9)

    def test_boundary_and_initial(self, halfline_data, halfline_sol):
        phi, psi = halfline_data
        ts = np.linspace(0.01, 2.0, 50)
        assert boundary_residual(halfline_sol, ts) <= 1e-10
        xs = np.linspace(0.05, 4.0, 50)
        wu, wv = initial_conditions_residual(halfline_sol, phi, psi, xs)
        assert wu <= 1e-10
        assert wv <= 1e-8

    def test_hypothesis_h(self, halfline_sol):
        rep = hypothesis_h_check(halfline_sol, box=(0.05, 4.0))
        assert rep.rows
        assert rep.failures == []


class TestClassicalReduction:
    def test_sin_cos_grid(self):
        phi = from_expression(parse("sin(x)", VARS_X), VARS_X)
        psi = from_expression(parse("cos(x)", VARS_X), VARS_X)
        sol = solve_wave_homogeneous(phi, psi)
        xs = np.linspace(-2.0, 2.0, 41)
        ts = np.linspace(0.01, 2.0, 41)
        for x in xs:
            for t in ts:
                want = 0.5 * (math.sin(x + t) + math.sin(x - t)) + 0.5 * (
                    math.sin(x + t) - math.sin(x - t)
                )
                assert sol.evaluate((x, t)) == pytest.approx(want, abs=1e-8)

    def test_polynomial_exact(self):
        phi = from_expression(parse("x^2", VARS_X), VARS_X)
        psi = from_expression(parse("x", VARS_X), VARS_X)
        sol = solve_wave_homogeneous(phi, psi)
        rng = np.random.default_rng(23)
        for x, t in rng.uniform([-3, 0.1], [3, 3], size=(60, 2)):
            assert sol.evaluate((x, t)) == pytest.approx(
                x * x + t * t + x * t, rel=1e-12, abs=1e-12
            )

    def test_smooth_residual(self):
        phi = from_expression(parse("sin(x)", VARS_X), VARS_X)
        psi = from_expression(parse("cos(x)", VARS_X), VARS_X)
        sol = solve_wave_homogeneous(phi, psi)
        rep = wave_residual(sol, None, [(0.3, 0.7), (-1.0, 1.5), (2.0, 0.2)])
        assert rep.max_abs <= 1e-7  # numeric second fields of a smooth branch


class TestDuhamel:
    def test_zero_force_matches_homogeneous(self, halfline_data):
        phi, psi = halfline_data
        f0 = from_expression(parse("0*x + 0*t", VARS_XT), VARS_XT)
        hom = solve_wave_homogeneous(phi, psi)
        non = solve_wave_nonhomogeneous(phi, psi, f0)
        rng = np.random.default_rng(31)
        for x, t in rng.uniform([-3, 0.1], [3, 2], size=(80, 2)):
            assert non.evaluate((x, t)) == pytest.approx(
                hom.evaluate((x, t)), abs=1e-12
            )

    def test_unit_force_half_t_squared(self):
        f1 = from_expression(
            parse("1 + 0*x + 0*t", VARS_XT), VARS_XT, domain=((FORM_T, 1),)
        )
        d = duhamel_term(f1)
        rng = np.random.default_rng(37)
        for x, t in rng.uniform([-3, 0.1], [3, 2], size=(50, 2)):
            assert d.evaluate((x, t)) == pytest.approx(0.5 * t * t, abs=1e-10)

    def test_counterexample_region_values(self, counterexample_data):
        _, _, f = counterexample_data
        d = duhamel_term(f)
        # right sector x > |t|: -t^2/2 ; left sector x < -|t|... for t > 0
        # the sectors are x > t, -t < x < t, x < -t
        assert d.evaluate((2.0, 1.0)) == pytest.approx(-0.5, abs=1e-10)
        assert d.evaluate((-2.0, 1.0)) == pytest.approx(0.5, abs=1e-10)
        # middle sector: the term is -xt/2 (zero only on the t-axis)
        assert d.evaluate((0.4, 1.0)) == pytest.approx(-0.2, abs=1e-10)
        assert d.evaluate((-0.4, 1.0)) == pytest.approx(0.2, abs=1e-10)
        assert d.evaluate((0.0, 1.0)) == pytest.approx(0.0, abs=1e-10)

    def test_counterexample_against_triangle_oracle(self, counterexample_data):
        _, _, f = counterexample_data
        d = duhamel_term(f)
        for x0, t0 in ((2.0, 1.0), (0.4, 1.0), (-0.7, 1.3), (-2.0, 0.5), (0.9, 2.0)):
            want = 0.5 * integrate_triangle(f, x0, t0)
            assert d.evaluate((x0, t0)) == pytest.approx(want, abs=1e-10)

    def test_constant_force_listing_only_nonempty_regions(self):
        # x - t > 2 with x - t < 0 is empty, so the table lists 6 of the 8
        # sign patterns; the term must still fold to exact quadratics
        forms = affine_arguments(
            parse("abs(x-t) + abs(x-t-2) + abs(x+t)", VARS_XT), VARS_XT
        )
        values = {
            (1, 1, 1): 2.0,
            (1, 1, -1): -3.0,
            (1, -1, 1): 1.0,
            (1, -1, -1): 0.5,
            (-1, -1, 1): -1.0,
            (-1, -1, -1): 4.0,
        }
        f = from_branches(
            forms,
            [(pat, Const(v)) for pat, v in values.items()],
            VARS_XT,
            domain=((FORM_T, 1),),
        )
        d = duhamel_term(f)
        assert all(isinstance(rhs, Expr) for _, rhs in d.branches)
        rng = np.random.default_rng(41)
        for x, t in rng.uniform([-4, 0.1], [6, 3], size=(40, 2)):
            want = _duhamel_exact(f, values, x, t)
            assert d.evaluate((x, t)) == pytest.approx(want, abs=1e-9)

    @pytest.mark.xfail(
        strict=True,
        reason="printed display shows 0 in the middle sector; the term is "
        "-xt/2 there (triangle quadrature oracle)",
    )
    def test_printed_middle_sector_zero(self, counterexample_data):
        _, _, f = counterexample_data
        d = duhamel_term(f)
        assert d.evaluate((0.4, 1.0)) == pytest.approx(0.0, abs=1e-10)


class TestCounterexampleSolution:
    def test_matches_printed_outer_regions(
        self, counterexample_sol, printed_counterexample_u
    ):
        # the two outer sectors of the printed form are correct
        for p in ((2.0, 1.0), (3.0, 0.5), (-2.0, 1.0), (-3.0, 2.0)):
            assert counterexample_sol.evaluate(p) == pytest.approx(
                printed_counterexample_u.evaluate(p), abs=1e-10
            )

    def test_gamma1_value(self, counterexample_sol, printed_counterexample_u):
        assert printed_counterexample_u.evaluate((1.0, 1.0)) == pytest.approx(2.5)
        assert counterexample_sol.evaluate((1.0, 1.0)) == pytest.approx(
            2.5, abs=1e-10
        )

    def test_printed_jump_across_gamma1(self, printed_counterexample_u):
        lim = printed_counterexample_u.one_sided_limits((1.0, 1.0), 0)
        assert lim.left == pytest.approx(3.0, abs=1e-12)
        assert lim.right - lim.left == pytest.approx(-0.5, abs=1e-12)

    def test_solver_output_is_continuous_across_gamma1(self, counterexample_sol):
        lim = counterexample_sol.u.one_sided_limits((1.0, 1.0), 0)
        assert lim.left == pytest.approx(2.5, abs=1e-10)
        assert lim.right == pytest.approx(2.5, abs=1e-10)

    @pytest.mark.xfail(
        strict=True,
        reason="printed middle-sector branch inherits the force-term error; "
        "the correct branch is exp(x-t) + xt/2 + x + t - 1",
    )
    def test_solver_matches_printed_middle_sector(
        self, counterexample_sol, printed_counterexample_u
    ):
        p = (0.4, 1.0)
        assert counterexample_sol.evaluate(p) == pytest.approx(
            printed_counterexample_u.evaluate(p), abs=1e-10
        )

    def test_correct_middle_sector_closed_form(self, counterexample_sol):
        for x, t in ((0.4, 1.0), (-0.3, 0.8), (0.0, 1.5)):
            want = math.exp(x - t) + 0.5 * x * t + x + t - 1
            assert counterexample_sol.evaluate((x, t)) == pytest.approx(
                want, abs=1e-10
            )

    def _five_case_points(self):
        return [
            (2.0, 1.0),    # right sector
            (1.0, 1.0),    # on x - t = 0, x + t > 0
            (0.0, 1.0),    # middle sector
            (-1.0, 1.0),   # on x + t = 0, x - t < 0
            (-2.0, 1.0),   # left sector
        ]

    def test_solver_residual_five_cases(self, counterexample_sol, counterexample_data):
        _, _, f = counterexample_data
        rep = wave_residual(counterexample_sol, f, self._five_case_points())
        assert rep.max_abs <= 1e-9

    def test_printed_u_residual_five_cases(
        self, printed_counterexample_u, counterexample_data
    ):
        # the printed form also satisfies the equation: the defect term
        # xt/2 restricted to the middle sector is invisible to the on-line
        # combination semantics (a uniqueness failure of the formulation)
        _, _, f = counterexample_data
        sol = SolutionField(
            printed_counterexample_u, "duhamel", printed_counterexample_u.forms
        )
        rep = wave_residual(sol, f, self._five_case_points())
        assert rep.max_abs <= 1e-9


class TestFinitePropagation:
    def test_velocity_bump_stays_in_cone(self):
        phi = from_expression(parse("0", VARS_X), VARS_X)
        psi = from_branches(
            tuple(affine_arguments(parse("abs(x-1) + abs(x+1)", VARS_X), VARS_X)),
            [
                ((1, 1), parse("0", VARS_X)),
                ((-1, 1), parse("1 - x^2", VARS_X)),
                ((-1, -1), parse("0", VARS_X)),
                ((1, -1), parse("0", VARS_X)),  # empty sector, needed for composition
            ],
            VARS_X,
        )
        sol = solve_wave_homogeneous(phi, psi)
        for x, t in ((3.0, 1.0), (-3.0, 1.5), (2.6, 1.5)):
            assert abs(x) > 1 + t
            assert sol.evaluate((x, t)) == pytest.approx(0.0, abs=1e-12)
        assert sol.evaluate((0.0, 0.5)) > 0.0
